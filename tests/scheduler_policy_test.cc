// Tests for the pluggable SchedulingPolicy API: the PolicyRegistry (named
// construction, duplicates, plugins), the behavior of the built-in policies
// through a policy-agnostic MachineScheduler, and the ReplacementPass edge
// cases (empty queue, upgrade margin, FIFO admission order).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/core/occupancy.h"
#include "src/model/registry.h"
#include "src/scheduler/policy.h"
#include "src/scheduler/scheduler.h"
#include "src/sim/perf_model.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/synth.h"

namespace numaplace {
namespace {

TrainedPerfModel TrainSmallModel(const ImportantPlacementSet& ips,
                                 const PerformanceModel& sim, int baseline_id) {
  ModelPipeline pipeline(ips, sim, baseline_id, /*seed=*/23);
  PerfModelConfig config;
  config.forest.num_trees = 60;
  config.cv_trees = 25;
  config.runs_per_workload = 2;
  Rng rng(7);
  return pipeline.TrainPerfAuto(SampleTrainingWorkloads(36, rng), config);
}

class SchedulerPolicyTest : public ::testing::Test {
 protected:
  SchedulerPolicyTest()
      : topo_(AmdOpteron6272()),
        ips_(GenerateImportantPlacements(topo_, 16, true)),
        sim_(topo_, 0.01, 3),
        model_(TrainSmallModel(ips_, sim_, /*baseline_id=*/1)) {
    registry_.Register(topo_.name(), 16, model_);
  }

  MachineScheduler MakeScheduler(const std::string& policy,
                                 SchedulerConfig config = {}) {
    config.policy = policy;
    config.baseline_id = 1;
    MachineScheduler scheduler(topo_, sim_, &registry_, config);
    scheduler.ProvidePlacements(ips_);
    return scheduler;
  }

  ContainerRequest MakeRequest(int id, const std::string& workload, double goal,
                               int vcpus = 16) const {
    ContainerRequest request;
    request.id = id;
    request.workload = PaperWorkload(workload);
    request.workload.name += "#" + std::to_string(id);
    request.vcpus = vcpus;
    request.goal_fraction = goal;
    return request;
  }

  Topology topo_;
  ImportantPlacementSet ips_;
  PerformanceModel sim_;
  TrainedPerfModel model_;
  ModelRegistry registry_;
};

// --- registry ---

TEST(ModelPolicyContract, RankingIsTheSameOnAnEmptyAndANearlyFullMachine) {
  // A policy that uses the model ranks from the prediction alone, never
  // from ctx.occupancy: that is what lets every machine of a topology group
  // share one ranked view of a container.
  const Topology topo = AmdOpteron6272();
  const ImportantPlacementSet ips = GenerateImportantPlacements(topo, 16, true);
  std::vector<int> ids;
  std::vector<double> predicted;
  ModelFreeCandidates(ips, ids, predicted);
  std::reverse(ids.begin(), ids.end());  // a model's output order is its own
  Rng rng(3);
  for (double& p : predicted) {
    p = 1e6 * (0.5 + rng.NextDouble());
  }
  const OccupancyMap empty(topo);
  OccupancyMap nearly_full(topo);
  Placement all_but_one;
  for (int t = 0; t + 1 < topo.NumHwThreads(); ++t) {
    all_but_one.hw_threads.push_back(t);
  }
  nearly_full.Acquire(1, all_but_one);
  ASSERT_EQ(nearly_full.FreeThreadCount(), 1);

  const ModelPolicy policy;
  const double best = *std::max_element(predicted.begin(), predicted.end());
  for (const double goal : {0.0, 0.5 * best, 0.9 * best, 2.0 * best}) {
    for (const double slack : {0.0, 0.03, 0.5}) {
      PolicyContext ctx;
      ctx.topo = &topo;
      ctx.ips = &ips;
      ctx.vcpus = 16;
      ctx.placement_ids = &ids;
      ctx.predicted_abs = &predicted;
      ctx.goal_abs = goal;
      ctx.fallback_slack = slack;
      ctx.occupancy = &empty;
      const std::vector<size_t> on_empty = policy.RankForAdmission(ctx);
      ctx.occupancy = &nearly_full;
      EXPECT_EQ(policy.RankForAdmission(ctx), on_empty) << "goal " << goal << ", slack " << slack;
    }
  }
}

TEST(PolicyRegistry, BuiltinsAreConstructibleByName) {
  const std::vector<std::string> names = PolicyRegistry::Global().Names();
  for (const char* expected : {"model", "first-fit", "best-fit", "spread"}) {
    EXPECT_TRUE(PolicyRegistry::Global().Has(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
    const std::unique_ptr<SchedulingPolicy> policy = MakePolicy(expected);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), expected);
  }
  EXPECT_TRUE(MakePolicy("model")->UsesModel());
  EXPECT_FALSE(MakePolicy("first-fit")->UsesModel());
  EXPECT_FALSE(MakePolicy("best-fit")->UsesModel());
  EXPECT_FALSE(MakePolicy("spread")->UsesModel());
}

TEST(PolicyRegistry, UnknownAndDuplicateNamesAreRejected) {
  EXPECT_FALSE(PolicyRegistry::Global().Has("no-such-policy"));
  EXPECT_THROW(MakePolicy("no-such-policy"), std::logic_error);
  EXPECT_THROW(PolicyRegistry::Global().Register(
                   "model", [] { return std::make_unique<FirstFitPolicy>(); }),
               std::logic_error);
}

// A plugin: ranks candidates by id descending — nonsense as a strategy, but
// observably different from every built-in.
class ReversePolicy final : public SchedulingPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "test-reverse";
    return kName;
  }
  std::vector<size_t> RankForAdmission(const PolicyContext& ctx) const override {
    const std::vector<int>& ids = *ctx.placement_ids;
    std::vector<size_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return ids[a] > ids[b]; });
    return order;
  }
};

TEST_F(SchedulerPolicyTest, RegisteredPluginAndInjectedPolicyBothSchedule) {
  if (!PolicyRegistry::Global().Has("test-reverse")) {
    PolicyRegistry::Global().Register(
        "test-reverse", [] { return std::make_unique<ReversePolicy>(); });
  }
  MachineScheduler by_name = MakeScheduler("test-reverse");
  const ScheduleOutcome via_name = by_name.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  ASSERT_TRUE(via_name.admitted);
  EXPECT_EQ(by_name.policy().name(), "test-reverse");

  SchedulerConfig config;
  config.baseline_id = 1;
  config.policy = "not-even-registered";  // ignored with an injected policy
  MachineScheduler injected(topo_, sim_, &registry_, config,
                            std::make_unique<ReversePolicy>());
  injected.ProvidePlacements(ips_);
  const ScheduleOutcome via_ptr = injected.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  ASSERT_TRUE(via_ptr.admitted);
  // Both schedulers made the same (reversed: highest id realizable) choice.
  EXPECT_EQ(via_ptr.placement_id, via_name.placement_id);
  EXPECT_EQ(via_name.placement_id, ips_.placements.back().id);
}

// --- built-in policy behavior through the scheduler ---

TEST_F(SchedulerPolicyTest, ModelFreePoliciesScheduleWithoutProbesOrModels) {
  ModelRegistry empty_registry;  // no trained model: must not be consulted
  for (const char* name : {"first-fit", "best-fit", "spread"}) {
    SchedulerConfig config;
    config.policy = name;
    config.baseline_id = 1;
    MachineScheduler scheduler(topo_, sim_, &empty_registry, config);
    scheduler.ProvidePlacements(ips_);
    const ScheduleOutcome outcome = scheduler.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
    ASSERT_TRUE(outcome.admitted) << name;
    EXPECT_EQ(scheduler.stats().probe_runs, 0) << name;
    EXPECT_EQ(outcome.predicted_abs_throughput, 0.0) << name;
    EXPECT_FALSE(outcome.meets_goal) << name;
    EXPECT_EQ(outcome.decision_seconds, 0.0) << name;
  }
}

TEST_F(SchedulerPolicyTest, SpreadMaximizesAndBestFitMinimizesNodeFootprint) {
  MachineScheduler best_fit = MakeScheduler("best-fit");
  MachineScheduler spread = MakeScheduler("spread");
  const ScheduleOutcome tight = best_fit.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  const ScheduleOutcome wide = spread.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  ASSERT_TRUE(tight.admitted);
  ASSERT_TRUE(wide.admitted);

  // 16 vCPUs on 8-thread nodes: the tightest fit fills 2 nodes exactly, the
  // widest realizable class spans every node of the machine.
  const int tight_nodes = ips_.ById(tight.placement_id).NodeCount();
  const int wide_nodes = ips_.ById(wide.placement_id).NodeCount();
  EXPECT_EQ(tight_nodes, 2);
  EXPECT_EQ(wide_nodes, topo_.num_nodes());
  for (int node : tight.placement.NodesUsed(topo_)) {
    EXPECT_EQ(best_fit.occupancy().FreeThreadsOnNode(node), 0);
  }

  // A second spread container still fits: it interleaves onto the threads
  // the first one left free on the same nodes.
  const ScheduleOutcome second = spread.Submit(MakeRequest(2, "wc", 0.9), 1.0);
  ASSERT_TRUE(second.admitted);
  std::set<int> threads(wide.placement.hw_threads.begin(),
                        wide.placement.hw_threads.end());
  for (int t : second.placement.hw_threads) {
    EXPECT_TRUE(threads.insert(t).second) << "thread " << t << " double-booked";
  }
}

TEST_F(SchedulerPolicyTest, FirstFitMatchesBestFitOnEmptyMachineByNodeCount) {
  MachineScheduler first_fit = MakeScheduler("first-fit");
  const ScheduleOutcome outcome = first_fit.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  ASSERT_TRUE(outcome.admitted);
  EXPECT_EQ(ips_.ById(outcome.placement_id).NodeCount(), 2);
}

// --- ReplacementPass edge cases ---

TEST_F(SchedulerPolicyTest, DepartureWithEmptyQueueAndHealthyTenantsReplacesNothing) {
  MachineScheduler scheduler = MakeScheduler("model");
  ASSERT_TRUE(scheduler.Submit(MakeRequest(1, "gcc", 0.5), 0.0).admitted);
  const ScheduleOutcome second = scheduler.Submit(MakeRequest(2, "gcc", 0.5), 1.0);
  ASSERT_TRUE(second.admitted);
  EXPECT_TRUE(second.meets_goal);

  // Nothing queued and the incumbent meets its goal: the pass is a no-op.
  const std::vector<ScheduleOutcome> replaced = scheduler.Depart(1, 2.0);
  EXPECT_TRUE(replaced.empty());
  EXPECT_EQ(scheduler.stats().upgrades, 0);
  EXPECT_EQ(scheduler.stats().admitted_from_queue, 0);

  // Departing the last container drains the machine without incident.
  EXPECT_TRUE(scheduler.Depart(2, 3.0).empty());
  EXPECT_EQ(scheduler.occupancy().BusyThreadCount(), 0);
}

TEST_F(SchedulerPolicyTest, UpgradeIsSkippedWhenGainIsBelowTheMargin) {
  // An unreachable goal keeps every candidate in the not-meeting bucket,
  // where the margin is the only gate on migration churn.
  const auto run_with_margin = [&](double margin) {
    SchedulerConfig config;
    config.upgrade_margin = margin;
    MachineScheduler scheduler = MakeScheduler("model", config);
    for (int id = 1; id <= 3; ++id) {
      EXPECT_TRUE(scheduler.Submit(MakeRequest(id, "gcc", 0.5), 0.0).admitted);
    }
    const ScheduleOutcome crowded =
        scheduler.Submit(MakeRequest(9, "streamcluster", 3.0), 1.0);
    EXPECT_TRUE(crowded.admitted);
    EXPECT_FALSE(crowded.meets_goal);
    scheduler.Depart(1, 2.0);
    scheduler.Depart(2, 3.0);
    scheduler.Depart(3, 4.0);
    return scheduler.stats().upgrades;
  };

  // With no margin the freed capacity is worth a strictly better placement…
  EXPECT_GE(run_with_margin(0.0), 1);
  // …but an impossible margin blocks every not-meeting upgrade.
  EXPECT_EQ(run_with_margin(1e9), 0);
}

TEST_F(SchedulerPolicyTest, QueueAdmissionStaysFifoWhenSeveralContainersFit) {
  // first-fit exercises the queue path without needing models: two 32-vCPU
  // containers fill the 64-thread machine, three 16-vCPU containers queue
  // behind them.
  MachineScheduler scheduler = MakeScheduler("first-fit");
  ASSERT_TRUE(scheduler.Submit(MakeRequest(1, "gcc", 1.0, 32), 0.0).admitted);
  ASSERT_TRUE(scheduler.Submit(MakeRequest(2, "wc", 1.0, 32), 1.0).admitted);
  EXPECT_EQ(scheduler.occupancy().FreeThreadCount(), 0);
  for (int id = 3; id <= 5; ++id) {
    EXPECT_FALSE(scheduler.Submit(MakeRequest(id, "gcc", 1.0), 2.0 + id).admitted);
  }
  EXPECT_EQ(scheduler.PendingIds(), (std::vector<int>{3, 4, 5}));

  // One departure frees four nodes — room for exactly two of the three
  // queued containers, admitted in submission order.
  const std::vector<ScheduleOutcome> replaced = scheduler.Depart(1, 10.0);
  ASSERT_EQ(replaced.size(), 2u);
  EXPECT_EQ(replaced[0].container_id, 3);
  EXPECT_EQ(replaced[1].container_id, 4);
  EXPECT_TRUE(replaced[0].admitted);
  EXPECT_TRUE(replaced[1].admitted);
  EXPECT_EQ(scheduler.PendingIds(), std::vector<int>{5});
  EXPECT_EQ(scheduler.stats().admitted_from_queue, 2);

  // The next departure admits the straggler: order never inverted.
  const std::vector<ScheduleOutcome> next = scheduler.Depart(2, 11.0);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].container_id, 5);
  EXPECT_TRUE(scheduler.PendingIds().empty());
}

}  // namespace
}  // namespace numaplace
