// Tests for the multi-tenant MachineScheduler: concurrent containers with
// disjoint hardware-thread sets, probe caching across re-placements, the
// arrival -> probe -> place -> depart -> re-place lifecycle, the incremental
// running set and tenant generation behind the replay's snapshot cache, the
// realizability memo and the ranked view behind admission previews, and the
// split-L3 (Zen) topology.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/occupancy.h"
#include "src/model/registry.h"
#include "src/scheduler/scheduler.h"
#include "src/sim/perf_model.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/synth.h"
#include "src/workloads/trace.h"

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

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : topo_(AmdOpteron6272()),
        ips_(GenerateImportantPlacements(topo_, 16, true)),
        sim_(topo_, 0.01, 3),
        model_(TrainSmallModel(ips_, sim_, /*baseline_id=*/1)) {
    registry_.Register(topo_.name(), 16, model_);
  }

  MachineScheduler MakeScheduler() {
    SchedulerConfig config;
    config.baseline_id = 1;
    MachineScheduler scheduler(topo_, sim_, &registry_, config);
    scheduler.ProvidePlacements(ips_);
    return scheduler;
  }

  ContainerRequest MakeRequest(int id, const std::string& workload, double goal) const {
    ContainerRequest request;
    request.id = id;
    request.workload = PaperWorkload(workload);
    request.workload.name += "#" + std::to_string(id);
    request.vcpus = 16;
    request.goal_fraction = goal;
    return request;
  }

  Topology topo_;
  ImportantPlacementSet ips_;
  PerformanceModel sim_;
  TrainedPerfModel model_;
  ModelRegistry registry_;
};

TEST_F(SchedulerTest, PlacesConcurrentContainersOnDisjointThreads) {
  MachineScheduler scheduler = MakeScheduler();
  std::set<int> all_threads;
  int total = 0;
  int id = 1;
  for (const char* name : {"gcc", "streamcluster", "kmeans"}) {
    const ScheduleOutcome outcome = scheduler.Submit(MakeRequest(id, name, 0.9), 0.0);
    ASSERT_TRUE(outcome.admitted) << name;
    EXPECT_NO_THROW(ips_.ById(outcome.placement_id)) << name;
    for (int t : outcome.placement.hw_threads) {
      EXPECT_TRUE(all_threads.insert(t).second)
          << "thread " << t << " assigned twice (container " << id << ")";
    }
    total += static_cast<int>(outcome.placement.hw_threads.size());
    ++id;
  }
  EXPECT_EQ(total, 48);
  EXPECT_EQ(scheduler.occupancy().BusyThreadCount(), 48);
  EXPECT_EQ(scheduler.occupancy().NumContainers(), 3);
  EXPECT_EQ(scheduler.RunningIds().size(), 3u);
  // Occupancy agrees with the outcomes thread for thread.
  for (int cid : scheduler.RunningIds()) {
    const ManagedContainer* c = scheduler.Find(cid);
    ASSERT_NE(c, nullptr);
    std::vector<int> owned = scheduler.occupancy().ThreadsOf(cid);
    std::vector<int> placed = c->placement.hw_threads;
    std::sort(placed.begin(), placed.end());
    EXPECT_EQ(owned, placed);
  }
}

TEST_F(SchedulerTest, QueuedContainerIsAdmittedOnDepartureReusingProbes) {
  MachineScheduler scheduler = MakeScheduler();
  // Easy goals pick the fewest-node (2-node) placement; four of them fill
  // the 8-node machine exactly.
  for (int id = 1; id <= 4; ++id) {
    ASSERT_TRUE(scheduler.Submit(MakeRequest(id, "gcc", 0.5), 0.0).admitted);
  }
  EXPECT_EQ(scheduler.occupancy().FreeThreadCount(), 0);

  const ScheduleOutcome queued = scheduler.Submit(MakeRequest(5, "gcc", 0.5), 10.0);
  EXPECT_FALSE(queued.admitted);
  EXPECT_EQ(scheduler.PendingIds(), std::vector<int>{5});
  // The probes ran anyway and the prediction is cached for the retry.
  EXPECT_NE(registry_.FindPrediction(5), nullptr);
  const int probes_before = scheduler.stats().probe_runs;
  EXPECT_EQ(probes_before, 10);  // five fresh probe pairs

  const std::vector<ScheduleOutcome> replaced = scheduler.Depart(1, 20.0);
  ASSERT_EQ(replaced.size(), 1u);
  EXPECT_EQ(replaced[0].container_id, 5);
  EXPECT_TRUE(replaced[0].admitted);
  EXPECT_TRUE(replaced[0].reused_cached_probes);
  EXPECT_EQ(scheduler.stats().probe_runs, probes_before);  // no re-probing
  EXPECT_GE(scheduler.stats().cached_probe_reuses, 1);
  EXPECT_TRUE(scheduler.PendingIds().empty());
  EXPECT_EQ(scheduler.stats().admitted_from_queue, 1);
}

TEST_F(SchedulerTest, DegradedContainerIsUpgradedAfterDeparturesWithoutReprobing) {
  MachineScheduler scheduler = MakeScheduler();
  // Fill six nodes with easy containers, leaving two free.
  for (int id = 1; id <= 3; ++id) {
    ASSERT_TRUE(scheduler.Submit(MakeRequest(id, "gcc", 0.5), 0.0).admitted);
  }
  // A bandwidth-bound container with an unreachable goal is forced into the
  // remaining two nodes, well below its best placement.
  const ScheduleOutcome crowded =
      scheduler.Submit(MakeRequest(9, "streamcluster", 1.1), 1.0);
  ASSERT_TRUE(crowded.admitted);
  EXPECT_FALSE(crowded.meets_goal);
  const double crowded_predicted = crowded.predicted_abs_throughput;
  const int probes_before = scheduler.stats().probe_runs;

  // As capacity frees up, the re-placement pass migrates it to a better
  // class using the cached probes.
  scheduler.Depart(1, 2.0);
  scheduler.Depart(2, 3.0);
  scheduler.Depart(3, 4.0);

  const ManagedContainer* upgraded = scheduler.Find(9);
  ASSERT_NE(upgraded, nullptr);
  EXPECT_EQ(upgraded->state, ContainerState::kRunning);
  EXPECT_GE(upgraded->replacements, 1);
  EXPECT_GT(upgraded->predicted_abs_throughput, crowded_predicted);
  EXPECT_GE(scheduler.stats().upgrades, 1);
  EXPECT_GE(scheduler.stats().cached_probe_reuses, 1);
  EXPECT_EQ(scheduler.stats().probe_runs, probes_before);
}

TEST_F(SchedulerTest, TraceReplayRunsTheFullLifecycle) {
  MachineScheduler scheduler = MakeScheduler();
  TraceConfig config;
  config.num_containers = 12;
  config.mean_interarrival_seconds = 60.0;
  config.mean_lifetime_seconds = 240.0;
  config.vcpus = 16;
  config.goal_fraction = 0.9;
  Rng rng(5);
  const EventStream trace = GeneratePoissonTrace(config, rng);
  ASSERT_EQ(trace.size(), 24u);

  OutcomeRecorder recorder;
  scheduler.Replay(trace, &recorder);
  // One admission or queueing per arrival, plus re-placements.
  EXPECT_GE(recorder.outcomes.size(), 12u);
  for (const FleetOutcome& outcome : recorder.outcomes) {
    EXPECT_EQ(outcome.machine_id, 0);  // a standalone scheduler is machine 0
  }

  const SchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 12);
  EXPECT_EQ(stats.departed, 12);
  EXPECT_EQ(stats.admitted_immediately + stats.queued, 12);
  // Every container departed: the machine drains and the cache empties.
  EXPECT_EQ(scheduler.occupancy().BusyThreadCount(), 0);
  EXPECT_TRUE(scheduler.RunningIds().empty());
  EXPECT_TRUE(scheduler.PendingIds().empty());
  EXPECT_EQ(registry_.NumCachedPredictions(), 0u);
  EXPECT_GT(scheduler.TimeAveragedUtilization(), 0.0);
  EXPECT_LT(scheduler.TimeAveragedUtilization(), 1.0);
}

TEST_F(SchedulerTest, StepRoutesContainerEventsAndRejectsMachineEvents) {
  MachineScheduler scheduler = MakeScheduler();

  ContainerArrival arrival;
  arrival.container_id = 1;
  arrival.workload = PaperWorkload("gcc");
  arrival.workload.name += "#1";
  arrival.vcpus = 16;
  arrival.goal_fraction = 0.9;

  OutcomeRecorder recorder;
  scheduler.Step(FleetEvent::Arrival(0.0, arrival), &recorder);
  ASSERT_EQ(recorder.outcomes.size(), 1u);
  EXPECT_TRUE(recorder.outcomes[0].outcome.admitted);
  EXPECT_EQ(recorder.outcomes[0].outcome.container_id, 1);

  scheduler.Step(FleetEvent::Departure(5.0, 1), &recorder);
  EXPECT_TRUE(scheduler.RunningIds().empty());
  EXPECT_EQ(scheduler.stats().departed, 1);

  // Machine lifecycle events address a fleet, not a single machine.
  EXPECT_THROW(scheduler.Step(FleetEvent::Fail(6.0, 0)), std::logic_error);
  EXPECT_THROW(scheduler.Step(FleetEvent::Drain(6.0, 0)), std::logic_error);
  EXPECT_THROW(scheduler.Step(FleetEvent::Rejoin(6.0, 0)), std::logic_error);
}

TEST_F(SchedulerTest, RejectsLiveDuplicateIdsAndUnknownDepartures) {
  MachineScheduler scheduler = MakeScheduler();
  ASSERT_TRUE(scheduler.Submit(MakeRequest(1, "gcc", 0.9), 0.0).admitted);
  EXPECT_THROW(scheduler.Submit(MakeRequest(1, "wc", 0.9), 1.0), std::logic_error);
  EXPECT_THROW(scheduler.Depart(99, 2.0), std::logic_error);
  scheduler.Depart(1, 3.0);
  EXPECT_THROW(scheduler.Depart(1, 4.0), std::logic_error);
  // A departed id may be reused.
  EXPECT_TRUE(scheduler.Submit(MakeRequest(1, "wc", 0.9), 5.0).admitted);
}

// Whether, for every important placement of `vcpus`, the scheduler's memo
// holds exactly what a fresh RealizeAnywhereFree on its occupancy finds:
// the same presence and the same thread list.
::testing::AssertionResult MemoMatchesAFreshSearch(const MachineScheduler& scheduler,
                                                   int vcpus) {
  for (const ImportantPlacement& ip : scheduler.PlacementsFor(vcpus).placements) {
    const std::optional<Placement>& memo = scheduler.RealizedOnFreeThreads(vcpus, ip.id);
    const std::optional<Placement> fresh =
        RealizeAnywhereFree(ip, scheduler.topology(), vcpus, scheduler.occupancy());
    if (memo.has_value() != fresh.has_value() ||
        (fresh.has_value() && memo->hw_threads != fresh->hw_threads)) {
      return ::testing::AssertionFailure() << "placement #" << ip.id << " memo differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// What PreviewAdmission must answer, computed the long way: a fresh ranking
// (BuildRankedView), then the whole order walked with fresh node-set
// searches — no view memo, no realizability memo, no free-thread
// short-circuit.
MachineScheduler::AdmissionPreview ReferencePreview(const MachineScheduler& scheduler,
                                                    const ContainerRequest& request) {
  const RankedView fresh = scheduler.BuildRankedView(request);
  const ImportantPlacementSet& ips = scheduler.PlacementsFor(request.vcpus);
  MachineScheduler::AdmissionPreview preview;
  preview.goal_abs = fresh.decision_goal;
  for (const size_t idx : fresh.order) {
    if (RealizeAnywhereFree(ips.ById(fresh.placement_ids[idx]), scheduler.topology(),
                            request.vcpus, scheduler.occupancy())
            .has_value()) {
      preview.realizable = true;
      preview.placement_id = fresh.placement_ids[idx];
      preview.predicted_abs = fresh.predicted_abs[idx];
      preview.meets_goal = fresh.predicted_abs[idx] >= fresh.decision_goal;
      break;
    }
  }
  return preview;
}

// Whether, for every request with a cached prediction in `registry`, the
// scheduler's ranked view equals a fresh one and its preview equals the
// reference preview.
::testing::AssertionResult ViewsMatchAFreshRanking(
    const MachineScheduler& scheduler, const ModelRegistry& registry,
    const std::map<int, ContainerRequest>& requests) {
  for (const auto& [id, request] : requests) {
    if (registry.FindPrediction(id) == nullptr) {
      continue;
    }
    if (!(scheduler.RankedViewFor(request) == scheduler.BuildRankedView(request))) {
      return ::testing::AssertionFailure() << "container " << id << " view differs";
    }
    if (!(scheduler.PreviewAdmission(request) == ReferencePreview(scheduler, request))) {
      return ::testing::AssertionFailure() << "container " << id << " preview differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// The running ids a from-scratch recount of Find() states over `ids`
// (ascending) yields — what the scheduler's live running set must hold.
std::vector<int> RecountRunning(const MachineScheduler& scheduler,
                                const std::set<int>& ids) {
  std::vector<int> running;
  for (int id : ids) {
    const ManagedContainer* container = scheduler.Find(id);
    if (container != nullptr && container->state == ContainerState::kRunning) {
      running.push_back(id);
    }
  }
  return running;
}

TEST_F(SchedulerTest, IncrementalTenantStateMatchesARecountAfterEveryStep) {
  // A seeded churn trace past saturation with unreachable goals: arrivals
  // that land or queue, queue admissions, upgrades and departures of both
  // running and queued containers.
  MachineScheduler scheduler = MakeScheduler();
  const MultiTenantModel multi(topo_, 0.01, 3);
  TraceConfig config;
  config.num_containers = 60;
  config.mean_interarrival_seconds = 60.0;
  config.mean_lifetime_seconds = 300.0;
  config.vcpus = 16;
  config.goal_fraction = 1.1;
  Rng rng(5);
  const EventStream trace = GeneratePoissonTrace(config, rng);
  std::set<int> ids;
  std::map<int, ContainerRequest> requests;
  for (const FleetEvent& event : trace) {
    if (const ContainerArrival* arrival = event.arrival()) {
      ids.insert(arrival->container_id);
      requests.emplace(arrival->container_id, RequestFromArrival(*arrival));
    }
  }

  TenantSnapshotCache cache(1);
  int unchanged = 0;
  int occupancy_unchanged = 0;
  for (const FleetEvent& event : trace) {
    cache.Get(0, scheduler, multi);  // filled between events, as a replay does
    const uint64_t generation = scheduler.TenantGeneration();
    const uint64_t occupancy_generation = scheduler.occupancy().Generation();
    scheduler.Step(event);
    ASSERT_EQ(scheduler.RunningIds(), RecountRunning(scheduler, ids))
        << ToString(event.kind()) << " at t=" << event.time_seconds;
    // An unchanged generation is a cache hit, which must serve exactly what
    // a fresh evaluation computes.
    unchanged += scheduler.TenantGeneration() == generation ? 1 : 0;
    ASSERT_EQ(cache.Get(0, scheduler, multi), scheduler.SnapshotPerformance(multi))
        << ToString(event.kind()) << " at t=" << event.time_seconds;
    // So must the realizability memo, filled after the previous step: an
    // unchanged occupancy generation serves every slot from it.
    occupancy_unchanged +=
        scheduler.occupancy().Generation() == occupancy_generation ? 1 : 0;
    ASSERT_TRUE(MemoMatchesAFreshSearch(scheduler, 16))
        << ToString(event.kind()) << " at t=" << event.time_seconds;
    // And the ranked views the previews and commits read.
    ASSERT_TRUE(ViewsMatchAFreshRanking(scheduler, registry_, requests))
        << ToString(event.kind()) << " at t=" << event.time_seconds;
  }
  EXPECT_GT(scheduler.stats().queued, 0);
  EXPECT_GT(scheduler.stats().admitted_from_queue, 0);
  EXPECT_GT(scheduler.stats().upgrades, 0);
  EXPECT_GT(unchanged, 0);
  EXPECT_GT(occupancy_unchanged, 0);
}

TEST_F(SchedulerTest, AFullMachineAnswersNotRealizableWithTheGoal) {
  // Four 16-vCPU tenants fill the 64-thread machine: a fifth previews as
  // not realizable, still reporting the goal its probes give, and queues.
  MachineScheduler scheduler = MakeScheduler();
  for (int id = 1; id <= 4; ++id) {
    ASSERT_TRUE(scheduler.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0).admitted);
  }
  ASSERT_EQ(scheduler.occupancy().FreeThreadCount(), 0);
  const ContainerRequest request = MakeRequest(5, "wc", 0.9);
  scheduler.EnsureProbes(request);
  const MachineScheduler::AdmissionPreview preview = scheduler.PreviewAdmission(request);
  EXPECT_FALSE(preview.realizable);
  EXPECT_GT(preview.goal_abs, 0.0);
  EXPECT_EQ(preview, ReferencePreview(scheduler, request));
  EXPECT_FALSE(scheduler.Submit(request, 5.0).admitted);
  EXPECT_EQ(scheduler.PendingIds(), std::vector<int>{5});
}

TEST_F(SchedulerTest, ARepredictedIdIsRankedFromItsNewPrediction) {
  // The view lives with the prediction: forgetting a container and
  // predicting the same id from other probe values must never serve the
  // old view.
  MachineScheduler scheduler = MakeScheduler();
  const ContainerRequest request = MakeRequest(7, "gcc", 0.9);
  scheduler.EnsureProbes(request);
  const CachedPrediction first_probes = *registry_.FindPrediction(7);
  const RankedView first = scheduler.RankedViewFor(request);
  ASSERT_EQ(first, scheduler.BuildRankedView(request));

  registry_.Forget(7);
  registry_.Predict(7, topo_.name(), 16, first_probes.perf_b * 1.7,
                    first_probes.perf_a * 0.6);
  const RankedView& second = scheduler.RankedViewFor(request);
  EXPECT_EQ(second, scheduler.BuildRankedView(request));
  EXPECT_NE(second.predicted_abs, first.predicted_abs);
  EXPECT_EQ(scheduler.PreviewAdmission(request), ReferencePreview(scheduler, request));
}

TEST_F(SchedulerTest, MachinesWithOtherInputsRankTheSharedPredictionThemselves) {
  // Three schedulers share one registry, as machines of a topology group
  // do, but differ in baseline id or fallback slack: each one's view and
  // previews must be its own, however the memo was filled before.
  SchedulerConfig other_baseline;
  other_baseline.baseline_id = 2;
  SchedulerConfig wide_slack;
  wide_slack.baseline_id = 1;
  wide_slack.fallback_slack = 0.5;
  std::vector<MachineScheduler> schedulers;
  schedulers.push_back(MakeScheduler());
  for (const SchedulerConfig& config : {other_baseline, wide_slack}) {
    schedulers.emplace_back(topo_, sim_, &registry_, config);
    schedulers.back().ProvidePlacements(ips_);
  }
  // Goals no placement meets, so the slack decides the fallback order.
  std::map<int, ContainerRequest> requests;
  const std::vector<std::string> workloads = {"gcc", "wc", "streamcluster", "swaptions"};
  for (int id = 1; id <= 4; ++id) {
    requests.emplace(id, MakeRequest(id, workloads[static_cast<size_t>(id - 1)], 1.5));
    schedulers[0].EnsureProbes(requests.at(id));
  }
  int differing_orders = 0;
  for (int round = 0; round < 2; ++round) {
    for (const MachineScheduler& scheduler : schedulers) {
      ASSERT_TRUE(ViewsMatchAFreshRanking(scheduler, registry_, requests));
    }
  }
  for (const auto& [id, request] : requests) {
    differing_orders +=
        schedulers[0].BuildRankedView(request).order !=
                schedulers[2].BuildRankedView(request).order
            ? 1
            : 0;
  }
  // The wide slack really ranks differently, so sharing one view across
  // the three would have been wrong.
  EXPECT_GT(differing_orders, 0);
  // Occupancy does not enter the view: a half-full machine reads the same
  // one as an empty machine with the same inputs.
  MachineScheduler busy = MakeScheduler();
  ASSERT_TRUE(busy.Submit(MakeRequest(9, "gcc", 0.5), 0.0).admitted);
  ASSERT_TRUE(busy.Submit(MakeRequest(10, "gcc", 0.5), 0.0).admitted);
  for (const auto& [id, request] : requests) {
    EXPECT_EQ(busy.RankedViewFor(request), schedulers[0].BuildRankedView(request));
  }
}

TEST_F(SchedulerTest, AnUpgradeAloneMovesTheTenantGeneration) {
  // Inside a Step an upgrade rides along with the departure that freed its
  // threads, whose own bump already moves the generation. This drives the
  // one window where a re-place is the only change: capacity freed without
  // a re-placement pass, then a queued container's departure runs one.
  MachineScheduler scheduler = MakeScheduler();
  const MultiTenantModel multi(topo_, 0.01, 3);
  for (int id = 1; id <= 3; ++id) {
    ASSERT_TRUE(scheduler.Submit(MakeRequest(id, "gcc", 0.5), 0.0).admitted);
  }
  const ScheduleOutcome crowded =
      scheduler.Submit(MakeRequest(9, "streamcluster", 1.1), 1.0);
  ASSERT_TRUE(crowded.admitted);
  ASSERT_FALSE(crowded.meets_goal);
  ASSERT_FALSE(scheduler.Submit(MakeRequest(10, "gcc", 0.5), 1.5).admitted);
  scheduler.Depart(1, 2.0, /*forget_probes=*/true, /*replace=*/false);

  TenantSnapshotCache cache(1);
  cache.Get(0, scheduler, multi);
  const uint64_t generation = scheduler.TenantGeneration();
  scheduler.Depart(10, 3.0);  // queued: frees nothing, but its pass upgrades 9
  ASSERT_EQ(scheduler.stats().upgrades, 1);
  EXPECT_NE(scheduler.TenantGeneration(), generation);
  EXPECT_EQ(cache.Get(0, scheduler, multi), scheduler.SnapshotPerformance(multi));
}

TEST(SchedulerZen, SplitL3LifecyclePreservesClassStructure) {
  const Topology zen = AmdZenLike();
  const ImportantPlacementSet ips = GenerateImportantPlacements(zen, 16, false);
  PerformanceModel sim(zen, 0.01, 3);
  const TrainedPerfModel model = TrainSmallModel(ips, sim, /*baseline_id=*/1);
  ModelRegistry registry;
  registry.Register(zen.name(), 16, model);

  SchedulerConfig config;
  config.baseline_id = 1;
  config.use_interconnect_concern = false;
  MachineScheduler scheduler(zen, sim, &registry, config);
  scheduler.ProvidePlacements(ips);

  const auto make_request = [&](int id, const char* workload) {
    ContainerRequest request;
    request.id = id;
    request.workload = PaperWorkload(workload);
    request.workload.name += "#" + std::to_string(id);
    request.vcpus = 16;
    request.goal_fraction = 0.8;
    return request;
  };

  // Two 16-vCPU containers fill the 32-thread machine.
  const ScheduleOutcome first = scheduler.Submit(make_request(1, "canneal"), 0.0);
  const ScheduleOutcome second = scheduler.Submit(make_request(2, "gcc"), 1.0);
  ASSERT_TRUE(first.admitted);
  ASSERT_TRUE(second.admitted);
  std::set<int> threads(first.placement.hw_threads.begin(),
                        first.placement.hw_threads.end());
  for (int t : second.placement.hw_threads) {
    EXPECT_TRUE(threads.insert(t).second) << "thread " << t << " double-booked";
  }
  EXPECT_EQ(scheduler.occupancy().FreeThreadCount(), 0);

  // Occupancy-constrained realization preserved each class's split-L3
  // structure: the realized CCX (L3 group) count matches the class score.
  for (const ScheduleOutcome* outcome : {&first, &second}) {
    const ImportantPlacement& ip = ips.ById(outcome->placement_id);
    const ScoreVector score = ScoreOf(outcome->placement, zen);
    EXPECT_EQ(score.l3_score, ip.l3_score);
    EXPECT_EQ(score.mem_score, ip.NodeCount());
    EXPECT_EQ(score.l2_score, ip.l2_score);
  }

  // Third container queues, then is re-placed on departure with its cached
  // probes — the full arrival -> probe -> place -> depart -> re-place loop
  // on a split-L3 machine.
  const ScheduleOutcome queued = scheduler.Submit(make_request(3, "streamcluster"), 1.0);
  EXPECT_FALSE(queued.admitted);
  const int probes_before = scheduler.stats().probe_runs;
  const std::vector<ScheduleOutcome> replaced = scheduler.Depart(1, 2.0);
  ASSERT_GE(replaced.size(), 1u);
  EXPECT_EQ(replaced[0].container_id, 3);
  EXPECT_TRUE(replaced[0].admitted);
  EXPECT_TRUE(replaced[0].reused_cached_probes);
  EXPECT_EQ(scheduler.stats().probe_runs, probes_before);
  const ScoreVector score = ScoreOf(replaced[0].placement, zen);
  EXPECT_EQ(score.l3_score, ips.ById(replaced[0].placement_id).l3_score);
}

TEST(OccupancyMap, AcquireReleaseAndFreeCapacityQueries) {
  const Topology amd = AmdOpteron6272();
  OccupancyMap occ(amd);
  EXPECT_EQ(occ.FreeThreadCount(), amd.NumHwThreads());
  EXPECT_EQ(occ.FullyFreeNodes().size(), 8u);

  Placement p;
  p.hw_threads = amd.HwThreadsOnNode(2);
  occ.Acquire(7, p);
  EXPECT_EQ(occ.BusyThreadCount(), amd.NodeCapacity());
  EXPECT_EQ(occ.FreeThreadsOnNode(2), 0);
  EXPECT_EQ(occ.FreeThreadsOnNode(3), amd.NodeCapacity());
  EXPECT_EQ(occ.FullyFreeNodes().size(), 7u);
  EXPECT_EQ(occ.OwnerOf(p.hw_threads[0]), 7);
  EXPECT_EQ(occ.NumContainers(), 1);

  // Double-booking is rejected and leaves the map unchanged.
  Placement overlap;
  overlap.hw_threads = {p.hw_threads[0]};
  EXPECT_THROW(occ.Acquire(8, overlap), std::logic_error);
  EXPECT_EQ(occ.BusyThreadCount(), amd.NodeCapacity());

  EXPECT_EQ(occ.Release(7), amd.NodeCapacity());
  EXPECT_EQ(occ.FreeThreadCount(), amd.NumHwThreads());
  EXPECT_EQ(occ.Release(7), 0);
}

TEST(OccupancyMap, RealizeAnywhereFreeShortCutKeepsTheBalanceCheckReachable) {
  const Topology amd = AmdOpteron6272();
  const ImportantPlacementSet ips = GenerateImportantPlacements(amd, 16, true);
  const ImportantPlacement* two_node = nullptr;
  for (const ImportantPlacement& ip : ips.placements) {
    if (ip.NodeCount() == 2) {
      two_node = &ip;
      break;
    }
  }
  ASSERT_NE(two_node, nullptr);
  // Seven free threads on each of nodes 0 and 1, none elsewhere.
  OccupancyMap occ(amd);
  Placement busy;
  for (int node = 0; node < amd.num_nodes(); ++node) {
    const std::vector<int> threads = amd.HwThreadsOnNode(node);
    busy.hw_threads.insert(busy.hw_threads.end(), threads.begin() + (node < 2 ? 7 : 0),
                           threads.end());
  }
  occ.Acquire(1, busy);
  ASSERT_EQ(occ.FreeThreadCount(), 14);
  // A balanced request larger than the free capacity never fits.
  EXPECT_FALSE(RealizeAnywhereFree(*two_node, amd, 16, occ).has_value());
  // An unbalanced one passes the per-node pre-filter on {0, 1} and still
  // fails the balance check, short cut or not.
  EXPECT_THROW(RealizeAnywhereFree(*two_node, amd, 15, occ), std::logic_error);
}

TEST(Trace, PoissonTraceIsWellFormed) {
  TraceConfig config;
  config.num_containers = 20;
  Rng rng(11);
  const EventStream trace = GeneratePoissonTrace(config, rng);
  ASSERT_EQ(trace.size(), 40u);
  double last = 0.0;
  std::set<int> arrived;
  std::set<int> departed;
  std::set<std::string> names;
  for (const FleetEvent& event : trace) {
    EXPECT_GE(event.time_seconds, last);
    last = event.time_seconds;
    if (const ContainerArrival* arrival = event.arrival()) {
      EXPECT_TRUE(arrived.insert(arrival->container_id).second);
      EXPECT_TRUE(names.insert(arrival->workload.name).second)
          << "duplicate workload name " << arrival->workload.name;
      EXPECT_EQ(arrival->vcpus, config.vcpus);
    } else {
      const ContainerDeparture* departure = event.departure();
      ASSERT_NE(departure, nullptr);
      EXPECT_TRUE(arrived.count(departure->container_id))
          << "departure before arrival for " << departure->container_id;
      EXPECT_TRUE(departed.insert(departure->container_id).second);
    }
  }
  EXPECT_EQ(arrived.size(), 20u);
  EXPECT_EQ(departed.size(), 20u);
}

}  // namespace
}  // namespace numaplace
