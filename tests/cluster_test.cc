// Tests for the fleet layer (src/cluster): dispatch policy registry and
// built-ins, probe sharing across machines of one topology group, and the
// cross-machine RebalancePass — including the invariant that no committed
// move's predicted gain is below its modeled migration + network cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/capacity_index.h"
#include "src/cluster/dispatch.h"
#include "src/cluster/fleet.h"
#include "src/util/json.h"
#include "src/model/pipeline.h"
#include "src/scheduler/scheduler.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/synth.h"
#include "src/workloads/trace.h"

namespace numaplace {
namespace {

// One trained 16-vCPU model per topology, shared by every test in the binary
// (training is the expensive part; the fleets themselves are cheap).
struct TrainedAssets {
  Topology topo;
  ImportantPlacementSet ips;
  PerformanceModel sim;
  TrainedPerfModel model;

  TrainedAssets(Topology machine, int baseline_id)
      : topo(std::move(machine)),
        ips(GenerateImportantPlacements(topo, 16, true)),
        sim(topo, 0.01, 3) {
    ModelPipeline pipeline(ips, sim, baseline_id, /*seed=*/23);
    PerfModelConfig config;
    config.forest.num_trees = 60;
    config.cv_trees = 25;
    config.runs_per_workload = 2;
    Rng rng(7);
    model = pipeline.TrainPerfAuto(SampleTrainingWorkloads(36, rng), config);
  }
};

const TrainedAssets& Assets() {
  static const TrainedAssets* assets = new TrainedAssets(AmdOpteron6272(), 1);
  return *assets;
}

// The Intel group's model, for mixed fleets (baseline #2, as the CLI uses).
const TrainedAssets& IntelAssets() {
  static const TrainedAssets* assets = new TrainedAssets(IntelXeonE74830v3(), 2);
  return *assets;
}

MachineSpec AmdSpec(const std::string& policy) {
  MachineSpec spec(AmdOpteron6272());
  spec.scheduler.policy = policy;
  spec.scheduler.baseline_id = 1;
  return spec;
}

FleetScheduler MakeAmdFleet(int num_machines, const std::string& machine_policy,
                            FleetConfig config) {
  const TrainedAssets& assets = Assets();
  std::vector<MachineSpec> specs(static_cast<size_t>(num_machines),
                                 AmdSpec(machine_policy));
  FleetScheduler fleet(std::move(specs), config);
  fleet.GroupRegistry(assets.topo.name()).Register(assets.topo.name(), 16, assets.model);
  fleet.ProvidePlacements(assets.topo.name(), assets.ips);
  return fleet;
}

// As MakeAmdFleet, but with an explicitly configured sharded dispatcher
// through the injecting constructor.
FleetScheduler MakeShardedAmdFleet(int num_machines, const std::string& machine_policy,
                                   FleetConfig config,
                                   const ShardedDispatchConfig& sharded) {
  const TrainedAssets& assets = Assets();
  std::vector<MachineSpec> specs(static_cast<size_t>(num_machines),
                                 AmdSpec(machine_policy));
  config.dispatch = "sharded";
  FleetScheduler fleet(std::move(specs), config,
                       std::make_unique<ShardedDispatchPolicy>(sharded));
  fleet.GroupRegistry(assets.topo.name()).Register(assets.topo.name(), 16, assets.model);
  fleet.ProvidePlacements(assets.topo.name(), assets.ips);
  return fleet;
}

const ShardedDispatchPolicy& ShardedOf(const FleetScheduler& fleet) {
  return dynamic_cast<const ShardedDispatchPolicy&>(fleet.dispatch());
}

ContainerRequest MakeRequest(int id, const std::string& workload, double goal) {
  ContainerRequest request;
  request.id = id;
  request.workload = PaperWorkload(workload);
  request.workload.name += "#" + std::to_string(id);
  request.vcpus = 16;
  request.goal_fraction = goal;
  return request;
}

int TotalProbeRuns(const FleetScheduler& fleet) {
  int total = 0;
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    total += fleet.machine(m).stats().probe_runs;
  }
  return total;
}

TEST(DispatchRegistry, BuiltInsAreRegisteredAndMisuseThrows) {
  const std::vector<std::string> names = DispatchRegistry::Global().Names();
  for (const char* builtin : {"least-loaded", "round-robin", "best-predicted", "sharded"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end()) << builtin;
    EXPECT_TRUE(DispatchRegistry::Global().Has(builtin));
  }
  EXPECT_THROW(MakeDispatchPolicy("no-such-dispatch"), std::logic_error);
  EXPECT_THROW(DispatchRegistry::Global().Register(
                   "round-robin",
                   [] { return std::unique_ptr<DispatchPolicy>(new RoundRobinDispatch()); }),
               std::logic_error);
  EXPECT_FALSE(MakeDispatchPolicy("round-robin")->NeedsPreviews());
  EXPECT_TRUE(MakeDispatchPolicy("best-predicted")->NeedsPreviews());
  // The registry default: auto cell count, d=2, previewing inner ranking.
  EXPECT_TRUE(MakeDispatchPolicy("sharded")->NeedsPreviews());
}

TEST(DispatchRegistry, UnknownDispatchNameReportsTheCatalog) {
  // The error path a mistyped FleetConfig.dispatch hits: the exception names
  // the offender and lists every registered policy, so the message alone is
  // enough to fix the config.
  std::vector<MachineSpec> specs{AmdSpec("first-fit")};
  FleetConfig config;
  config.dispatch = "no-such-dispatch";
  try {
    FleetScheduler fleet(std::move(specs), config);
    FAIL() << "an unknown dispatch name must throw";
  } catch (const std::logic_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-dispatch"), std::string::npos) << message;
    for (const char* builtin :
         {"least-loaded", "round-robin", "best-predicted", "sharded"}) {
      EXPECT_NE(message.find(builtin), std::string::npos) << message;
    }
  }
}

TEST(ShardedDispatch, ConfigValidationAndAutoCellLayout) {
  ShardedDispatchConfig no_probes;
  no_probes.probes = 0;
  EXPECT_THROW(ShardedDispatchPolicy{no_probes}, std::logic_error);
  ShardedDispatchConfig nested;
  nested.inner = "sharded";
  EXPECT_THROW(ShardedDispatchPolicy{nested}, std::logic_error);
  ShardedDispatchConfig unknown_inner;
  unknown_inner.inner = "no-such-dispatch";
  EXPECT_THROW(ShardedDispatchPolicy{unknown_inner}, std::logic_error);

  // Auto layout: round(sqrt(4)) = 2 cells, machine ids interleaved.
  ShardedDispatchConfig auto_cells;
  auto_cells.inner = "least-loaded";
  FleetScheduler fleet = MakeShardedAmdFleet(4, "first-fit", {}, auto_cells);
  const ShardedDispatchPolicy& sharded = ShardedOf(fleet);
  EXPECT_FALSE(sharded.NeedsPreviews());  // inner least-loaded previews nothing
  EXPECT_EQ(sharded.NumCells(), 2);
  EXPECT_EQ(sharded.CellOf(0), 0);
  EXPECT_EQ(sharded.CellOf(1), 1);
  EXPECT_EQ(sharded.CellOf(2), 0);
  EXPECT_EQ(sharded.CellOf(3), 1);
}

TEST(ShardedDispatch, CellMembershipSurvivesFailRejoinCycle) {
  // 4 machines in 2 cells ({0,2} and {1,3}); d=2 samples both cells on
  // every decision, so only availability — never cell assignment — decides
  // who receives dispatches.
  ShardedDispatchConfig sharded_config;
  sharded_config.cells = 2;
  sharded_config.probes = 2;
  sharded_config.inner = "least-loaded";
  FleetScheduler fleet = MakeShardedAmdFleet(4, "first-fit", {}, sharded_config);
  const ShardedDispatchPolicy& sharded = ShardedOf(fleet);
  ASSERT_EQ(sharded.NumCells(), 2);
  const std::vector<int> cells_before = {sharded.CellOf(0), sharded.CellOf(1),
                                         sharded.CellOf(2), sharded.CellOf(3)};

  fleet.Fail(0, 1.0);
  // The failed machine keeps its cell (membership is static; availability is
  // read live from the fleet's view) but receives no dispatches.
  EXPECT_EQ(sharded.CellOf(0), cells_before[0]);
  for (int id = 1; id <= 6; ++id) {
    const FleetOutcome outcome = fleet.Submit(MakeRequest(id, "gcc", 0.5), 1.0 + id);
    ASSERT_TRUE(outcome.outcome.admitted) << "container " << id;
    EXPECT_NE(outcome.machine_id, 0) << "container " << id;
  }

  fleet.Rejoin(0, 10.0);
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(sharded.CellOf(m), cells_before[static_cast<size_t>(m)]) << m;
  }
  // The rejoined machine is the emptiest of its (always-sampled) cell: the
  // next dispatch lands on it again.
  const FleetOutcome back = fleet.Submit(MakeRequest(7, "gcc", 0.5), 11.0);
  EXPECT_EQ(back.machine_id, 0);
}

TEST(ShardedDispatch, PreselectLimitsPreviewsToSampledCells) {
  // 4 single-machine cells, d=2: a previewing inner dispatcher runs at most
  // 2 admission previews per decision instead of the flat walk's 4.
  ShardedDispatchConfig sharded_config;
  sharded_config.cells = 4;
  sharded_config.probes = 2;
  FleetConfig config;
  FleetScheduler fleet = MakeShardedAmdFleet(4, "model", config, sharded_config);
  const ShardedDispatchPolicy& sharded = ShardedOf(fleet);
  ASSERT_TRUE(sharded.NeedsPreviews());

  const FleetOutcome outcome = fleet.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  ASSERT_TRUE(outcome.outcome.admitted);
  EXPECT_GT(fleet.stats().dispatch_previews, 0);
  EXPECT_LE(fleet.stats().dispatch_previews, 2);
  // Probes are still paid once per topology group, previews or not.
  EXPECT_EQ(fleet.stats().fleet_probe_runs, 2);

  // The decision stayed within the sampled cells.
  ASSERT_EQ(sharded.LastSampledCells().size(), 2u);
  const std::vector<int>& sampled = sharded.LastSampledCells();
  EXPECT_NE(std::find(sampled.begin(), sampled.end(),
                      sharded.CellOf(outcome.machine_id)),
            sampled.end());
}

TEST(ShardedDispatch, AllMachinesDownParksFleetWideAndRejoinLands) {
  ShardedDispatchConfig sharded_config;
  sharded_config.cells = 2;
  sharded_config.probes = 1;
  sharded_config.inner = "least-loaded";
  FleetScheduler fleet = MakeShardedAmdFleet(2, "first-fit", {}, sharded_config);
  fleet.Fail(0, 1.0);
  fleet.Fail(1, 2.0);

  // No eligible cell: the preselection punts to the fleet, which parks the
  // container fleet-wide exactly like the flat dispatchers.
  const FleetOutcome parked = fleet.Submit(MakeRequest(1, "gcc", 0.5), 3.0);
  EXPECT_FALSE(parked.outcome.admitted);
  EXPECT_EQ(parked.machine_id, kNoMachine);
  ASSERT_EQ(fleet.UnplacedIds().size(), 1u);

  // Rejoin re-dispatches the waiter through the sharded policy onto the
  // only up machine.
  fleet.Rejoin(1, 5.0);
  EXPECT_TRUE(fleet.UnplacedIds().empty());
  EXPECT_EQ(fleet.MachineOf(1), 1);
}

TEST(FleetDispatch, RoundRobinCyclesMachines) {
  FleetConfig config;
  config.dispatch = "round-robin";
  FleetScheduler fleet = MakeAmdFleet(3, "first-fit", config);
  for (int id = 1; id <= 6; ++id) {
    const FleetOutcome outcome = fleet.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0);
    EXPECT_TRUE(outcome.outcome.admitted);
    EXPECT_EQ(outcome.machine_id, (id - 1) % 3) << "container " << id;
    EXPECT_EQ(fleet.MachineOf(id), (id - 1) % 3);
  }
  EXPECT_EQ(fleet.stats().dispatched_immediately, 6);
}

TEST(FleetDispatch, RoundRobinCycleSurvivesTooSmallMachineFiltering) {
  // Machine 0 (Zen, 32 threads) cannot fit a 48-vCPU container; the fleet
  // filters it from that decision's candidates. The cycle must keep running
  // over stable machine ids, not over the shrunken candidate list.
  std::vector<MachineSpec> specs;
  specs.emplace_back(AmdZenLike());
  specs.emplace_back(AmdOpteron6272());
  specs.emplace_back(AmdOpteron6272());
  for (MachineSpec& spec : specs) {
    spec.scheduler.policy = "first-fit";
  }
  FleetConfig config;
  config.dispatch = "round-robin";
  FleetScheduler fleet(specs, config);

  const auto request = [](int id, int vcpus) {
    ContainerRequest r = MakeRequest(id, "gcc", 0.5);
    r.vcpus = vcpus;
    return r;
  };
  EXPECT_EQ(fleet.Submit(request(1, 16), 0.0).machine_id, 0);
  // 48 vCPUs: machine 0 is filtered out; the cursor (at machine 1) is
  // unaffected by the filtering.
  EXPECT_EQ(fleet.Submit(request(2, 48), 1.0).machine_id, 1);
  EXPECT_EQ(fleet.Submit(request(3, 16), 2.0).machine_id, 2);
  EXPECT_EQ(fleet.Submit(request(4, 16), 3.0).machine_id, 0);  // wrapped
}

TEST(FleetDispatch, LeastLoadedPicksTheEmptierMachine) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "first-fit", config);
  // Ties break toward machine 0, then dispatch alternates with load.
  EXPECT_EQ(fleet.Submit(MakeRequest(1, "gcc", 0.5), 0.0).machine_id, 0);
  EXPECT_EQ(fleet.Submit(MakeRequest(2, "gcc", 0.5), 1.0).machine_id, 1);
  EXPECT_EQ(fleet.Submit(MakeRequest(3, "gcc", 0.5), 2.0).machine_id, 0);
  EXPECT_EQ(fleet.Submit(MakeRequest(4, "gcc", 0.5), 3.0).machine_id, 1);
}

TEST(FleetDispatch, BestPredictedPaysProbesOncePerTopologyGroup) {
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  const FleetOutcome outcome = fleet.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  ASSERT_TRUE(outcome.outcome.admitted);

  // One probe pair total, run by the group's probe machine; the dispatched
  // machine admits from the shared cache.
  EXPECT_EQ(fleet.stats().fleet_probe_runs, 2);
  EXPECT_GT(fleet.stats().fleet_probe_seconds, 0.0);
  EXPECT_EQ(TotalProbeRuns(fleet), 2);
  EXPECT_EQ(fleet.machine(outcome.machine_id).stats().cached_probe_reuses, 1);
  EXPECT_EQ(fleet.GroupRegistry(Assets().topo.name()).NumCachedPredictions(), 1u);

  // A true departure forgets the prediction in every group registry.
  fleet.Depart(1, 5.0);
  EXPECT_EQ(fleet.GroupRegistry(Assets().topo.name()).NumCachedPredictions(), 0u);
  EXPECT_EQ(fleet.MachineOf(1), -1);
}

TEST(FleetDispatch, SameInstantSubmissionsOnTwinMachinesHitTheSharedProbeCache) {
  // Two same-topology machines previewing two arrivals in one instant all
  // read and write their group's one ModelRegistry prediction cache. Each
  // container pays its probe pair exactly once, fleet-wide; every preview
  // beyond the first is a cache hit.
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  const FleetOutcome first = fleet.Submit(MakeRequest(1, "gcc", 0.9), 0.0);
  const FleetOutcome second = fleet.Submit(MakeRequest(2, "canneal", 0.9), 0.0);
  ASSERT_TRUE(first.outcome.admitted);
  ASSERT_TRUE(second.outcome.admitted);

  // One probe pair per container (never per machine), and one cached
  // prediction per container in the shared group registry.
  EXPECT_EQ(fleet.stats().fleet_probe_runs, 4);
  EXPECT_EQ(TotalProbeRuns(fleet), 4);
  const ModelRegistry& registry = fleet.GroupRegistry(Assets().topo.name());
  EXPECT_EQ(registry.NumCachedPredictions(), 2u);
  EXPECT_NE(registry.FindPrediction(1), nullptr);
  EXPECT_NE(registry.FindPrediction(2), nullptr);
  // The second machine previews (and the winner admits) from the cache.
  int reuses = 0;
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    reuses += fleet.machine(m).stats().cached_probe_reuses;
  }
  EXPECT_GE(reuses, 2);
}

TEST(FleetDispatch, BestPredictedPrefersTheMachineWithHigherMargin) {
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // Crowd machine 0 (six of eight nodes) behind the fleet's back so only
  // cramped classes are realizable there.
  for (int id = 101; id <= 103; ++id) {
    ASSERT_TRUE(fleet.machine(0).Submit(MakeRequest(id, "gcc", 0.5), 0.0).admitted);
  }
  // A bandwidth-hungry container predicts a far better margin on the empty
  // machine 1 than on machine 0's two remaining nodes.
  const FleetOutcome outcome = fleet.Submit(MakeRequest(1, "streamcluster", 1.0), 1.0);
  ASSERT_TRUE(outcome.outcome.admitted);
  EXPECT_EQ(outcome.machine_id, 1);
  EXPECT_TRUE(outcome.outcome.reused_cached_probes);  // dispatch probe paid already
}

TEST(FleetRebalance, QueuedContainerMovesToTheMachineThatFreedCapacity) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // Eight easy containers fill both machines (four 2-node placements each).
  for (int id = 1; id <= 8; ++id) {
    ASSERT_TRUE(fleet.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0).outcome.admitted);
  }
  const FleetOutcome queued = fleet.Submit(MakeRequest(9, "gcc", 0.5), 10.0);
  EXPECT_FALSE(queued.outcome.admitted);
  EXPECT_EQ(fleet.stats().queued, 1);
  const int queue_machine = queued.machine_id;
  const int other_machine = 1 - queue_machine;

  // Depart a container on the *other* machine: its local re-placement pass
  // cannot see the queue, so the fleet RebalancePass must move the waiter.
  int victim = -1;
  for (int id = 1; id <= 8; ++id) {
    if (fleet.MachineOf(id) == other_machine) {
      victim = id;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  OutcomeRecorder recorder;
  fleet.Depart(victim, 20.0, &recorder);

  ASSERT_EQ(fleet.stats().rebalance_moves, 1);
  const RebalanceMove& move = fleet.rebalance_log().front();
  EXPECT_EQ(move.container_id, 9);
  EXPECT_TRUE(move.was_queued);
  EXPECT_EQ(move.reason, RebalanceMove::Reason::kRebalance);
  EXPECT_EQ(move.from_machine, queue_machine);
  EXPECT_EQ(move.to_machine, other_machine);
  EXPECT_GT(move.predicted_gain_ops, move.modeled_cost_ops);
  // A queued container never ran: no memory exists, so the move is free.
  EXPECT_DOUBLE_EQ(move.move_seconds, 0.0);
  EXPECT_DOUBLE_EQ(move.modeled_cost_ops, 0.0);
  EXPECT_EQ(fleet.MachineOf(9), other_machine);
  EXPECT_EQ(fleet.stats().queue_admissions, 1);
  EXPECT_DOUBLE_EQ(fleet.stats().queue_wait_seconds, 10.0);
  // The move rides the probe cache — no fleet-wide re-probing.
  EXPECT_EQ(TotalProbeRuns(fleet), 18);  // nine probe pairs at submission, none since
  // The observer saw both the landing admission and the move itself.
  bool moved_reported = false;
  for (const FleetOutcome& outcome : recorder.outcomes) {
    if (outcome.outcome.container_id == 9) {
      moved_reported = outcome.outcome.admitted && outcome.machine_id == other_machine;
    }
  }
  EXPECT_TRUE(moved_reported);
  ASSERT_EQ(recorder.moves.size(), 1u);
  EXPECT_EQ(recorder.moves[0].container_id, 9);

  // The moved container departs cleanly from its new machine.
  fleet.Depart(9, 30.0);
  EXPECT_EQ(fleet.MachineOf(9), -1);
}

TEST(FleetRebalance, DegradedContainerMovesOnlyWhenGainBeatsModeledCost) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  config.rebalance_min_gain = 0.05;
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // Least-loaded alternates: machine 0 gets {1,3,5,7}, machine 1 {2,4,6,8}.
  // Container 7 is a bandwidth-bound workload with an unreachable goal,
  // squeezed into machine 0's last two nodes — degraded.
  for (int id = 1; id <= 6; ++id) {
    ASSERT_TRUE(fleet.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0).outcome.admitted);
  }
  const FleetOutcome crowded = fleet.Submit(MakeRequest(7, "streamcluster", 1.1), 7.0);
  ASSERT_TRUE(crowded.outcome.admitted);
  ASSERT_EQ(crowded.machine_id, 0);
  ASSERT_FALSE(crowded.outcome.meets_goal);
  const double crowded_predicted = crowded.outcome.predicted_abs_throughput;
  ASSERT_TRUE(fleet.Submit(MakeRequest(8, "gcc", 0.5), 8.0).outcome.admitted);

  // Two free nodes on machine 1 only fit the class it already has — the
  // gain gate holds the container in place.
  fleet.Depart(2, 10.0);
  EXPECT_EQ(fleet.stats().rebalance_moves, 0);
  EXPECT_EQ(fleet.MachineOf(7), 0);

  // Four free nodes make a strictly better class realizable over there; the
  // predicted gain now clears the migration + network cost.
  fleet.Depart(4, 20.0);
  ASSERT_EQ(fleet.stats().rebalance_moves, 1);
  const RebalanceMove& move = fleet.rebalance_log().front();
  EXPECT_EQ(move.container_id, 7);
  EXPECT_FALSE(move.was_queued);
  EXPECT_EQ(move.from_machine, 0);
  EXPECT_EQ(move.to_machine, 1);
  EXPECT_GT(move.predicted_gain_ops, move.modeled_cost_ops);
  // A live incumbent pays the migration estimate plus the network copy.
  EXPECT_GT(move.network_seconds, 0.0);
  EXPECT_GT(move.move_seconds, move.network_seconds);
  EXPECT_GT(move.modeled_cost_ops, 0.0);
  EXPECT_EQ(fleet.MachineOf(7), 1);
  const ManagedContainer* moved = fleet.machine(1).Find(7);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->state, ContainerState::kRunning);
  EXPECT_GT(moved->predicted_abs_throughput,
            crowded_predicted * (1.0 + config.rebalance_min_gain));
}

TEST(FleetRebalance, TraceReplayDrainsAndEveryMoveHasPositiveSurplus) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);

  TraceConfig trace_config;
  trace_config.num_containers = 6;
  trace_config.vcpus = 16;
  trace_config.goal_fraction = 1.0;
  trace_config.mean_interarrival_seconds = 90.0;
  trace_config.mean_lifetime_seconds = 360.0;
  Rng rng(13);
  const EventStream trace = GenerateFleetTrace(trace_config, 2, rng);
  ASSERT_EQ(trace.size(), 24u);

  const FleetReport report = fleet.ReplayWithEvaluation(trace);
  EXPECT_EQ(fleet.stats().submitted, 12);
  EXPECT_GT(report.decisions, 0);
  EXPECT_GT(report.goal_attainment, 0.0);
  EXPECT_LE(report.goal_attainment, 1.0);
  EXPECT_GE(report.utilization_max, report.utilization_min);

  // The §7-cost gate is an invariant of the pass, not a lucky trace: every
  // committed move carried a strictly positive modeled surplus.
  for (const RebalanceMove& move : fleet.rebalance_log()) {
    EXPECT_GT(move.predicted_gain_ops, move.modeled_cost_ops)
        << "container " << move.container_id << " moved " << move.from_machine
        << " -> " << move.to_machine;
    EXPECT_GE(move.move_seconds, move.network_seconds);
  }

  // Every container departed: machines drain and all group caches empty.
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    EXPECT_TRUE(fleet.machine(m).RunningIds().empty()) << "machine " << m;
    EXPECT_TRUE(fleet.machine(m).PendingIds().empty()) << "machine " << m;
    EXPECT_EQ(fleet.machine(m).occupancy().BusyThreadCount(), 0) << "machine " << m;
  }
  for (const std::string& group : fleet.GroupNames()) {
    EXPECT_EQ(fleet.GroupRegistry(group).NumCachedPredictions(), 0u) << group;
  }
  for (int id = 1; id <= 12; ++id) {
    EXPECT_EQ(fleet.MachineOf(id), -1) << "container " << id;
  }
}

TEST(FleetEvents, FailEvacuatesStateLostAndRejoinRestoresDispatch) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // Least-loaded alternates: container 1 on machine 0, container 2 on 1.
  ASSERT_EQ(fleet.Submit(MakeRequest(1, "gcc", 0.5), 1.0).machine_id, 0);
  ASSERT_EQ(fleet.Submit(MakeRequest(2, "gcc", 0.5), 2.0).machine_id, 1);

  OutcomeRecorder recorder;
  fleet.Fail(0, 10.0, &recorder);

  EXPECT_EQ(fleet.availability(0), MachineAvailability::kFailed);
  EXPECT_EQ(fleet.availability(1), MachineAvailability::kUp);
  // Container 1 restarted on the survivor; the failed machine is empty.
  EXPECT_EQ(fleet.MachineOf(1), 1);
  EXPECT_TRUE(fleet.machine(0).RunningIds().empty());
  EXPECT_TRUE(fleet.machine(0).PendingIds().empty());
  EXPECT_EQ(fleet.machine(1).RunningIds().size(), 2u);

  // Fail = state lost: nothing to migrate or copy, the move itself is free,
  // and it still clears the gain-beats-cost gate.
  ASSERT_EQ(fleet.stats().evacuation_moves, 1);
  ASSERT_EQ(fleet.rebalance_log().size(), 1u);
  const RebalanceMove& move = fleet.rebalance_log().front();
  EXPECT_EQ(move.container_id, 1);
  EXPECT_EQ(move.reason, RebalanceMove::Reason::kFailover);
  EXPECT_FALSE(move.was_queued);
  EXPECT_DOUBLE_EQ(move.move_seconds, 0.0);
  EXPECT_DOUBLE_EQ(move.modeled_cost_ops, 0.0);
  EXPECT_GT(move.predicted_gain_ops, move.modeled_cost_ops);

  ASSERT_EQ(fleet.evacuation_log().size(), 1u);
  const EvacuationReport& report = fleet.evacuation_log().front();
  EXPECT_EQ(report.machine_id, 0);
  EXPECT_EQ(report.reason, MachineAvailability::kFailed);
  EXPECT_EQ(report.containers, 1);
  EXPECT_EQ(report.rehomed, 1);
  EXPECT_EQ(report.requeued, 0);
  EXPECT_DOUBLE_EQ(report.last_landing_seconds, 0.0);

  // The observer saw the availability flip, the move and the evacuation.
  ASSERT_EQ(recorder.availability_changes.size(), 1u);
  EXPECT_EQ(recorder.availability_changes[0].first, 0);
  EXPECT_EQ(recorder.availability_changes[0].second, MachineAvailability::kFailed);
  EXPECT_EQ(recorder.moves.size(), 1u);
  EXPECT_EQ(recorder.evacuations.size(), 1u);

  // A failed machine receives no dispatches...
  EXPECT_EQ(fleet.Submit(MakeRequest(3, "gcc", 0.5), 11.0).machine_id, 1);
  // ...and failing it twice, or draining it, is API misuse.
  EXPECT_THROW(fleet.Fail(0, 12.0), std::logic_error);
  EXPECT_THROW(fleet.Drain(0, 12.0), std::logic_error);

  // Rejoin restores it to dispatch (least-loaded now prefers the empty box).
  fleet.Rejoin(0, 20.0);
  EXPECT_EQ(fleet.availability(0), MachineAvailability::kUp);
  EXPECT_THROW(fleet.Rejoin(0, 21.0), std::logic_error);
  EXPECT_EQ(fleet.Submit(MakeRequest(4, "gcc", 0.5), 22.0).machine_id, 0);
}

TEST(FleetEvents, DrainMovesLiveContainersUnderTheMigrationCostModel) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // postgres-tpch carries ~27 GB of memory: the graceful move must charge a
  // visible migration + network-copy cost.
  ASSERT_EQ(fleet.Submit(MakeRequest(1, "postgres-tpch", 0.5), 1.0).machine_id, 0);
  ASSERT_EQ(fleet.Submit(MakeRequest(2, "gcc", 0.5), 2.0).machine_id, 1);

  OutcomeRecorder recorder;
  fleet.Drain(0, 10.0, &recorder);

  EXPECT_EQ(fleet.availability(0), MachineAvailability::kDraining);
  EXPECT_EQ(fleet.MachineOf(1), 1);
  EXPECT_TRUE(fleet.machine(0).RunningIds().empty());

  ASSERT_EQ(fleet.rebalance_log().size(), 1u);
  const RebalanceMove& move = fleet.rebalance_log().front();
  EXPECT_EQ(move.reason, RebalanceMove::Reason::kDrain);
  EXPECT_FALSE(move.was_queued);
  // Graceful = the container is alive: §7 migration plus the network copy,
  // and the modeled cost is the rate lost while the move runs — yet the
  // gain (running at all on the survivor) still beats it.
  EXPECT_GT(move.network_seconds, 0.0);
  EXPECT_GT(move.move_seconds, move.network_seconds);
  EXPECT_GT(move.modeled_cost_ops, 0.0);
  EXPECT_GT(move.predicted_gain_ops, move.modeled_cost_ops);

  ASSERT_EQ(fleet.evacuation_log().size(), 1u);
  const EvacuationReport& report = fleet.evacuation_log().front();
  EXPECT_EQ(report.reason, MachineAvailability::kDraining);
  EXPECT_EQ(report.rehomed, 1);
  EXPECT_DOUBLE_EQ(report.last_landing_seconds, move.move_seconds);
  EXPECT_DOUBLE_EQ(report.move_seconds_total, move.move_seconds);

  // Draining a draining machine is misuse; failing it is legal (a machine
  // can die mid-drain) and finds nothing left to evacuate.
  EXPECT_THROW(fleet.Drain(0, 11.0), std::logic_error);
  fleet.Fail(0, 12.0);
  EXPECT_EQ(fleet.availability(0), MachineAvailability::kFailed);
  ASSERT_EQ(fleet.evacuation_log().size(), 2u);
  EXPECT_EQ(fleet.evacuation_log().back().containers, 0);
}

TEST(FleetEvents, FullSurvivorRequeuesEvacueesAndDepartureLandsThem) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // Eight easy containers fill both machines (four 2-node placements each).
  for (int id = 1; id <= 8; ++id) {
    ASSERT_TRUE(fleet.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0).outcome.admitted);
  }

  fleet.Fail(0, 10.0);
  ASSERT_EQ(fleet.evacuation_log().size(), 1u);
  const EvacuationReport& report = fleet.evacuation_log().front();
  EXPECT_EQ(report.containers, 4);
  EXPECT_EQ(report.rehomed, 0);  // the survivor is full
  EXPECT_EQ(report.requeued, 4);
  EXPECT_EQ(fleet.stats().evacuation_requeues, 4);
  // The evacuees now wait in the survivor's queue, not fleet-wide.
  EXPECT_EQ(fleet.machine(1).PendingIds().size(), 4u);
  EXPECT_TRUE(fleet.UnplacedIds().empty());
  for (int id : {1, 3, 5, 7}) {
    EXPECT_EQ(fleet.MachineOf(id), 1) << "container " << id;
  }

  // A departure on the survivor admits one of them through its own
  // re-placement pass.
  fleet.Depart(2, 20.0);
  EXPECT_EQ(fleet.machine(1).PendingIds().size(), 3u);
  EXPECT_GE(fleet.stats().queue_admissions, 1);
}

TEST(FleetEvents, NoAvailableMachineParksArrivalsFleetWideUntilRejoin) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  fleet.Fail(0, 1.0);
  fleet.Fail(1, 2.0);

  OutcomeRecorder recorder;
  const FleetOutcome parked = fleet.Submit(MakeRequest(1, "gcc", 0.5), 3.0, &recorder);
  EXPECT_FALSE(parked.outcome.admitted);
  EXPECT_EQ(parked.machine_id, kNoMachine);
  EXPECT_EQ(fleet.MachineOf(1), kNoMachine);
  ASSERT_EQ(fleet.UnplacedIds().size(), 1u);
  EXPECT_EQ(fleet.UnplacedIds().front(), 1);
  ASSERT_EQ(recorder.outcomes.size(), 1u);
  EXPECT_EQ(recorder.outcomes[0].machine_id, kNoMachine);

  // Fleet-wide waiters can still depart cleanly.
  fleet.Submit(MakeRequest(2, "gcc", 0.5), 4.0);
  EXPECT_EQ(fleet.UnplacedIds().size(), 2u);
  fleet.Depart(1, 5.0);
  ASSERT_EQ(fleet.UnplacedIds().size(), 1u);
  EXPECT_EQ(fleet.UnplacedIds().front(), 2);

  // Rejoin drains the fleet-wide queue onto the returned capacity and the
  // wait is credited to the queue stats.
  fleet.Rejoin(0, 10.0, &recorder);
  EXPECT_TRUE(fleet.UnplacedIds().empty());
  EXPECT_EQ(fleet.MachineOf(2), 0);
  const ManagedContainer* landed = fleet.machine(0).Find(2);
  ASSERT_NE(landed, nullptr);
  EXPECT_EQ(landed->state, ContainerState::kRunning);
  EXPECT_EQ(fleet.stats().queue_admissions, 1);
  EXPECT_DOUBLE_EQ(fleet.stats().queue_wait_seconds, 6.0);  // waited 4.0 -> 10.0
}

TEST(FleetEvents, ReplayWithInjectedFailureKeepsInvariantsAndDrains) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);

  TraceConfig trace_config;
  trace_config.num_containers = 6;
  trace_config.vcpus = 16;
  trace_config.goal_fraction = 1.0;
  trace_config.mean_interarrival_seconds = 90.0;
  trace_config.mean_lifetime_seconds = 360.0;
  Rng rng(13);
  EventStream trace = GenerateFleetTrace(trace_config, 2, rng);
  // Machine 0 fails mid-trace and returns at the three-quarter mark.
  trace = InjectMachineEvents(std::move(trace),
                              {FleetEvent::Fail(0.5 * trace.EndTime(), 0),
                               FleetEvent::Rejoin(0.75 * trace.EndTime(), 0)});

  OutcomeRecorder recorder;
  const FleetReport report = fleet.ReplayWithEvaluation(trace, &recorder);
  EXPECT_EQ(fleet.stats().submitted, 12);
  EXPECT_EQ(fleet.stats().evacuations, 1);
  EXPECT_GT(report.decisions, 0);
  EXPECT_GT(report.goal_attainment, 0.0);
  EXPECT_LE(report.goal_attainment, 1.0);

  // The gain-beats-cost gate holds for every committed move — departure
  // rebalancing and evacuations alike.
  for (const RebalanceMove& move : fleet.rebalance_log()) {
    EXPECT_GT(move.predicted_gain_ops, move.modeled_cost_ops)
        << "container " << move.container_id << " moved " << move.from_machine
        << " -> " << move.to_machine << " (" << ToString(move.reason) << ")";
    EXPECT_GE(move.move_seconds, move.network_seconds);
  }
  // The observer saw exactly the logged moves and evacuation.
  EXPECT_EQ(recorder.moves.size(), fleet.rebalance_log().size());
  EXPECT_EQ(recorder.evacuations.size(), 1u);
  ASSERT_EQ(recorder.availability_changes.size(), 2u);
  EXPECT_EQ(recorder.availability_changes[0].second, MachineAvailability::kFailed);
  EXPECT_EQ(recorder.availability_changes[1].second, MachineAvailability::kUp);

  // Every container departed: machines drain, no fleet-wide waiters remain
  // and all group caches empty.
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    EXPECT_TRUE(fleet.machine(m).RunningIds().empty()) << "machine " << m;
    EXPECT_TRUE(fleet.machine(m).PendingIds().empty()) << "machine " << m;
  }
  EXPECT_TRUE(fleet.UnplacedIds().empty());
  for (const std::string& group : fleet.GroupNames()) {
    EXPECT_EQ(fleet.GroupRegistry(group).NumCachedPredictions(), 0u) << group;
  }
  for (int id = 1; id <= 12; ++id) {
    EXPECT_EQ(fleet.MachineOf(id), kNoMachine) << "container " << id;
  }
}

// Serializes everything deterministic a replay produced — stats, every
// committed move, every evacuation report, every observed outcome — the
// way the CLI's --json does, so "byte-identical output" is checkable with
// a string comparison. Wall-clock timings are the one thing deliberately
// absent: they differ run to run by construction.
std::string ReplayToJson(FleetScheduler& fleet, const EventStream& trace) {
  OutcomeRecorder recorder;
  fleet.Replay(trace, &recorder);
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  const FleetStats& stats = fleet.stats();
  json.Field("submitted", stats.submitted);
  json.Field("dispatched_immediately", stats.dispatched_immediately);
  json.Field("queued", stats.queued);
  json.Field("queue_admissions", stats.queue_admissions);
  json.Field("queue_wait_seconds", stats.queue_wait_seconds);
  json.Field("rebalance_moves", stats.rebalance_moves);
  json.Field("evacuations", stats.evacuations);
  json.Field("evacuation_moves", stats.evacuation_moves);
  json.Field("evacuation_requeues", stats.evacuation_requeues);
  json.Field("cross_machine_move_seconds", stats.cross_machine_move_seconds);
  json.Field("network_copy_seconds", stats.network_copy_seconds);
  json.Field("fleet_probe_runs", stats.fleet_probe_runs);
  json.Field("fleet_probe_seconds", stats.fleet_probe_seconds);
  json.Field("dispatch_previews", stats.dispatch_previews);
  json.Field("dispatch_decisions", stats.dispatch_decisions);
  json.Field("rebalance_previews", stats.rebalance_previews);
  json.Field("rebalance_decisions", stats.rebalance_decisions);
  json.Field("evac_previews", stats.evac_previews);
  json.Field("evac_decisions", stats.evac_decisions);
  json.Field("rebalance_passes", stats.rebalance_passes);
  json.Field("rebalance_passes_skipped", stats.rebalance_passes_skipped);
  json.Key("moves");
  json.BeginArray();
  for (const RebalanceMove& move : fleet.rebalance_log()) {
    json.BeginObject();
    json.Field("container", move.container_id);
    json.Field("from", move.from_machine);
    json.Field("to", move.to_machine);
    json.Field("was_queued", move.was_queued);
    json.Field("reason", ToString(move.reason));
    json.Field("gain_ops", move.predicted_gain_ops);
    json.Field("cost_ops", move.modeled_cost_ops);
    json.Field("move_seconds", move.move_seconds);
    json.Field("network_seconds", move.network_seconds);
    json.EndObject();
  }
  json.EndArray();
  json.Key("evacuations_log");
  json.BeginArray();
  for (const EvacuationReport& report : fleet.evacuation_log()) {
    json.BeginObject();
    json.Field("machine", report.machine_id);
    json.Field("reason", ToString(report.reason));
    json.Field("containers", report.containers);
    json.Field("rehomed", report.rehomed);
    json.Field("requeued", report.requeued);
    json.Field("last_landing_seconds", report.last_landing_seconds);
    json.Field("move_seconds_total", report.move_seconds_total);
    json.EndObject();
  }
  json.EndArray();
  json.Key("outcomes");
  json.BeginArray();
  for (const FleetOutcome& fo : recorder.outcomes) {
    json.BeginObject();
    json.Field("machine", fo.machine_id);
    json.Field("container", fo.outcome.container_id);
    json.Field("admitted", fo.outcome.admitted);
    json.Field("placement", fo.outcome.placement_id);
    json.Field("predicted_abs", fo.outcome.predicted_abs_throughput);
    json.Field("meets_goal", fo.outcome.meets_goal);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return os.str();
}

// One event stream with container churn plus a fail, a drain and both
// rejoins — every fleet operation the capacity index guides.
EventStream ChurnTraceWithMachineEvents(int num_streams, uint64_t seed) {
  // Long-lived containers oversubscribe the fleet on purpose: the
  // rebalance pass needs queued waiters and below-goal incumbents to have
  // anything to move, and the mid-trace fail/drain tightens it further.
  // 16 vCPUs matches the width the shared trained model covers.
  TraceConfig trace_config;
  trace_config.num_containers = 10;
  trace_config.vcpus = 16;
  trace_config.goal_fraction = 0.9;
  trace_config.mean_interarrival_seconds = 60.0;
  trace_config.mean_lifetime_seconds = 2000.0;
  Rng rng(seed);
  EventStream trace = GenerateFleetTrace(trace_config, num_streams, rng);
  const double end = trace.EndTime();
  return InjectMachineEvents(std::move(trace),
                             {FleetEvent::Fail(0.40 * end, 0),
                              FleetEvent::Drain(0.55 * end, 1),
                              FleetEvent::Rejoin(0.70 * end, 0),
                              FleetEvent::Rejoin(0.85 * end, 1)});
}

TEST(FleetCapacityOps, IndexBackedAndFullScanPathsAreByteIdentical) {
  // fleet_probes = 0 is the full scan, the index's reference. A probe
  // count of at least the cell count descends into every eligible cell:
  // the index-backed search must preview exactly the machines the full
  // scan previews, in the same order, and land every container, move and
  // counter identically — byte-identical serialized output.
  FleetConfig full_scan;
  full_scan.dispatch = "best-predicted";
  full_scan.fleet_probes = 0;
  FleetScheduler full_scan_fleet = MakeAmdFleet(6, "model", full_scan);
  FleetConfig indexed = full_scan;
  indexed.fleet_probes = full_scan_fleet.capacity_index().NumCells();
  FleetScheduler indexed_fleet = MakeAmdFleet(6, "model", indexed);
  ASSERT_GT(indexed.fleet_probes, 0);
  const EventStream trace = ChurnTraceWithMachineEvents(3, 99);

  const std::string indexed_json = ReplayToJson(indexed_fleet, trace);
  const std::string full_scan_json = ReplayToJson(full_scan_fleet, trace);
  EXPECT_EQ(indexed_json, full_scan_json);
  // The replay exercised the paths it claims to compare.
  EXPECT_GT(indexed_fleet.stats().rebalance_decisions, 0);
  EXPECT_GT(indexed_fleet.stats().evac_decisions, 0);
  EXPECT_GT(indexed_fleet.stats().evacuations, 0);
}

TEST(FleetCapacityOps, ShardedSearchStaysWithinThePreviewBound) {
  // 9 machines, flat dispatch: the index builds its own 3-cell modulo
  // layout; every rebalance/evacuation target search may preview at most
  // the members of fleet_probes promising cells.
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(9, "model", config);
  ASSERT_GT(fleet.config().fleet_probes, 0);
  const CapacityIndex& index = fleet.capacity_index();
  ASSERT_EQ(index.NumCells(), 3);
  size_t cell_cap = 0;
  for (const std::vector<int>& cell : index.layout().cells) {
    cell_cap = std::max(cell_cap, cell.size());
  }

  fleet.Replay(ChurnTraceWithMachineEvents(6, 41));
  const FleetStats& stats = fleet.stats();
  EXPECT_GT(stats.rebalance_decisions, 0);
  EXPECT_GT(stats.evac_decisions, 0);
  const int per_search =
      static_cast<int>(cell_cap) * fleet.config().fleet_probes;
  EXPECT_LE(stats.rebalance_previews, stats.rebalance_decisions * per_search);
  EXPECT_LE(stats.evac_previews, stats.evac_decisions * per_search);
}

// Tallies the fleet's target-search reports by kind.
class SearchTally final : public EventObserver {
 public:
  void OnTargetSearch(const TargetSearchStats& search, double /*now*/) override {
    const size_t kind = static_cast<size_t>(search.kind);
    ++searches[kind];
    previews[kind] += search.previews;
  }
  long long Searches(TargetSearchStats::Kind kind) const {
    return searches[static_cast<size_t>(kind)];
  }
  long long Previews(TargetSearchStats::Kind kind) const {
    return previews[static_cast<size_t>(kind)];
  }

 private:
  std::array<long long, 3> searches{};
  std::array<long long, 3> previews{};
};

TEST(FleetCapacityOps, EveryTargetSearchIsReportedOnceWithItsKindAndPreviews) {
  // Each dispatch, rebalance and evacuation search reports itself once,
  // under its own kind, with the previews it charged to FleetStats.
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(6, "model", config);
  SearchTally tally;
  fleet.Replay(ChurnTraceWithMachineEvents(3, 99), &tally);
  const FleetStats& stats = fleet.stats();
  using Kind = TargetSearchStats::Kind;
  EXPECT_EQ(tally.Searches(Kind::kDispatch), stats.dispatch_decisions);
  EXPECT_EQ(tally.Previews(Kind::kDispatch), stats.dispatch_previews);
  EXPECT_EQ(tally.Searches(Kind::kRebalance), stats.rebalance_decisions);
  EXPECT_EQ(tally.Previews(Kind::kRebalance), stats.rebalance_previews);
  EXPECT_EQ(tally.Searches(Kind::kEvacuation), stats.evac_decisions);
  EXPECT_EQ(tally.Previews(Kind::kEvacuation), stats.evac_previews);
  // The replay ran both kinds of fleet-op search.
  EXPECT_GT(stats.rebalance_decisions, 0);
  EXPECT_GT(stats.evac_decisions, 0);
}

TEST(FleetCapacityOps, AQueuedMoverLandingBelowItsGoalReArmsTheCapacityFlag) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // Eight easy containers fill both machines (four 2-node placements each).
  for (int id = 1; id <= 8; ++id) {
    ASSERT_TRUE(fleet.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0).outcome.admitted);
  }
  // No placement reaches ten times the baseline: wherever the waiter
  // lands, it lands below its goal.
  const FleetOutcome queued = fleet.Submit(MakeRequest(9, "gcc", 10.0), 10.0);
  ASSERT_FALSE(queued.outcome.admitted);
  const int other_machine = 1 - queued.machine_id;
  int victim = -1;
  for (int id = 1; id <= 8; ++id) {
    if (fleet.MachineOf(id) == other_machine) {
      victim = id;
      break;
    }
  }
  ASSERT_GE(victim, 0);

  // The departure frees threads on the other machine; the pass it runs
  // consumes the capacity flag and moves the waiter there. Nothing else in
  // that pass frees capacity or queues work, so only the below-goal
  // landing — a new degraded incumbent, a mover for the next pass — can
  // leave the flag set.
  fleet.Depart(victim, 20.0);
  ASSERT_EQ(fleet.stats().rebalance_moves, 1);
  ASSERT_EQ(fleet.MachineOf(9), other_machine);
  const ManagedContainer* landed = fleet.machine(other_machine).Find(9);
  ASSERT_NE(landed, nullptr);
  EXPECT_EQ(landed->state, ContainerState::kRunning);
  EXPECT_FALSE(landed->meets_goal);
  EXPECT_TRUE(fleet.capacity_index().capacity_dirty());
}

TEST(FleetCapacityOps, CleanCapacityFlagSkipsTheRebalancePassEntirely) {
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(2, "model", config);
  // Fill both machines (four 16-vCPU placements each), then queue two more.
  for (int id = 1; id <= 8; ++id) {
    ASSERT_TRUE(fleet.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0).outcome.admitted);
  }
  ASSERT_FALSE(fleet.Submit(MakeRequest(9, "gcc", 0.5), 9.0).outcome.admitted);
  ASSERT_FALSE(fleet.Submit(MakeRequest(10, "gcc", 0.5), 10.0).outcome.admitted);

  // Departing queued 9 frees nothing, but the pass still runs: the
  // queueings above marked capacity changed. With both machines full it
  // finds no target and changes nothing, clearing the flag.
  fleet.Depart(9, 11.0);
  const FleetStats mid = fleet.stats();
  EXPECT_GT(mid.rebalance_passes, 0);
  EXPECT_FALSE(fleet.capacity_index().capacity_dirty());

  // Departing queued 10 frees nothing AND nothing changed since the last
  // pass: the whole pass — unplaced drain, mover searches, previews — is
  // skipped as a proven no-op.
  fleet.Depart(10, 12.0);
  const FleetStats after = fleet.stats();
  EXPECT_EQ(after.rebalance_passes, mid.rebalance_passes);
  EXPECT_EQ(after.rebalance_passes_skipped, mid.rebalance_passes_skipped + 1);
  EXPECT_EQ(after.rebalance_previews, mid.rebalance_previews);
  EXPECT_EQ(after.rebalance_decisions, mid.rebalance_decisions);
  EXPECT_EQ(after.dispatch_decisions, mid.dispatch_decisions);
  EXPECT_EQ(after.dispatch_previews, mid.dispatch_previews);

  // A running departure frees capacity, re-arming the flag and the pass.
  fleet.Depart(1, 13.0);
  EXPECT_EQ(fleet.stats().rebalance_passes, mid.rebalance_passes + 1);
}

// Whether, for every important placement of `vcpus`, the machine's memo
// holds exactly what a fresh RealizeAnywhereFree on its occupancy finds:
// the same presence and the same thread list.
::testing::AssertionResult MemoMatchesAFreshSearch(const MachineScheduler& machine,
                                                   int vcpus) {
  for (const ImportantPlacement& ip : machine.PlacementsFor(vcpus).placements) {
    const std::optional<Placement>& memo = machine.RealizedOnFreeThreads(vcpus, ip.id);
    const std::optional<Placement> fresh =
        RealizeAnywhereFree(ip, machine.topology(), vcpus, machine.occupancy());
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
MachineScheduler::AdmissionPreview ReferencePreview(const MachineScheduler& machine,
                                                    const ContainerRequest& request) {
  const RankedView fresh = machine.BuildRankedView(request);
  const ImportantPlacementSet& ips = machine.PlacementsFor(request.vcpus);
  MachineScheduler::AdmissionPreview preview;
  preview.goal_abs = fresh.decision_goal;
  for (const size_t idx : fresh.order) {
    if (RealizeAnywhereFree(ips.ById(fresh.placement_ids[idx]), machine.topology(),
                            request.vcpus, machine.occupancy())
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

// The requests of every arrival in the trace, by container id.
std::map<int, ContainerRequest> RequestsOf(const EventStream& trace) {
  std::map<int, ContainerRequest> requests;
  for (const FleetEvent& event : trace) {
    if (const ContainerArrival* arrival = event.arrival()) {
      requests.emplace(arrival->container_id, RequestFromArrival(*arrival));
    }
  }
  return requests;
}

// Whether, on every up machine, every request with a cached prediction in
// the machine's group has the ranked view a fresh ranking gives and the
// preview the reference walk gives; and whether the fleet's tier table
// equals a recount: TierOf for a live or waiting container while admission
// is active, standard otherwise.
::testing::AssertionResult FleetStateMatchesAFreshRanking(
    FleetScheduler& fleet, const std::map<int, ContainerRequest>& requests) {
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    if (fleet.availability(m) != MachineAvailability::kUp) {
      continue;
    }
    const MachineScheduler& machine = fleet.machine(m);
    const ModelRegistry& registry = fleet.GroupRegistry(fleet.topology(m).name());
    for (const auto& [id, request] : requests) {
      if (registry.FindPrediction(id) == nullptr) {
        continue;
      }
      if (!(machine.RankedViewFor(request) == machine.BuildRankedView(request))) {
        return ::testing::AssertionFailure()
               << "machine " << m << ", container " << id << ": view differs";
      }
      if (!(machine.PreviewAdmission(request) == ReferencePreview(machine, request))) {
        return ::testing::AssertionFailure()
               << "machine " << m << ", container " << id << ": preview differs";
      }
    }
  }
  const std::vector<int> unplaced = fleet.UnplacedIds();
  for (const auto& [id, request] : requests) {
    const bool live = fleet.MachineOf(id) != kNoMachine ||
                      std::find(unplaced.begin(), unplaced.end(), id) != unplaced.end();
    const SloTier expected = fleet.AdmissionActive() && live
                                 ? fleet.TierOf(request.workload.name)
                                 : SloTier::kStandard;
    if (fleet.ContainerTier(id) != expected) {
      return ::testing::AssertionFailure() << "container " << id << ": tier "
                                           << ToString(fleet.ContainerTier(id))
                                           << ", recount " << ToString(expected);
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(FleetIncrementalState, RunningSetsAndSnapshotCacheMatchARecountAfterEveryStep) {
  // Churn past saturation plus a fail, a drain and both rejoins: every
  // path that moves a tenant between machines (dispatch, rebalance moves,
  // evacuation) runs through the machines' tenant-set mutation points.
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(6, "model", config);
  const EventStream trace = ChurnTraceWithMachineEvents(3, 99);
  const std::map<int, ContainerRequest> requests = RequestsOf(trace);
  std::set<int> ids;
  for (const auto& [id, request] : requests) {
    ids.insert(id);
  }

  TenantSnapshotCache cache(static_cast<size_t>(fleet.NumMachines()));
  std::vector<uint64_t> generations(static_cast<size_t>(fleet.NumMachines()));
  std::vector<uint64_t> occupancy_generations(generations.size());
  int unchanged = 0;
  int occupancy_unchanged = 0;
  for (const FleetEvent& event : trace) {
    for (int m = 0; m < fleet.NumMachines(); ++m) {
      cache.Get(static_cast<size_t>(m), fleet.machine(m), fleet.multi_model(m));
      generations[static_cast<size_t>(m)] = fleet.machine(m).TenantGeneration();
      occupancy_generations[static_cast<size_t>(m)] =
          fleet.machine(m).occupancy().Generation();
    }
    fleet.Step(event);
    for (int m = 0; m < fleet.NumMachines(); ++m) {
      const MachineScheduler& machine = fleet.machine(m);
      std::vector<int> recount;
      for (int id : ids) {
        const ManagedContainer* container = machine.Find(id);
        if (container != nullptr && container->state == ContainerState::kRunning) {
          recount.push_back(id);
        }
      }
      ASSERT_EQ(machine.RunningIds(), recount)
          << "machine " << m << " after " << ToString(event.kind()) << " at t="
          << event.time_seconds;
      unchanged += machine.TenantGeneration() == generations[static_cast<size_t>(m)] ? 1 : 0;
      ASSERT_EQ(cache.Get(static_cast<size_t>(m), machine, fleet.multi_model(m)),
                machine.SnapshotPerformance(fleet.multi_model(m)))
          << "machine " << m << " after " << ToString(event.kind()) << " at t="
          << event.time_seconds;
      // The realizability memo, filled after the previous step and read by
      // this step's previews and commits, must match a fresh search too.
      occupancy_unchanged +=
          machine.occupancy().Generation() == occupancy_generations[static_cast<size_t>(m)]
              ? 1
              : 0;
      ASSERT_TRUE(MemoMatchesAFreshSearch(machine, 16))
          << "machine " << m << " after " << ToString(event.kind()) << " at t="
          << event.time_seconds;
    }
    // So must every ranked view those previews and commits read.
    ASSERT_TRUE(FleetStateMatchesAFreshRanking(fleet, requests))
        << "after " << ToString(event.kind()) << " at t=" << event.time_seconds;
  }
  EXPECT_GT(fleet.stats().rebalance_moves, 0);
  EXPECT_GT(fleet.stats().drain_moves + fleet.stats().failover_moves, 0);
  EXPECT_EQ(fleet.stats().evacuations, 2);
  EXPECT_GT(unchanged, 0);
  EXPECT_GT(occupancy_unchanged, 0);
}

TEST(FleetDomains, DomainScopedEventsReplayByteIdenticallyToTheHandList) {
  // The acceptance equivalence: rack 1 of a 6-machine / 3-rack fleet is
  // machines {2, 3}; a domain-scoped fail + rejoin of that rack must drive
  // the fleet through the exact event sequence of the hand-written
  // per-machine list — byte-identical serialized replay output.
  FleetConfig config;
  config.dispatch = "best-predicted";
  config.domain_racks = 3;
  FleetScheduler domain_fleet = MakeAmdFleet(6, "model", config);
  FleetScheduler hand_fleet = MakeAmdFleet(6, "model", config);

  TraceConfig trace_config;
  trace_config.num_containers = 10;
  trace_config.vcpus = 16;
  trace_config.goal_fraction = 0.9;
  trace_config.mean_interarrival_seconds = 60.0;
  trace_config.mean_lifetime_seconds = 2000.0;
  Rng rng(123);
  const EventStream churn = GenerateFleetTrace(trace_config, 3, rng);
  const double end = churn.EndTime();

  EventStream domain_trace = churn;
  domain_trace = InjectMachineEvents(
      std::move(domain_trace),
      {FleetEvent::FailDomain(0.45 * end, DomainScope::kRack, 1),
       FleetEvent::RejoinDomain(0.70 * end, DomainScope::kRack, 1)},
      domain_fleet.domains());
  EventStream hand_trace = churn;
  hand_trace = InjectMachineEvents(
      std::move(hand_trace),
      {FleetEvent::Fail(0.45 * end, 2), FleetEvent::Fail(0.45 * end, 3),
       FleetEvent::Rejoin(0.70 * end, 2), FleetEvent::Rejoin(0.70 * end, 3)});

  const std::string domain_json = ReplayToJson(domain_fleet, domain_trace);
  const std::string hand_json = ReplayToJson(hand_fleet, hand_trace);
  EXPECT_EQ(domain_json, hand_json);
  // The outage actually evacuated something.
  EXPECT_EQ(domain_fleet.stats().evacuations, 2);
}

TEST(FleetDomains, SpreadDispatchAvoidsCoLocatingAGroupInOneRack) {
  // 4 machines over 2 racks ({0,1} and {2,3}). Flat least-loaded dispatch
  // breaks idle ties toward the lower machine id, piling the group's first
  // two replicas into rack 0; the spread penalty makes the second replica
  // skip its rack-mate.
  std::vector<MachineSpec> specs(4, AmdSpec("first-fit"));
  FleetConfig flat;
  flat.dispatch = "least-loaded";
  flat.domain_racks = 2;
  FleetConfig spread = flat;
  spread.spread_weight = 2.0;

  FleetScheduler flat_fleet(std::vector<MachineSpec>(specs), flat);
  ASSERT_FALSE(flat_fleet.SpreadActive());
  EXPECT_EQ(flat_fleet.Submit(MakeRequest(1, "gcc", 0.5), 0.0).machine_id, 0);
  EXPECT_EQ(flat_fleet.Submit(MakeRequest(2, "gcc", 0.5), 1.0).machine_id, 1);
  EXPECT_EQ(flat_fleet.DomainsToLoss(DomainScope::kRack).at("gcc"), 1);

  FleetScheduler spread_fleet(std::move(specs), spread);
  ASSERT_TRUE(spread_fleet.SpreadActive());
  EXPECT_EQ(spread_fleet.Submit(MakeRequest(1, "gcc", 0.5), 0.0).machine_id, 0);
  // Machine 1 ranks first but shares rack 0 with replica 1; machine 2 is
  // one rank down at zero co-location, and 0 + 2.0 * 1 > 1 + 2.0 * 0.
  EXPECT_EQ(spread_fleet.Submit(MakeRequest(2, "gcc", 0.5), 1.0).machine_id, 2);
  EXPECT_EQ(spread_fleet.DomainsToLoss(DomainScope::kRack).at("gcc"), 2);
  // A different group starts fresh: no penalty anywhere, lowest id wins.
  EXPECT_EQ(spread_fleet.Submit(MakeRequest(3, "kmeans", 0.5), 2.0).machine_id, 1);
  const DomainOccupancy& occupancy = spread_fleet.domain_occupancy();
  EXPECT_EQ(occupancy.CountIn("gcc", DomainScope::kRack, 0), 1);
  EXPECT_EQ(occupancy.CountIn("gcc", DomainScope::kRack, 1), 1);
}

TEST(FleetDomains, SoftRackCapNeverStrandsADispatchableContainer) {
  // One rack, cap 1: every machine is over the cap for the group's second
  // replica, but the cap is soft at dispatch — the container still lands
  // (spread never trades a placement away for spread).
  std::vector<MachineSpec> specs(2, AmdSpec("first-fit"));
  FleetConfig config;
  config.dispatch = "least-loaded";
  config.domain_racks = 1;
  config.spread_max_per_rack = 1;
  FleetScheduler fleet(std::move(specs), config);
  ASSERT_TRUE(fleet.SpreadActive());
  for (int id = 1; id <= 4; ++id) {
    const FleetOutcome outcome = fleet.Submit(MakeRequest(id, "gcc", 0.5), id * 1.0);
    EXPECT_NE(outcome.machine_id, kNoMachine) << "container " << id;
    EXPECT_TRUE(outcome.outcome.admitted) << "container " << id;
  }
  EXPECT_EQ(fleet.domain_occupancy().CountIn("gcc", DomainScope::kRack, 0), 4);
}

TEST(FleetDomains, PerReasonMoveCountersPartitionTheRebalanceLog) {
  // 2 trace streams on 6 machines: enough slack that the mid-trace drain's
  // evacuees land directly (a requeue would not count as a committed move).
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet = MakeAmdFleet(6, "model", config);
  fleet.Replay(ChurnTraceWithMachineEvents(2, 99));

  const FleetStats& stats = fleet.stats();
  int rebalance = 0;
  int drain = 0;
  int failover = 0;
  for (const RebalanceMove& move : fleet.rebalance_log()) {
    switch (move.reason) {
      case RebalanceMove::Reason::kRebalance: ++rebalance; break;
      case RebalanceMove::Reason::kDrain: ++drain; break;
      case RebalanceMove::Reason::kFailover: ++failover; break;
    }
  }
  EXPECT_EQ(stats.rebalance_moves, rebalance);
  EXPECT_EQ(stats.drain_moves, drain);
  EXPECT_EQ(stats.failover_moves, failover);
  EXPECT_EQ(stats.evacuation_moves, drain + failover);
  // The churn trace drains machine 1 mid-trace, so the drain path ran.
  EXPECT_GT(stats.drain_moves, 0);
}


// FNV-1a 64 with the repository's offset basis (the same helper pins model
// text in model_test and simulator output in sim_test).
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendLine(std::string* text, const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  *text += line;
}

// Every sim-time result of a fleet replay as text: the lifetime counters
// (host time excluded), the move and evacuation logs, and the report's
// integrals at full precision.
std::string FleetReplayText(const FleetScheduler& fleet, const FleetReport& report) {
  std::string text;
  const FleetStats& s = fleet.stats();
  AppendLine(&text, "stats %d %d %d %d %.17g %d %d %d %d %d %d %.17g %.17g %d %.17g\n",
             s.submitted, s.dispatched_immediately, s.queued, s.queue_admissions,
             s.queue_wait_seconds, s.rebalance_moves, s.evacuations, s.evacuation_moves,
             s.evacuation_requeues, s.drain_moves, s.failover_moves,
             s.cross_machine_move_seconds, s.network_copy_seconds, s.fleet_probe_runs,
             s.fleet_probe_seconds);
  AppendLine(&text, "searches %d %d %d %d %d %d %d %d\n", s.dispatch_previews,
             s.dispatch_decisions, s.rebalance_previews, s.rebalance_decisions,
             s.evac_previews, s.evac_decisions, s.rebalance_passes,
             s.rebalance_passes_skipped);
  for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
    AppendLine(&text, "tier %zu %d %d %d %d %d %.17g %.17g\n", t, s.tier_arrivals[t],
               s.tier_admitted[t], s.tier_deferred[t], s.tier_rejected[t],
               s.tier_preempted[t], report.tier_goal_attainment[t],
               report.tier_container_seconds[t]);
  }
  for (const RebalanceMove& m : fleet.rebalance_log()) {
    AppendLine(&text, "move %d %d %d %d %s %.17g %.17g %.17g %.17g\n", m.container_id,
               m.from_machine, m.to_machine, m.was_queued ? 1 : 0, ToString(m.reason),
               m.predicted_gain_ops, m.modeled_cost_ops, m.move_seconds,
               m.network_seconds);
  }
  for (const EvacuationReport& e : fleet.evacuation_log()) {
    AppendLine(&text, "evacuation %d %s %.17g %d %d %d %.17g %.17g %.17g\n", e.machine_id,
               ToString(e.reason), e.start_seconds, e.containers, e.rehomed, e.requeued,
               e.last_landing_seconds, e.move_seconds_total, e.network_seconds_total);
  }
  AppendLine(&text, "report %.17g %.17g %.17g %.17g %.17g %.17g %d\n",
             report.goal_attainment, report.container_seconds_at_goal,
             report.mean_utilization, report.utilization_min, report.utilization_max,
             report.mean_queue_wait_seconds, report.decisions);
  for (const double utilization : report.machine_utilizations) {
    AppendLine(&text, "machine %.17g\n", utilization);
  }
  return text;
}

// A mixed model-policy fleet through every decision path the admission
// replay exercises: amd,intel x 2 with best-predicted dispatch previews on
// both topology groups, tiered admission under a flash crowd, and a rack
// failure whose evacuees fail over before the rack rejoins.
FleetScheduler MakeAdmissionFleet() {
  std::vector<MachineSpec> specs;
  for (int m = 0; m < 4; ++m) {
    const bool amd = m % 2 == 0;
    MachineSpec spec(amd ? AmdOpteron6272() : IntelXeonE74830v3());
    spec.scheduler.policy = "model";
    spec.scheduler.baseline_id = amd ? 1 : 2;
    specs.push_back(std::move(spec));
  }
  FleetConfig config;
  config.dispatch = "best-predicted";
  config.admission = "tiered";
  config.domain_racks = 2;
  FleetScheduler fleet(std::move(specs), config);
  for (const TrainedAssets* assets : {&Assets(), &IntelAssets()}) {
    fleet.GroupRegistry(assets->topo.name()).Register(assets->topo.name(), 16, assets->model);
    fleet.ProvidePlacements(assets->topo.name(), assets->ips);
  }
  return fleet;
}

EventStream AdmissionTrace(const FleetScheduler& fleet) {
  FlashCrowdConfig flash;
  flash.base.num_containers = 6;
  flash.base.vcpus = 16;
  flash.base.goal_fraction = 0.9;
  flash.base.mean_interarrival_seconds = 120.0;
  flash.base.mean_lifetime_seconds = 480.0;
  flash.bursts = 1;
  flash.burst_containers = 8;
  Rng rng(7);
  EventStream generated = GenerateFlashCrowdTrace(flash, fleet.NumMachines(), rng);
  const double end = generated.EndTime();
  return InjectMachineEvents(std::move(generated),
                             {FleetEvent::FailDomain(0.3 * end, DomainScope::kRack, 0),
                              FleetEvent::RejoinDomain(0.6 * end, DomainScope::kRack, 0)},
                             fleet.domains());
}

TEST(FleetPin, ModelPolicyAdmissionReplayIsPinned) {
  // The pin is the FNV-1a of every sim-time result; a change that moves
  // any decision or integral moves it.
  FleetScheduler fleet = MakeAdmissionFleet();
  const FleetReport report = fleet.ReplayWithEvaluation(AdmissionTrace(fleet));

  const std::string text = FleetReplayText(fleet, report);
  // The replay reached every path it claims to pin.
  const FleetStats& stats = fleet.stats();
  EXPECT_GT(stats.dispatch_previews, 0);
  EXPECT_GT(stats.tier_rejected[static_cast<size_t>(SloTier::kBestEffort)], 0) << text;
  EXPECT_EQ(stats.evacuations, 2) << text;
  EXPECT_EQ(Fnv1a(text), 0xc63010dbf0f332a3ULL) << text;
}

TEST(FleetIncrementalState, ViewsAndTierTableMatchARecountUnderAdmission) {
  // The admission replay above, stepped: two topology groups, shed and
  // deferred arrivals, fail-over evacuees and a rejoin all move the tier
  // table, and every preview reads a shared view.
  FleetScheduler fleet = MakeAdmissionFleet();
  const EventStream trace = AdmissionTrace(fleet);
  const std::map<int, ContainerRequest> requests = RequestsOf(trace);
  bool tiered = false;
  for (const FleetEvent& event : trace) {
    fleet.Step(event);
    ASSERT_TRUE(FleetStateMatchesAFreshRanking(fleet, requests))
        << "after " << ToString(event.kind()) << " at t=" << event.time_seconds;
    for (const auto& [id, request] : requests) {
      tiered = tiered || fleet.ContainerTier(id) != SloTier::kStandard;
    }
  }
  EXPECT_TRUE(tiered);
  EXPECT_EQ(fleet.stats().evacuations, 2);
}

TEST(FleetIncrementalState, MachinesOfAGroupWithOtherInputsKeepTheirOwnViews) {
  // One topology group, one registry, but the machines differ in baseline
  // id and fallback slack: every machine's previews, commits and upgrades
  // must read a view ranked from its own inputs, however the machines
  // before it left the shared one.
  std::vector<MachineSpec> specs;
  for (int m = 0; m < 4; ++m) {
    MachineSpec spec = AmdSpec("model");
    spec.scheduler.baseline_id = m == 1 ? 2 : 1;
    spec.scheduler.fallback_slack = m == 2 ? 0.5 : 0.03;
    specs.push_back(std::move(spec));
  }
  FleetConfig config;
  config.dispatch = "best-predicted";
  FleetScheduler fleet(std::move(specs), config);
  fleet.GroupRegistry(Assets().topo.name()).Register(Assets().topo.name(), 16, Assets().model);
  fleet.ProvidePlacements(Assets().topo.name(), Assets().ips);
  const EventStream trace = ChurnTraceWithMachineEvents(3, 99);
  const std::map<int, ContainerRequest> requests = RequestsOf(trace);
  for (const FleetEvent& event : trace) {
    fleet.Step(event);
    ASSERT_TRUE(FleetStateMatchesAFreshRanking(fleet, requests))
        << "after " << ToString(event.kind()) << " at t=" << event.time_seconds;
  }
  EXPECT_GT(fleet.stats().dispatch_previews, 0);
}

}  // namespace
}  // namespace numaplace
