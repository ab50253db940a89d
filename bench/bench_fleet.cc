// Fleet scheduling benchmark: every dispatch policy registered in the
// DispatchRegistry, head-to-head on the same merged Poisson trace, over
// heterogeneous (mixed AMD + Intel) fleets of increasing size.
//
// Each machine runs the paper's model policy; one model per topology group
// is trained once and shared through the group's ModelRegistry, so probes
// are paid once fleet-wide. Reported per (fleet, dispatch):
//   * fleet-wide goal attainment — time-weighted mean of
//     min(1, measured / goal) over running containers, with queued
//     containers counting as attaining nothing (parking work in a queue
//     while another machine idles is a dispatch failure, and shows up here);
//   * container-seconds at goal and thread-weighted mean utilization;
//   * utilization spread — max minus min per-machine time-averaged
//     utilization (a load-balance quality measure);
//   * queue latency — mean submit-to-placement wait of queue-admitted
//     containers, and how many waited;
//   * cross-machine rebalancing — committed moves and their total
//     migration + network-copy seconds (§7 cost model + network penalty);
//   * decisions/sec of host wall time.
//
// The load-blind round-robin baseline must lose to best-predicted dispatch
// on goal attainment: best-predicted asks every machine's own policy for
// its top candidate and routes to the best predicted margin.
//
// A second sweep runs failure scenarios on the amd+intel fleet: the same
// trace replayed unperturbed (baseline), with machine 0 failing mid-trace,
// and with machine 0 draining mid-trace (rejoining at the three-quarter
// mark either way), per dispatch policy. Reported per scenario: goal
// attainment and its damage vs. the baseline, evacuation latency (slowest
// committed move), rehomed/requeued evacuees and total move cost. Every
// committed move — rebalance and evacuation alike — must satisfy the
// gain-beats-cost invariant; a violation fails the bench.
//
// A third sweep scales mixed fleets 16 -> 256 machines and compares the
// sharded dispatcher (cells sampled power-of-two-choices style, previews
// only within the sample) against the flat least-loaded and best-predicted
// walks: goal-attainment loss vs. dispatch decision throughput and preview
// count. Departure rebalancing is off for this sweep — its flat
// all-machines scan is identical across dispatchers and would swamp the
// dispatch cost being measured. In full mode the sweep enforces the scaling
// claim: at the largest fleet, sharded must deliver >= 4x the decision
// throughput of flat best-predicted within 1pp of its goal attainment.
//
// A fourth sweep measures the fleet *operations* — departure rebalancing
// and evacuation — rather than dispatch: fleets 16 -> 1024 machines replay
// the same trace with a mid-trace mass evacuation (an eighth of the fleet
// drains at the halfway mark and rejoins at three quarters), once with the
// capacity-index-guided sharded target search and once with the full scan
// (fleet_probes = 0). Every sharded run must hold the sublinear preview bound
// previews <= searches * max_cell_size * fleet_probes, asserted from the
// FleetStats counters — a violation fails the bench (and CI, which runs
// the 1024-machine row in smoke mode). Full mode additionally enforces
// attainment parity within 1pp at 256 machines and >= 4x fleet-op decision
// throughput at 1024.
//
// A fifth sweep measures correlated failure: a 64-machine fleet laid out
// over 8 contiguous racks (FailureDomainTopology, 4 AMD + 4 Intel each)
// loses rack 0 — all 8 machines at once, via a domain-scoped fail event —
// at mid-trace, with no rejoin. Two contenders replay the identical
// baseline and rack-fail traces under best-predicted dispatch: "flat"
// (spread off) and "spread" (rack co-location penalty + per-rack cap on
// each service group). Reported per (contender, scenario): goal attainment,
// attainment damage vs. the contender's own baseline, and — snapshotted at
// the failure instant, before evacuation — each service group's
// domains-to-loss (distinct racks/zones holding a replica: the minimum
// simultaneous domain failures that wipe the group). The bench asserts the
// spread contender loses strictly less attainment to the rack loss than
// flat best-predicted, and that its mean racks-to-loss is no worse.
//
// A sixth sweep measures SLO-tiered admission control under overload: an
// 8-machine mixed fleet replays a diurnal baseline trace and a flash-crowd
// trace (the same baseline plus best-effort-heavy Poisson-burst spikes),
// each under the "admit-all" and "tiered" admission policies
// (src/cluster/admission.h). Reported per (policy, scenario, tier):
// arrivals, admission outcomes, rejection rate and time-averaged goal
// attainment — the rejection-rate vs. attainment frontier. The bench
// asserts the overload-protection claim on the tiered flash-crowd run:
// premium goal attainment within 0.5pp of its own uncongested (tiered
// baseline) value, and a best-effort rejection rate strictly above
// premium's — the shedding lands on the tier built to absorb it.
//
// The head-to-head, failure-scenario and sharded-dispatch runs replay
// through RunOne, which attaches a telemetry MetricsObserver, so their JSON
// rows ("results", "failure_scenarios", "sharded_sweep") additionally carry
// percentile digests (count/p50/p95/p99/max) of the queue-wait and
// evacuation-latency histograms next to the existing means. The fleet-ops,
// rack-loss and admission-frontier rows carry no digests.
//
// Flags:
//   --smoke        tiny trace + small forests (CI Release-mode exercise)
//   --json <path>  machine-readable results for the BENCH_*.json trajectory
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/admission.h"
#include "src/cluster/dispatch.h"
#include "src/cluster/domains.h"
#include "src/cluster/fleet.h"
#include "src/core/concern.h"
#include "src/core/important.h"
#include "src/model/pipeline.h"
#include "src/scheduler/scheduler.h"
#include "src/sim/perf_model.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/metrics_observer.h"
#include "src/topology/machines.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/workloads/synth.h"
#include "src/workloads/trace.h"

namespace {

using namespace numaplace;

constexpr int kVcpus = 16;

struct GroupAssets {
  Topology topo;
  int baseline_id = 1;
  bool use_interconnect = true;
  ImportantPlacementSet ips;
  TrainedPerfModel model;
};

GroupAssets MakeGroup(const std::string& short_name, bool smoke) {
  GroupAssets group{short_name == "intel" ? IntelXeonE74830v3() : AmdOpteron6272(),
                    short_name == "intel" ? 2 : 1,
                    short_name != "intel",
                    {},
                    {}};
  group.ips = GenerateImportantPlacements(group.topo, kVcpus, group.use_interconnect);
  PerformanceModel sim(group.topo, 0.01, 5);
  ModelPipeline pipeline(group.ips, sim, group.baseline_id, /*seed=*/17);
  PerfModelConfig config;
  config.forest.num_trees = smoke ? 50 : 100;
  config.runs_per_workload = smoke ? 2 : 3;
  if (smoke) {
    config.cv_trees = 20;
  }
  Rng rng(40);
  std::printf("training the (%s, %d vCPUs) model...\n", group.topo.name().c_str(), kVcpus);
  group.model = pipeline.TrainPerfAuto(SampleTrainingWorkloads(smoke ? 24 : 72, rng),
                                       config);
  return group;
}

struct FleetDef {
  std::string label;
  std::vector<std::string> machines;  // short group names, one per machine
};

// One machine per entry of def.machines, every one running the model
// policy; each group present gets its trained model and placement set.
FleetScheduler BuildFleet(const FleetDef& def,
                          const std::map<std::string, GroupAssets>& groups,
                          const FleetConfig& config) {
  std::vector<MachineSpec> specs;
  for (const std::string& name : def.machines) {
    const GroupAssets& group = groups.at(name);
    MachineSpec spec(group.topo);
    spec.scheduler.policy = "model";
    spec.scheduler.baseline_id = group.baseline_id;
    spec.scheduler.use_interconnect_concern = group.use_interconnect;
    specs.push_back(std::move(spec));
  }
  FleetScheduler fleet(std::move(specs), config);
  for (const auto& [name, group] : groups) {
    if (std::find(def.machines.begin(), def.machines.end(), name) == def.machines.end()) {
      continue;
    }
    fleet.GroupRegistry(group.topo.name()).Register(group.topo.name(), kVcpus, group.model);
    fleet.ProvidePlacements(group.topo.name(), group.ips);
  }
  return fleet;
}

// Percentile digest of one telemetry histogram, captured after a replay so
// the registry itself does not have to outlive the run.
struct HistogramSummary {
  int64_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

HistogramSummary Summarize(const Histogram& histogram) {
  HistogramSummary summary;
  summary.count = histogram.count();
  summary.p50 = histogram.Percentile(50.0);
  summary.p95 = histogram.Percentile(95.0);
  summary.p99 = histogram.Percentile(99.0);
  summary.max = histogram.max();
  return summary;
}

struct ResultRow {
  std::string fleet;
  int num_machines = 0;
  std::string dispatch;
  FleetReport report;
  FleetStats stats;
  int machine_probe_runs = 0;
  std::vector<RebalanceMove> moves;
  std::vector<EvacuationReport> evacuations;
  HistogramSummary queue_wait;
  HistogramSummary evac_latency;
};

ResultRow RunOne(const FleetDef& def, const std::string& dispatch_name,
                 const std::map<std::string, GroupAssets>& groups,
                 const EventStream& trace, bool rebalance_on_departure = true) {
  FleetConfig config;
  config.dispatch = dispatch_name;
  config.rebalance_on_departure = rebalance_on_departure;
  FleetScheduler fleet = BuildFleet(def, groups, config);

  ResultRow row;
  row.fleet = def.label;
  row.num_machines = static_cast<int>(def.machines.size());
  row.dispatch = dispatch_name;
  MetricsRegistry registry;
  MetricsObserver metrics(&registry, nullptr, fleet.NumMachines());
  row.report = fleet.ReplayWithEvaluation(trace, &metrics);
  row.stats = fleet.stats();
  row.moves = fleet.rebalance_log();
  row.evacuations = fleet.evacuation_log();
  row.queue_wait = Summarize(*registry.FindHistogram("fleet.queue_wait_seconds"));
  row.evac_latency =
      Summarize(*registry.FindHistogram("fleet.evacuation_latency_seconds"));
  // Every probe is charged to some machine's stats; stats_.fleet_probe_runs
  // is the subset the dispatcher/rebalancer triggered, not an extra count.
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    row.machine_probe_runs += fleet.machine(m).stats().probe_runs;
  }
  return row;
}

// The acceptance gate on the §7 cost model: every committed cross-machine
// move — departure rebalancing, drain, failover — carries a strictly
// positive modeled surplus.
int CountInvariantViolations(const ResultRow& row) {
  int violations = 0;
  for (const RebalanceMove& move : row.moves) {
    if (move.predicted_gain_ops <= move.modeled_cost_ops) {
      std::fprintf(stderr,
                   "INVARIANT VIOLATION: container %d moved %d -> %d (%s) with gain "
                   "%.1f <= cost %.1f\n",
                   move.container_id, move.from_machine, move.to_machine,
                   ToString(move.reason), move.predicted_gain_ops,
                   move.modeled_cost_ops);
      ++violations;
    }
  }
  return violations;
}

void PrintRows(const std::vector<ResultRow>& rows) {
  TablePrinter table({"fleet", "dispatch", "goal attainment", "at-goal time",
                      "utilization", "util spread", "queue wait (s)", "queued",
                      "moves", "move cost (s)", "probe runs", "decisions/s"});
  for (const ResultRow& row : rows) {
    table.AddRow(
        {row.fleet, row.dispatch,
         TablePrinter::Num(100.0 * row.report.goal_attainment, 1) + "%",
         TablePrinter::Num(100.0 * row.report.container_seconds_at_goal, 1) + "%",
         TablePrinter::Num(100.0 * row.report.mean_utilization, 1) + "%",
         TablePrinter::Num(
             100.0 * (row.report.utilization_max - row.report.utilization_min), 1) +
             "pp",
         TablePrinter::Num(row.report.mean_queue_wait_seconds, 1),
         std::to_string(row.stats.queue_admissions),
         std::to_string(row.stats.rebalance_moves),
         TablePrinter::Num(row.stats.cross_machine_move_seconds, 1),
         std::to_string(row.machine_probe_runs),
         TablePrinter::Num(row.report.wall_seconds > 0.0
                               ? row.report.decisions / row.report.wall_seconds
                               : 0.0,
                           0)});
  }
  table.Print(std::cout);
}

struct ScenarioRow {
  std::string scenario;  // "baseline" | "fail" | "drain"
  ResultRow run;
  double damage_pp = 0.0;  // baseline attainment minus this scenario's
};

// Evacuation aggregates of one run (one fail/drain event => usually one
// report, but the totals generalize).
struct EvacuationTotals {
  double latency_seconds = 0.0;  // slowest committed move across evacuations
  int rehomed = 0;
  int requeued = 0;
  double move_seconds = 0.0;
};

EvacuationTotals TotalsOf(const ResultRow& run) {
  EvacuationTotals totals;
  for (const EvacuationReport& evacuation : run.evacuations) {
    totals.latency_seconds = std::max(totals.latency_seconds,
                                      evacuation.last_landing_seconds);
    totals.rehomed += evacuation.rehomed;
    totals.requeued += evacuation.requeued;
    totals.move_seconds += evacuation.move_seconds_total;
  }
  return totals;
}

void PrintScenarioRows(const std::vector<ScenarioRow>& rows) {
  TablePrinter table({"dispatch", "scenario", "goal attainment", "damage",
                      "evac latency (s)", "rehomed", "requeued", "move cost (s)",
                      "queue wait (s)"});
  for (const ScenarioRow& row : rows) {
    const EvacuationTotals totals = TotalsOf(row.run);
    table.AddRow(
        {row.run.dispatch, row.scenario,
         TablePrinter::Num(100.0 * row.run.report.goal_attainment, 1) + "%",
         row.scenario == "baseline" ? "-"
                                    : TablePrinter::Num(row.damage_pp, 1) + "pp",
         TablePrinter::Num(totals.latency_seconds, 1),
         std::to_string(totals.rehomed), std::to_string(totals.requeued),
         TablePrinter::Num(totals.move_seconds, 1),
         TablePrinter::Num(row.run.report.mean_queue_wait_seconds, 1)});
  }
  table.Print(std::cout);
}

// One run of the 16 -> 256 machine scaling sweep (rebalance-on-departure
// off: the dispatch decision is the variable under test).
struct SweepRow {
  int num_machines = 0;
  std::string dispatch;
  FleetReport report;
  FleetStats stats;
  HistogramSummary queue_wait;
  HistogramSummary evac_latency;

  double DecisionsPerSecond() const {
    return report.wall_seconds > 0.0 ? report.decisions / report.wall_seconds : 0.0;
  }
  double PreviewsPerDecision() const {
    return report.decisions > 0
               ? static_cast<double>(stats.dispatch_previews) / report.decisions
               : 0.0;
  }
};

// A mixed fleet of n machines, amd/intel alternating — every cell of the
// sharded dispatcher's modulo assignment sees both topology groups.
FleetDef MixedFleet(int n) {
  FleetDef def;
  def.label = std::to_string(n) + " machines";
  for (int i = 0; i < n; ++i) {
    def.machines.push_back(i % 2 == 0 ? "amd" : "intel");
  }
  return def;
}

void PrintSweepRows(const std::vector<SweepRow>& rows) {
  TablePrinter table({"machines", "dispatch", "goal attainment", "queued",
                      "queue wait (s)", "p95 wait (s)", "p99 wait (s)",
                      "previews", "previews/decision", "decisions/s"});
  for (const SweepRow& row : rows) {
    table.AddRow({std::to_string(row.num_machines), row.dispatch,
                  TablePrinter::Num(100.0 * row.report.goal_attainment, 1) + "%",
                  std::to_string(row.stats.queue_admissions),
                  TablePrinter::Num(row.report.mean_queue_wait_seconds, 1),
                  TablePrinter::Num(row.queue_wait.p95, 1),
                  TablePrinter::Num(row.queue_wait.p99, 1),
                  std::to_string(row.stats.dispatch_previews),
                  TablePrinter::Num(row.PreviewsPerDecision(), 1),
                  TablePrinter::Num(row.DecisionsPerSecond(), 0)});
  }
  table.Print(std::cout);
}

// One run of the fleet-operations sweep: rebalance ON, least-loaded
// dispatch (cheap and identical for both contenders, so replay wall time is
// dominated by the rebalance/evacuation target searches under test), and a
// mass evacuation mid-trace.
struct FleetOpsRow {
  int num_machines = 0;
  std::string ops;  // "sharded" | "full-scan"
  FleetStats stats;
  double attainment = -1.0;  // only when the evaluation loop ran
  double replay_wall_seconds = 0.0;
  int cell_cap = 0;  // largest cell in the index layout
  int probes = 0;

  int Searches() const { return stats.rebalance_decisions + stats.evac_decisions; }
  int Previews() const { return stats.rebalance_previews + stats.evac_previews; }
  double PreviewsPerSearch() const {
    return Searches() > 0 ? static_cast<double>(Previews()) / Searches() : 0.0;
  }
  // Throughput over the time actually spent inside FindBestTarget. Whole-
  // replay wall time would bury the search cost under work identical for
  // both contenders (dispatch scans, pass mover enumeration, simulation).
  double SearchesPerSecond() const {
    return stats.fleet_op_search_seconds > 0.0
               ? Searches() / stats.fleet_op_search_seconds
               : 0.0;
  }
};

// The shared trace of the fleet-ops sweep: container churn plus a mass
// drain of an eighth of the fleet at the halfway mark, all rejoining at
// three quarters. Drained ids 0..n/8-1 interleave across every cell of the
// modulo layout, so the evacuation pressure is fleet-wide, not cell-local.
EventStream MassEvacTrace(const TraceConfig& base, int n, uint64_t seed) {
  Rng rng(seed);
  EventStream trace = GenerateFleetTrace(base, n, rng);
  const double end = trace.EndTime();
  const int wave = std::max(1, n / 8);
  std::vector<FleetEvent> events;
  for (int m = 0; m < wave; ++m) {
    events.push_back(FleetEvent::Drain(0.50 * end + m, m));
  }
  for (int m = 0; m < wave; ++m) {
    events.push_back(FleetEvent::Rejoin(0.75 * end + m, m));
  }
  return InjectMachineEvents(std::move(trace), events);
}

FleetOpsRow RunFleetOps(const FleetDef& def, const std::map<std::string, GroupAssets>& groups,
                        const EventStream& trace, bool sharded_ops, bool evaluate) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  config.rebalance_on_departure = true;
  if (!sharded_ops) {
    config.fleet_probes = 0;  // the full scan
  }
  FleetScheduler fleet = BuildFleet(def, groups, config);

  FleetOpsRow row;
  row.num_machines = static_cast<int>(def.machines.size());
  row.ops = sharded_ops ? "sharded" : "full-scan";
  row.probes = config.fleet_probes;
  for (const std::vector<int>& cell : fleet.capacity_index().layout().cells) {
    row.cell_cap = std::max(row.cell_cap, static_cast<int>(cell.size()));
  }
  if (evaluate) {
    const FleetReport report = fleet.ReplayWithEvaluation(trace);
    row.attainment = report.goal_attainment;
    row.replay_wall_seconds = report.wall_seconds;
  } else {
    const auto start = std::chrono::steady_clock::now();
    fleet.Replay(trace);
    row.replay_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  row.stats = fleet.stats();
  return row;
}

// The sublinear-search gate: an index-guided target search may preview at
// most the members of fleet_probes sampled cells. Holds per operation
// family so a regression in either rebalance or evacuation is visible.
int CountPreviewBoundViolations(const FleetOpsRow& row) {
  if (row.ops != "sharded") {
    return 0;
  }
  const long long per_search =
      static_cast<long long>(row.cell_cap) * row.probes;
  int violations = 0;
  if (row.stats.rebalance_previews >
      row.stats.rebalance_decisions * per_search) {
    std::fprintf(stderr,
                 "PREVIEW BOUND VIOLATION: %d machines: %d rebalance previews > "
                 "%d searches * %lld\n",
                 row.num_machines, row.stats.rebalance_previews,
                 row.stats.rebalance_decisions, per_search);
    ++violations;
  }
  if (row.stats.evac_previews > row.stats.evac_decisions * per_search) {
    std::fprintf(stderr,
                 "PREVIEW BOUND VIOLATION: %d machines: %d evac previews > "
                 "%d searches * %lld\n",
                 row.num_machines, row.stats.evac_previews,
                 row.stats.evac_decisions, per_search);
    ++violations;
  }
  return violations;
}

void PrintFleetOpsRows(const std::vector<FleetOpsRow>& rows) {
  TablePrinter table({"machines", "fleet ops", "goal attainment", "rebal searches",
                      "rebal previews", "evac searches", "evac previews",
                      "previews/search", "passes", "skipped", "searches/s"});
  for (const FleetOpsRow& row : rows) {
    table.AddRow({std::to_string(row.num_machines), row.ops,
                  row.attainment < 0.0
                      ? "-"
                      : TablePrinter::Num(100.0 * row.attainment, 1) + "%",
                  std::to_string(row.stats.rebalance_decisions),
                  std::to_string(row.stats.rebalance_previews),
                  std::to_string(row.stats.evac_decisions),
                  std::to_string(row.stats.evac_previews),
                  TablePrinter::Num(row.PreviewsPerSearch(), 1),
                  std::to_string(row.stats.rebalance_passes),
                  std::to_string(row.stats.rebalance_passes_skipped),
                  TablePrinter::Num(row.SearchesPerSecond(), 0)});
  }
  table.Print(std::cout);
}

// Per-service-group availability snapshot: replicas placed and the distinct
// racks/zones holding one (DomainOccupancy::DomainsToLoss).
struct RackLossGroup {
  std::string group;
  int replicas = 0;
  int racks = 0;
  int zones = 0;
};

// One run of the rack-loss sweep.
struct RackLossRow {
  std::string contender;  // "flat" | "spread"
  std::string scenario;   // "baseline" | "rack-fail"
  double spread_weight = 0.0;
  int spread_cap = 0;
  FleetReport report;
  FleetStats stats;
  double damage_pp = 0.0;  // contender's own baseline attainment minus this
  // Snapshot at the failure instant (rack-fail scenario only).
  std::vector<RackLossGroup> groups;
  double mean_racks_to_loss = 0.0;  // over all groups with a placed replica
  int min_racks_to_loss = 0;        // over groups with >= 2 replicas
};

// Captures every service group's domains-to-loss at the first availability
// flip of the replay — the rack's first member failing — while the
// occupancy view still holds the pre-outage placement. That instant is the
// FLAQR question in motion: how spread out was each group when the domain
// actually died?
class DomainSnapshotObserver final : public EventObserver {
 public:
  explicit DomainSnapshotObserver(const FleetScheduler& fleet) : fleet_(&fleet) {}

  void OnMachineAvailability(int /*machine_id*/, MachineAvailability /*availability*/,
                             double /*now*/) override {
    if (captured_) {
      return;
    }
    captured_ = true;
    const DomainOccupancy& occupancy = fleet_->domain_occupancy();
    for (const std::string& name : occupancy.Groups()) {
      groups_.push_back({name, occupancy.Replicas(name),
                         occupancy.DomainsToLoss(name, DomainScope::kRack),
                         occupancy.DomainsToLoss(name, DomainScope::kZone)});
    }
  }

  const std::vector<RackLossGroup>& groups() const { return groups_; }

 private:
  const FleetScheduler* fleet_;
  bool captured_ = false;
  std::vector<RackLossGroup> groups_;
};

RackLossRow RunRackLoss(const FleetDef& def,
                        const std::map<std::string, GroupAssets>& groups,
                        const EventStream& trace, const char* scenario, bool spread,
                        int racks) {
  FleetConfig config;
  config.dispatch = "best-predicted";
  config.domain_racks = racks;
  if (spread) {
    config.spread_weight = 2.0;
    config.spread_max_per_rack = 2;
  }
  FleetScheduler fleet = BuildFleet(def, groups, config);

  RackLossRow row;
  row.contender = spread ? "spread" : "flat";
  row.scenario = scenario;
  row.spread_weight = config.spread_weight;
  row.spread_cap = config.spread_max_per_rack;
  DomainSnapshotObserver snapshot(fleet);
  row.report = fleet.ReplayWithEvaluation(trace, &snapshot);
  row.stats = fleet.stats();
  row.groups = snapshot.groups();
  double racks_sum = 0.0;
  int multi_replica = 0;
  for (const RackLossGroup& group : row.groups) {
    racks_sum += group.racks;
    if (group.replicas >= 2) {
      row.min_racks_to_loss = multi_replica == 0
                                  ? group.racks
                                  : std::min(row.min_racks_to_loss, group.racks);
      ++multi_replica;
    }
  }
  row.mean_racks_to_loss =
      row.groups.empty() ? 0.0 : racks_sum / static_cast<double>(row.groups.size());
  return row;
}

void PrintRackLossRows(const std::vector<RackLossRow>& rows) {
  TablePrinter table({"contender", "scenario", "goal attainment", "damage",
                      "mean racks-to-loss", "min racks-to-loss (multi)",
                      "failover moves", "requeued", "queue wait (s)"});
  for (const RackLossRow& row : rows) {
    table.AddRow({row.contender, row.scenario,
                  TablePrinter::Num(100.0 * row.report.goal_attainment, 1) + "%",
                  row.scenario == "baseline" ? "-"
                                             : TablePrinter::Num(row.damage_pp, 1) + "pp",
                  row.groups.empty() ? "-" : TablePrinter::Num(row.mean_racks_to_loss, 2),
                  row.groups.empty() ? "-" : std::to_string(row.min_racks_to_loss),
                  std::to_string(row.stats.failover_moves),
                  std::to_string(row.stats.evacuation_requeues),
                  TablePrinter::Num(row.report.mean_queue_wait_seconds, 1)});
  }
  table.Print(std::cout);
}

// One run of the admission sweep: a fixed mixed fleet, least-loaded
// dispatch, one admission policy in front of it, replaying either the
// diurnal baseline or the flash-crowd trace.
struct AdmissionRow {
  std::string policy;    // "admit-all" | "tiered"
  std::string scenario;  // "baseline" | "flash-crowd"
  FleetReport report;
  FleetStats stats;

  double RejectionRate(SloTier tier) const {
    const auto t = static_cast<size_t>(tier);
    return stats.tier_arrivals[t] > 0
               ? static_cast<double>(stats.tier_rejected[t]) / stats.tier_arrivals[t]
               : 0.0;
  }
  double Attainment(SloTier tier) const {
    return report.tier_goal_attainment[static_cast<size_t>(tier)];
  }
};

AdmissionRow RunAdmission(const FleetDef& def,
                          const std::map<std::string, GroupAssets>& groups,
                          const EventStream& trace, const std::string& policy,
                          const char* scenario) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  config.admission = policy;
  // A tight defer pool: once a couple of containers wait fleet-wide the
  // tiered policy sheds standard arrivals too, instead of building a
  // backlog whose drain re-saturates the fleet — deferred work seats on
  // any departure, ceiling or not — long after the burst has passed.
  config.admission_defer_limit = 2;
  FleetScheduler fleet = BuildFleet(def, groups, config);

  AdmissionRow row;
  row.policy = policy;
  row.scenario = scenario;
  row.report = fleet.ReplayWithEvaluation(trace);
  row.stats = fleet.stats();
  return row;
}

void PrintAdmissionRows(const std::vector<AdmissionRow>& rows) {
  TablePrinter table({"policy", "scenario", "tier", "arrivals", "admitted",
                      "deferred", "rejected", "preempted", "reject rate",
                      "attainment"});
  for (const AdmissionRow& row : rows) {
    for (int t = 0; t < kNumSloTiers; ++t) {
      const auto idx = static_cast<size_t>(t);
      const SloTier tier = static_cast<SloTier>(t);
      table.AddRow({row.policy, row.scenario, ToString(tier),
                    std::to_string(row.stats.tier_arrivals[idx]),
                    std::to_string(row.stats.tier_admitted[idx]),
                    std::to_string(row.stats.tier_deferred[idx]),
                    std::to_string(row.stats.tier_rejected[idx]),
                    std::to_string(row.stats.tier_preempted[idx]),
                    TablePrinter::Num(100.0 * row.RejectionRate(tier), 1) + "%",
                    TablePrinter::Num(100.0 * row.Attainment(tier), 1) + "%"});
    }
  }
  table.Print(std::cout);
}

// Emits <prefix>_count/p50/p95/p99/max for one histogram digest.
void WriteSummaryFields(JsonWriter& json, const std::string& prefix,
                        const HistogramSummary& summary) {
  json.Field(prefix + "_count", summary.count);
  json.Field(prefix + "_p50", summary.p50);
  json.Field(prefix + "_p95", summary.p95);
  json.Field(prefix + "_p99", summary.p99);
  json.Field(prefix + "_max", summary.max);
}

void WriteJson(const std::string& path, const std::vector<ResultRow>& rows,
               const std::vector<ScenarioRow>& scenario_rows,
               const std::vector<SweepRow>& sweep_rows,
               const std::vector<FleetOpsRow>& fleet_ops_rows,
               const std::vector<RackLossRow>& rack_loss_rows,
               const std::vector<AdmissionRow>& admission_rows, bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "bench_fleet");
  json.Field("smoke", smoke);
  json.Field("vcpus", kVcpus);
  json.Key("results");
  json.BeginArray();
  for (const ResultRow& row : rows) {
    json.BeginObject();
    json.Field("fleet", row.fleet);
    json.Field("num_machines", row.num_machines);
    json.Field("dispatch", row.dispatch);
    json.Field("goal_attainment", row.report.goal_attainment);
    json.Field("container_seconds_at_goal", row.report.container_seconds_at_goal);
    json.Field("mean_utilization", row.report.mean_utilization);
    json.Field("utilization_min", row.report.utilization_min);
    json.Field("utilization_max", row.report.utilization_max);
    json.Field("mean_queue_wait_seconds", row.report.mean_queue_wait_seconds);
    WriteSummaryFields(json, "queue_wait_seconds", row.queue_wait);
    WriteSummaryFields(json, "evacuation_latency_seconds", row.evac_latency);
    json.Field("queue_admissions", row.stats.queue_admissions);
    json.Field("rebalance_moves", row.stats.rebalance_moves);
    json.Field("drain_moves", row.stats.drain_moves);
    json.Field("failover_moves", row.stats.failover_moves);
    json.Field("cross_machine_move_seconds", row.stats.cross_machine_move_seconds);
    json.Field("network_copy_seconds", row.stats.network_copy_seconds);
    json.Field("probe_runs", row.machine_probe_runs);
    json.Field("dispatch_probe_runs", row.stats.fleet_probe_runs);
    json.Field("rebalance_previews", row.stats.rebalance_previews);
    json.Field("rebalance_decisions", row.stats.rebalance_decisions);
    json.Field("evac_previews", row.stats.evac_previews);
    json.Field("evac_decisions", row.stats.evac_decisions);
    json.Field("rebalance_passes", row.stats.rebalance_passes);
    json.Field("rebalance_passes_skipped", row.stats.rebalance_passes_skipped);
    json.Field("decisions", row.report.decisions);
    json.Field("wall_seconds", row.report.wall_seconds);
    json.Key("machine_utilizations");
    json.BeginArray();
    for (double utilization : row.report.machine_utilizations) {
      json.Number(utilization);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("failure_scenarios");
  json.BeginArray();
  for (const ScenarioRow& row : scenario_rows) {
    const EvacuationTotals totals = TotalsOf(row.run);
    json.BeginObject();
    json.Field("dispatch", row.run.dispatch);
    json.Field("scenario", row.scenario);
    json.Field("goal_attainment", row.run.report.goal_attainment);
    json.Field("damage_pp", row.damage_pp);
    json.Field("evacuation_latency_seconds", totals.latency_seconds);
    json.Field("rehomed", totals.rehomed);
    json.Field("requeued", totals.requeued);
    json.Field("evacuation_move_seconds", totals.move_seconds);
    json.Field("evacuation_requeues", row.run.stats.evacuation_requeues);
    json.Field("evacuation_moves", row.run.stats.evacuation_moves);
    json.Field("drain_moves", row.run.stats.drain_moves);
    json.Field("failover_moves", row.run.stats.failover_moves);
    json.Field("rebalance_moves", row.run.stats.rebalance_moves);
    json.Field("rebalance_previews", row.run.stats.rebalance_previews);
    json.Field("rebalance_decisions", row.run.stats.rebalance_decisions);
    json.Field("evac_previews", row.run.stats.evac_previews);
    json.Field("evac_decisions", row.run.stats.evac_decisions);
    json.Field("mean_queue_wait_seconds", row.run.report.mean_queue_wait_seconds);
    WriteSummaryFields(json, "queue_wait_seconds", row.run.queue_wait);
    WriteSummaryFields(json, "evacuation_latency_seconds", row.run.evac_latency);
    json.EndObject();
  }
  json.EndArray();
  json.Key("sharded_sweep");
  json.BeginArray();
  for (const SweepRow& row : sweep_rows) {
    json.BeginObject();
    json.Field("num_machines", row.num_machines);
    json.Field("dispatch", row.dispatch);
    json.Field("goal_attainment", row.report.goal_attainment);
    json.Field("container_seconds_at_goal", row.report.container_seconds_at_goal);
    json.Field("mean_utilization", row.report.mean_utilization);
    json.Field("mean_queue_wait_seconds", row.report.mean_queue_wait_seconds);
    WriteSummaryFields(json, "queue_wait_seconds", row.queue_wait);
    WriteSummaryFields(json, "evacuation_latency_seconds", row.evac_latency);
    json.Field("queue_admissions", row.stats.queue_admissions);
    json.Field("dispatch_previews", row.stats.dispatch_previews);
    json.Field("previews_per_decision", row.PreviewsPerDecision());
    json.Field("decisions", row.report.decisions);
    json.Field("wall_seconds", row.report.wall_seconds);
    json.Field("decisions_per_second", row.DecisionsPerSecond());
    json.EndObject();
  }
  json.EndArray();
  json.Key("fleet_ops_sweep");
  json.BeginArray();
  for (const FleetOpsRow& row : fleet_ops_rows) {
    json.BeginObject();
    json.Field("num_machines", row.num_machines);
    json.Field("fleet_ops", row.ops);
    json.Field("goal_attainment", row.attainment);
    json.Field("rebalance_previews", row.stats.rebalance_previews);
    json.Field("rebalance_decisions", row.stats.rebalance_decisions);
    json.Field("evac_previews", row.stats.evac_previews);
    json.Field("evac_decisions", row.stats.evac_decisions);
    json.Field("rebalance_passes", row.stats.rebalance_passes);
    json.Field("rebalance_passes_skipped", row.stats.rebalance_passes_skipped);
    json.Field("rebalance_moves", row.stats.rebalance_moves);
    json.Field("evacuation_moves", row.stats.evacuation_moves);
    json.Field("drain_moves", row.stats.drain_moves);
    json.Field("failover_moves", row.stats.failover_moves);
    json.Field("evacuation_requeues", row.stats.evacuation_requeues);
    json.Field("cell_cap", row.cell_cap);
    json.Field("fleet_probes", row.probes);
    json.Field("previews_per_search", row.PreviewsPerSearch());
    json.Field("replay_wall_seconds", row.replay_wall_seconds);
    json.Field("search_seconds", row.stats.fleet_op_search_seconds);
    json.Field("searches_per_second", row.SearchesPerSecond());
    json.EndObject();
  }
  json.EndArray();
  json.Key("rack_loss");
  json.BeginArray();
  for (const RackLossRow& row : rack_loss_rows) {
    json.BeginObject();
    json.Field("contender", row.contender);
    json.Field("scenario", row.scenario);
    json.Field("spread_weight", row.spread_weight);
    json.Field("spread_max_per_rack", row.spread_cap);
    json.Field("goal_attainment", row.report.goal_attainment);
    json.Field("damage_pp", row.damage_pp);
    json.Field("mean_queue_wait_seconds", row.report.mean_queue_wait_seconds);
    json.Field("queue_admissions", row.stats.queue_admissions);
    json.Field("rebalance_moves", row.stats.rebalance_moves);
    json.Field("drain_moves", row.stats.drain_moves);
    json.Field("failover_moves", row.stats.failover_moves);
    json.Field("evacuation_requeues", row.stats.evacuation_requeues);
    json.Field("mean_racks_to_loss", row.mean_racks_to_loss);
    json.Field("min_racks_to_loss", row.min_racks_to_loss);
    json.Key("groups");
    json.BeginArray();
    for (const RackLossGroup& group : row.groups) {
      json.BeginObject();
      json.Field("group", group.group);
      json.Field("replicas", group.replicas);
      json.Field("racks_to_loss", group.racks);
      json.Field("zones_to_loss", group.zones);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("admission_frontier");
  json.BeginArray();
  for (const AdmissionRow& row : admission_rows) {
    json.BeginObject();
    json.Field("policy", row.policy);
    json.Field("scenario", row.scenario);
    json.Field("goal_attainment", row.report.goal_attainment);
    json.Field("mean_queue_wait_seconds", row.report.mean_queue_wait_seconds);
    json.Field("queue_admissions", row.stats.queue_admissions);
    json.Key("tiers");
    json.BeginArray();
    for (int t = 0; t < kNumSloTiers; ++t) {
      const auto idx = static_cast<size_t>(t);
      const SloTier tier = static_cast<SloTier>(t);
      json.BeginObject();
      json.Field("tier", std::string(ToString(tier)));
      json.Field("arrivals", row.stats.tier_arrivals[idx]);
      json.Field("admitted", row.stats.tier_admitted[idx]);
      json.Field("deferred", row.stats.tier_deferred[idx]);
      json.Field("rejected", row.stats.tier_rejected[idx]);
      json.Field("preempted", row.stats.tier_preempted[idx]);
      json.Field("rejection_rate", row.RejectionRate(tier));
      json.Field("goal_attainment", row.Attainment(tier));
      json.Field("container_seconds",
                 row.report.tier_container_seconds[idx]);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fleet [--smoke] [--json <path>]\n");
      return 2;
    }
  }

  std::map<std::string, GroupAssets> groups;
  groups.emplace("amd", MakeGroup("amd", smoke));
  groups.emplace("intel", MakeGroup("intel", smoke));

  std::vector<FleetDef> fleets = {{"amd+intel", {"amd", "intel"}}};
  if (!smoke) {
    fleets.push_back({"2amd+2intel", {"amd", "amd", "intel", "intel"}});
  }

  TraceConfig base;
  base.num_containers = smoke ? 4 : 20;
  base.vcpus = kVcpus;
  // Moderate load: machines fill but rarely saturate. Under saturation a
  // load-blind dispatcher's forced queueing acts as accidental admission
  // control (fewer co-runners, less interference), which masks the dispatch
  // comparison the bench is about.
  base.goal_fraction = 1.05;
  base.mean_interarrival_seconds = 200.0;
  base.mean_lifetime_seconds = 500.0;

  std::vector<ResultRow> rows;
  int failures = 0;
  for (const FleetDef& def : fleets) {
    std::printf("\nfleet %s — %d machines, %d containers per stream, goal %.0f%%\n",
                def.label.c_str(), static_cast<int>(def.machines.size()),
                base.num_containers, 100.0 * base.goal_fraction);
    // The identical merged trace per fleet size: dispatch policies are the
    // only variable.
    Rng trace_rng(9);
    const EventStream trace =
        GenerateFleetTrace(base, static_cast<int>(def.machines.size()), trace_rng);
    for (const std::string& dispatch_name : DispatchRegistry::Global().Names()) {
      rows.push_back(RunOne(def, dispatch_name, groups, trace));
      failures += CountInvariantViolations(rows.back());
    }
  }
  std::printf("\n");
  PrintRows(rows);

  // The comparative claim, fleet-level: informed dispatch beats load-blind.
  for (const FleetDef& def : fleets) {
    const auto attainment_of = [&](const std::string& dispatch_name) {
      for (const ResultRow& row : rows) {
        if (row.fleet == def.label && row.dispatch == dispatch_name) {
          return row.report.goal_attainment;
        }
      }
      std::fprintf(stderr, "dispatch '%s' missing from the sweep\n",
                   dispatch_name.c_str());
      std::exit(1);
    };
    const double best = attainment_of("best-predicted");
    const double rr = attainment_of("round-robin");
    std::printf("%s: best-predicted vs round-robin goal attainment: %+.1f pp %s\n",
                def.label.c_str(), 100.0 * (best - rr),
                best > rr ? "(best-predicted wins)" : "(ROUND-ROBIN WINS?)");
    if (best <= rr) {
      ++failures;
    }
  }

  // Failure scenarios: the same trace on the amd+intel fleet, unperturbed
  // vs. machine 0 (amd) failing or draining at mid-trace and rejoining at
  // the three-quarter mark — how much goal attainment does an outage cost,
  // and how fast does each dispatch policy land the evacuees?
  const FleetDef& scenario_def = fleets.front();
  Rng scenario_rng(9);
  const EventStream scenario_trace = GenerateFleetTrace(
      base, static_cast<int>(scenario_def.machines.size()), scenario_rng);
  const double t_event = 0.5 * scenario_trace.EndTime();
  const double t_rejoin = 0.75 * scenario_trace.EndTime();
  std::printf("\nfailure scenarios on %s: machine 0 leaves at t=%.0fs, rejoins at "
              "t=%.0fs\n\n",
              scenario_def.label.c_str(), t_event, t_rejoin);

  std::vector<ScenarioRow> scenario_rows;
  for (const std::string& dispatch_name : DispatchRegistry::Global().Names()) {
    double baseline_attainment = 0.0;
    for (const char* scenario : {"baseline", "fail", "drain"}) {
      EventStream trace = scenario_trace;
      if (std::strcmp(scenario, "fail") == 0) {
        trace = InjectMachineEvents(
            std::move(trace),
            {FleetEvent::Fail(t_event, 0), FleetEvent::Rejoin(t_rejoin, 0)});
      } else if (std::strcmp(scenario, "drain") == 0) {
        trace = InjectMachineEvents(
            std::move(trace),
            {FleetEvent::Drain(t_event, 0), FleetEvent::Rejoin(t_rejoin, 0)});
      }
      ScenarioRow row;
      row.scenario = scenario;
      row.run = RunOne(scenario_def, dispatch_name, groups, trace);
      failures += CountInvariantViolations(row.run);
      if (std::strcmp(scenario, "baseline") == 0) {
        baseline_attainment = row.run.report.goal_attainment;
      }
      row.damage_pp =
          100.0 * (baseline_attainment - row.run.report.goal_attainment);
      scenario_rows.push_back(std::move(row));
    }
  }
  PrintScenarioRows(scenario_rows);

  // Scaling sweep: mixed fleets 16 -> 256 machines (4 in smoke mode), the
  // sharded dispatcher against the flat walks on the identical trace per
  // size. Departure rebalancing is off — its all-machines scan is the same
  // for every dispatcher and would bury the dispatch cost under test. The
  // trace is lighter per machine than the head-to-head above so the largest
  // fleet stays tractable.
  const std::vector<int> sweep_sizes = smoke ? std::vector<int>{4}
                                             : std::vector<int>{16, 64, 256};
  TraceConfig sweep_base = base;
  sweep_base.num_containers = smoke ? 2 : 6;
  std::printf("\nsharded dispatch sweep — %d containers per machine stream, "
              "rebalance off\n",
              sweep_base.num_containers);
  std::vector<SweepRow> sweep_rows;
  for (int n : sweep_sizes) {
    const FleetDef def = MixedFleet(n);
    Rng sweep_rng(21);
    const EventStream trace = GenerateFleetTrace(sweep_base, n, sweep_rng);
    for (const char* dispatch_name : {"least-loaded", "best-predicted", "sharded"}) {
      ResultRow run = RunOne(def, dispatch_name, groups, trace,
                             /*rebalance_on_departure=*/false);
      failures += CountInvariantViolations(run);
      sweep_rows.push_back(
          {n, dispatch_name, run.report, run.stats, run.queue_wait, run.evac_latency});
    }
  }
  std::printf("\n");
  PrintSweepRows(sweep_rows);

  // The scaling claim at every size, enforced at the largest in full mode:
  // sharded >= 4x flat best-predicted decision throughput within 1pp of its
  // goal attainment.
  const auto sweep_of = [&](int n, const char* dispatch_name) -> const SweepRow& {
    for (const SweepRow& row : sweep_rows) {
      if (row.num_machines == n && row.dispatch == dispatch_name) {
        return row;
      }
    }
    std::fprintf(stderr, "sweep row (%d, %s) missing\n", n, dispatch_name);
    std::exit(1);
  };
  for (int n : sweep_sizes) {
    const SweepRow& flat = sweep_of(n, "best-predicted");
    const SweepRow& shard = sweep_of(n, "sharded");
    const double speedup = flat.DecisionsPerSecond() > 0.0
                               ? shard.DecisionsPerSecond() / flat.DecisionsPerSecond()
                               : 0.0;
    const double loss_pp =
        100.0 * (flat.report.goal_attainment - shard.report.goal_attainment);
    std::printf("%d machines: sharded vs best-predicted: %.1fx decision throughput, "
                "%+.2fpp attainment delta, previews/decision %.1f vs %.1f\n",
                n, speedup, -loss_pp, shard.PreviewsPerDecision(),
                flat.PreviewsPerDecision());
    if (!smoke && n == sweep_sizes.back()) {
      if (speedup < 4.0) {
        std::fprintf(stderr, "FAIL: sharded speedup %.1fx < 4x at %d machines\n",
                     speedup, n);
        ++failures;
      }
      if (loss_pp > 1.0) {
        std::fprintf(stderr, "FAIL: sharded attainment loss %.2fpp > 1pp at %d "
                             "machines\n",
                     loss_pp, n);
        ++failures;
      }
    }
  }

  // Fleet-operations sweep: rebalance ON and a mass evacuation mid-trace,
  // sharded (capacity-index-guided) vs full-scan target search, 16 -> 1024
  // machines. The low goal keeps incumbents at goal so the searches under
  // load are the ones that matter: queued waiters and drain evacuees. Smoke
  // runs the 16-machine pair plus the sharded 1024-machine row (the CI
  // preview-bound gate); full mode runs both contenders at every size, with
  // the evaluation loop (attainment) up to 256 and plain timed replay at
  // 1024 where the evaluation loop would swamp the search cost.
  const std::vector<int> ops_sizes = smoke ? std::vector<int>{16, 1024}
                                           : std::vector<int>{16, 64, 256, 1024};
  TraceConfig ops_base = sweep_base;
  ops_base.goal_fraction = 0.5;
  std::printf("\nfleet-ops sweep — mass drain of n/8 machines at half-trace, "
              "%d containers per machine stream, rebalance on\n",
              ops_base.num_containers);
  std::vector<FleetOpsRow> fleet_ops_rows;
  for (int n : ops_sizes) {
    const bool evaluate = !smoke && n <= 256;
    const EventStream trace = MassEvacTrace(ops_base, n, 33);
    for (const bool sharded_ops : {true, false}) {
      if (smoke && !sharded_ops && n > 16) {
        continue;  // the 1024-machine full scan is a full-mode-only contender
      }
      const FleetDef def = MixedFleet(n);
      fleet_ops_rows.push_back(RunFleetOps(def, groups, trace, sharded_ops, evaluate));
      failures += CountPreviewBoundViolations(fleet_ops_rows.back());
    }
  }
  std::printf("\n");
  PrintFleetOpsRows(fleet_ops_rows);

  const auto ops_of = [&](int n, const char* ops) -> const FleetOpsRow* {
    for (const FleetOpsRow& row : fleet_ops_rows) {
      if (row.num_machines == n && row.ops == ops) {
        return &row;
      }
    }
    return nullptr;
  };
  for (int n : ops_sizes) {
    const FleetOpsRow* shard = ops_of(n, "sharded");
    const FleetOpsRow* full = ops_of(n, "full-scan");
    if (shard == nullptr || full == nullptr) {
      continue;
    }
    const double speedup = full->SearchesPerSecond() > 0.0
                               ? shard->SearchesPerSecond() / full->SearchesPerSecond()
                               : 0.0;
    std::printf("%d machines: sharded vs full-scan fleet ops: previews/search "
                "%.1f vs %.1f, %.1fx search throughput\n",
                n, shard->PreviewsPerSearch(), full->PreviewsPerSearch(), speedup);
    if (!smoke && n == 256) {
      // Attainment parity: pruning the target search must not cost goals.
      const double delta_pp =
          100.0 * (full->attainment - shard->attainment);
      if (delta_pp > 1.0) {
        std::fprintf(stderr,
                     "FAIL: sharded fleet ops lose %.2fpp attainment > 1pp at "
                     "%d machines\n",
                     delta_pp, n);
        ++failures;
      }
    }
    if (!smoke && n == ops_sizes.back()) {
      if (speedup < 4.0) {
        std::fprintf(stderr,
                     "FAIL: sharded fleet-op search throughput %.1fx < 4x at "
                     "%d machines\n",
                     speedup, n);
        ++failures;
      }
    }
  }

  // Rack-loss sweep: one fleet, two contenders, two scenarios. The fleet is
  // laid out over contiguous racks (amd/intel alternate within each rack);
  // the rack-fail trace kills rack 0 — every member machine at once, via one
  // domain-scoped event — at mid-trace with no rejoin, so the damage window
  // runs to the end of the trace. Both contenders dispatch best-predicted;
  // "spread" adds the rack co-location penalty and per-rack cap. The load is
  // heavier than the scaling sweeps: correlated damage only shows once the
  // survivors are crowded enough that evacuees interfere.
  const int rack_machines = smoke ? 16 : 64;
  const int rack_count = smoke ? 4 : 8;
  const FleetDef rack_def = MixedFleet(rack_machines);
  TraceConfig rack_base = sweep_base;
  rack_base.num_containers = smoke ? 3 : 6;
  rack_base.mean_interarrival_seconds = 120.0;
  Rng rack_rng(55);
  const EventStream rack_baseline =
      GenerateFleetTrace(rack_base, rack_machines, rack_rng);
  // Mid-arrival-window, not mid-trace-span: EndTime() rides the exponential
  // lifetime tail (one long-lived container can double it), which would put
  // the failure after the load has drained and measure nothing. Halfway
  // through the arrival window the fleet is at peak occupancy.
  const double t_rack_fail =
      0.5 * rack_base.num_containers * rack_base.mean_interarrival_seconds;
  // The same Uniform layout the fleets below build from their config — the
  // expansion of the domain event and the spread bookkeeping agree on what
  // rack 0 is.
  const FailureDomainTopology rack_topo =
      FailureDomainTopology::Uniform(rack_machines, rack_count);
  EventStream rack_fail_copy = rack_baseline;
  const EventStream rack_fail_trace = InjectMachineEvents(
      std::move(rack_fail_copy),
      {FleetEvent::FailDomain(t_rack_fail, DomainScope::kRack, 0)}, rack_topo);
  std::printf("\nrack-loss sweep — %d machines over %d racks, rack 0 (%d machines) "
              "fails at t=%.0fs with no rejoin\n",
              rack_machines, rack_count,
              static_cast<int>(rack_topo.MachinesInRack(0).size()), t_rack_fail);
  std::vector<RackLossRow> rack_loss_rows;
  for (const bool spread : {false, true}) {
    double baseline_attainment = 0.0;
    for (const char* scenario : {"baseline", "rack-fail"}) {
      const bool is_baseline = std::strcmp(scenario, "baseline") == 0;
      RackLossRow row = RunRackLoss(rack_def, groups,
                                    is_baseline ? rack_baseline : rack_fail_trace,
                                    scenario, spread, rack_count);
      if (is_baseline) {
        baseline_attainment = row.report.goal_attainment;
      }
      row.damage_pp = 100.0 * (baseline_attainment - row.report.goal_attainment);
      rack_loss_rows.push_back(std::move(row));
    }
  }
  std::printf("\n");
  PrintRackLossRows(rack_loss_rows);

  // The correlated-failure claim: spread dispatch bounds the attainment
  // damage of a rack loss — strictly less than flat best-predicted — and
  // buys it by holding every group across more racks (mean racks-to-loss no
  // worse than flat).
  const auto rack_of = [&](const char* contender,
                           const char* scenario) -> const RackLossRow& {
    for (const RackLossRow& row : rack_loss_rows) {
      if (row.contender == contender && row.scenario == scenario) {
        return row;
      }
    }
    std::fprintf(stderr, "rack-loss row (%s, %s) missing\n", contender, scenario);
    std::exit(1);
  };
  const RackLossRow& flat_loss = rack_of("flat", "rack-fail");
  const RackLossRow& spread_loss = rack_of("spread", "rack-fail");
  std::printf("rack loss: flat damage %.2fpp vs spread damage %.2fpp (%+.2fpp), "
              "mean racks-to-loss %.2f vs %.2f\n",
              flat_loss.damage_pp, spread_loss.damage_pp,
              flat_loss.damage_pp - spread_loss.damage_pp,
              flat_loss.mean_racks_to_loss, spread_loss.mean_racks_to_loss);
  if (spread_loss.damage_pp >= flat_loss.damage_pp) {
    std::fprintf(stderr,
                 "FAIL: spread rack-loss damage %.2fpp is not strictly below flat's "
                 "%.2fpp\n",
                 spread_loss.damage_pp, flat_loss.damage_pp);
    ++failures;
  }
  if (spread_loss.mean_racks_to_loss < flat_loss.mean_racks_to_loss) {
    std::fprintf(stderr,
                 "FAIL: spread mean racks-to-loss %.2f below flat's %.2f\n",
                 spread_loss.mean_racks_to_loss, flat_loss.mean_racks_to_loss);
    ++failures;
  }

  // Admission sweep: the same mixed fleet replays a diurnal baseline and a
  // flash-crowd trace (identical baseline arrivals — the burst draws come
  // after the baseline draws in every stream's forked RNG — plus
  // best-effort-heavy spikes), each under admit-all and tiered admission.
  // The frontier is per-tier rejection rate vs. attainment; the claim is
  // that tiered admission sheds the flash crowd onto best-effort while
  // premium rides through the overload at its uncongested attainment.
  const int admission_machines = smoke ? 4 : 8;
  const FleetDef admission_def = MixedFleet(admission_machines);
  FlashCrowdConfig crowd;
  crowd.base = base;
  crowd.base.num_containers = smoke ? 4 : 10;
  // An attainable SLO target (as in the fleet-ops sweep): at this goal a
  // container meets its SLO unless it is parked in a queue or heavily
  // crowded, so the frontier measures what admission actually controls —
  // queueing and crowding — rather than the razor-thin throughput margin of
  // the dispatch head-to-head above. The baseline runs below saturation
  // (that is what "uncongested" means for the premium gate); the flash
  // crowds are sharp and short-lived, the shape admission can actually
  // absorb — a permanently saturating arrival-rate step is a capacity
  // problem, not an overload transient.
  crowd.base.goal_fraction = 0.5;
  crowd.base.mean_interarrival_seconds = 240.0;
  crowd.bursts = 0;  // the baseline scenario: diurnal modulation only
  crowd.burst_containers = smoke ? 10 : 20;
  crowd.burst_mean_lifetime_seconds = 120.0;
  FlashCrowdConfig flash = crowd;
  flash.bursts = smoke ? 1 : 2;
  // Flash crowds are the best-effort-heavy traffic tiers exist to shed;
  // premium's arrival set is identical across the two scenarios, so its
  // attainment delta isolates the overload damage to premium service.
  flash.burst_premium_fraction = 0.0;
  flash.burst_best_effort_fraction = 0.9;
  Rng admission_baseline_rng(77);
  Rng admission_flash_rng(77);
  const EventStream admission_baseline =
      GenerateFlashCrowdTrace(crowd, admission_machines, admission_baseline_rng);
  const EventStream admission_flash =
      GenerateFlashCrowdTrace(flash, admission_machines, admission_flash_rng);
  std::printf("\nadmission sweep — %d machines, %d baseline containers per stream, "
              "%d burst(s) of %d, policies admit-all vs tiered\n",
              admission_machines, crowd.base.num_containers, flash.bursts,
              flash.burst_containers);
  std::vector<AdmissionRow> admission_rows;
  for (const char* policy : {"admit-all", "tiered"}) {
    for (const char* scenario : {"baseline", "flash-crowd"}) {
      const bool is_baseline = std::strcmp(scenario, "baseline") == 0;
      admission_rows.push_back(
          RunAdmission(admission_def, groups,
                       is_baseline ? admission_baseline : admission_flash, policy,
                       scenario));
    }
  }
  std::printf("\n");
  PrintAdmissionRows(admission_rows);

  // The overload-protection claim, on the tiered flash-crowd run: premium
  // attainment within 0.5pp of its own uncongested (tiered baseline) value,
  // and strictly more best-effort than premium shedding.
  const auto admission_of = [&](const char* policy,
                                const char* scenario) -> const AdmissionRow& {
    for (const AdmissionRow& row : admission_rows) {
      if (row.policy == policy && row.scenario == scenario) {
        return row;
      }
    }
    std::fprintf(stderr, "admission row (%s, %s) missing\n", policy, scenario);
    std::exit(1);
  };
  const AdmissionRow& tiered_calm = admission_of("tiered", "baseline");
  const AdmissionRow& tiered_flash = admission_of("tiered", "flash-crowd");
  const AdmissionRow& admit_all_flash = admission_of("admit-all", "flash-crowd");
  const double premium_delta_pp =
      100.0 * (tiered_calm.Attainment(SloTier::kPremium) -
               tiered_flash.Attainment(SloTier::kPremium));
  std::printf("flash crowd: tiered premium attainment %.1f%% (baseline %.1f%%, "
              "delta %+.2fpp); rejection rates premium %.1f%% / standard %.1f%% / "
              "best-effort %.1f%%; admit-all flash attainment %.1f%%\n",
              100.0 * tiered_flash.Attainment(SloTier::kPremium),
              100.0 * tiered_calm.Attainment(SloTier::kPremium), -premium_delta_pp,
              100.0 * tiered_flash.RejectionRate(SloTier::kPremium),
              100.0 * tiered_flash.RejectionRate(SloTier::kStandard),
              100.0 * tiered_flash.RejectionRate(SloTier::kBestEffort),
              100.0 * admit_all_flash.report.goal_attainment);
  if (premium_delta_pp > 0.5) {
    std::fprintf(stderr,
                 "FAIL: tiered flash-crowd premium attainment %.2fpp below its "
                 "uncongested baseline (bound 0.5pp)\n",
                 premium_delta_pp);
    ++failures;
  }
  if (tiered_flash.RejectionRate(SloTier::kBestEffort) <=
      tiered_flash.RejectionRate(SloTier::kPremium)) {
    std::fprintf(stderr,
                 "FAIL: tiered flash-crowd best-effort rejection rate %.2f%% not "
                 "strictly above premium's %.2f%%\n",
                 100.0 * tiered_flash.RejectionRate(SloTier::kBestEffort),
                 100.0 * tiered_flash.RejectionRate(SloTier::kPremium));
    ++failures;
  }

  if (!json_path.empty()) {
    WriteJson(json_path, rows, scenario_rows, sweep_rows, fleet_ops_rows,
              rack_loss_rows, admission_rows, smoke);
  }
  return failures == 0 ? 0 : 1;
}
