// numaplace command-line tool.
//
// Subcommands:
//   placements <machine> <vcpus>      list the important placements
//   concerns <machine>                print the machine's scheduling concerns
//   train <machine> <vcpus> <file>    train a model and save it to <file>
//   predict <file> <perf_a> <perf_b>  load a model and predict the vector
//                                     from two probe measurements
//   migrate <workload>                estimate migration costs for a
//                                     catalog workload
//   policies                          list the registered scheduling and
//                                     dispatch policies
//   schedule <machine> <vcpus> <containers> [seed] [policy]
//                                     generate a Poisson arrival/departure
//                                     trace and replay it through the
//                                     multi-tenant scheduler under the named
//                                     policy (default "model", which trains
//                                     a model first), printing utilization
//                                     and slowdowns
//   fleet <machines> <vcpus> <containers> [seed] [dispatch] [policy]
//         [--dispatch <name>] [--cells <N>] [--probes <d>]
//         [--fleet-probes <d>]
//         [--racks <R>] [--zones <Z>] [--spread-weight <w>] [--spread-cap <n>]
//         [--fail <spec>] [--drain <spec>] [--rejoin <spec>]
//         [--admission <name>] [--tiers <group>=<tier>[,...]]
//         [--defer-limit <n>] [--flash-crowd] [--bursts <B>]
//         [--burst-containers <n>]
//         [--json <path>] [--trace-out <path>] [--metrics-out <path>]
//         [--metrics-interval <seconds>]
//                                     build a fleet from a comma-separated
//                                     machine list (e.g. amd,amd,intel),
//                                     generate one merged trace with
//                                     <containers> containers per machine,
//                                     inject any scripted machine/rack/zone
//                                     fail/drain/rejoin events (repeatable
//                                     flags; <spec> is <machine>@<t>,
//                                     rack:<R>@<t> or zone:<Z>@<t>, times in
//                                     trace seconds), and replay it through
//                                     the cluster scheduler under the named
//                                     dispatch policy (default
//                                     "least-loaded") with every machine
//                                     running [policy] (default "model").
//                                     --cells/--probes tune the sharded
//                                     dispatcher (and imply --dispatch
//                                     sharded); --fleet-probes tunes the
//                                     capacity-index fleet-op search (0 is
//                                     the full scan); --racks/--zones shape
//                                     the failure-domain layout and
//                                     --spread-weight/--spread-cap turn on
//                                     spread-aware dispatch. --admission
//                                     places an SLO-tiered admission policy
//                                     in front of dispatch (--tiers
//                                     overrides service-group tiers,
//                                     --defer-limit bounds the fleet-wide
//                                     wait pool) and --flash-crowd swaps in
//                                     the diurnal + burst overload trace
//                                     (--bursts/--burst-containers shape
//                                     the spikes). --json writes
//                                     the run's tables as JSON;
//                                     --trace-out/--metrics-out/
//                                     --metrics-interval attach the
//                                     telemetry layer (Chrome trace spans,
//                                     JSONL snapshots, percentile summary —
//                                     see docs/OBSERVABILITY.md)
//
// Machines: amd (Opteron 6272), intel (Xeon E7-4830 v3), zen, cod.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/admission.h"
#include "src/cluster/dispatch.h"
#include "src/cluster/fleet.h"
#include "src/core/concern.h"
#include "src/core/enumerate.h"
#include "src/core/important.h"
#include "src/migration/migration.h"
#include "src/model/pipeline.h"
#include "src/model/registry.h"
#include "src/scheduler/policy.h"
#include "src/scheduler/scheduler.h"
#include "src/sim/perf_model.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/metrics_observer.h"
#include "src/telemetry/snapshots.h"
#include "src/telemetry/spans.h"
#include "src/topology/machines.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/workloads/synth.h"
#include "src/workloads/trace.h"

namespace {

using namespace numaplace;

Topology MakeMachine(const std::string& name) {
  if (name == "amd") {
    return AmdOpteron6272();
  }
  if (name == "intel") {
    return IntelXeonE74830v3();
  }
  if (name == "zen") {
    return AmdZenLike();
  }
  if (name == "cod") {
    return HaswellClusterOnDie();
  }
  std::fprintf(stderr, "unknown machine '%s' (expected amd|intel|zen|cod)\n",
               name.c_str());
  std::exit(2);
}

// Rejects a container size the machine cannot hold, or cannot spread
// evenly over its nodes, L3 groups or L2 groups (GenerateImportantPlacements
// needs a balanced score for each): prints one line and returns false.
bool CheckVcpus(const Topology& machine, int vcpus) {
  if (vcpus <= 0) {
    std::fprintf(stderr, "the vCPU count must be positive, got %d\n", vcpus);
    return false;
  }
  if (vcpus > machine.NumHwThreads()) {
    std::fprintf(stderr, "%d vCPUs exceed the %d hardware threads of %s\n", vcpus,
                 machine.NumHwThreads(), machine.name().c_str());
    return false;
  }
  const struct {
    const char* unit;
    int count;
    int capacity;
  } levels[] = {{"NUMA nodes", machine.num_nodes(), machine.NodeCapacity()},
                {"L3 groups", machine.NumL3Groups(), machine.L3GroupCapacity()},
                {"L2 groups", machine.NumL2Groups(), machine.L2GroupCapacity()}};
  for (const auto& level : levels) {
    if (GenerateScores(vcpus, level.count, level.capacity).empty()) {
      std::fprintf(stderr,
                   "%d vCPUs cannot be spread evenly over the %d %s (%d hardware threads "
                   "each) of %s\n",
                   vcpus, level.count, level.unit, level.capacity, machine.name().c_str());
      return false;
    }
  }
  return true;
}

// Rejects a placement set nothing can be placed from (a balanced size whose
// node counts pack no machine) or, when `needs_model`, that the probe-pair
// search cannot train on (it probes two distinct placements): prints one
// line and returns false. Runs before any training starts.
bool CheckPlacements(const ImportantPlacementSet& set, const std::string& machine,
                     bool needs_model) {
  if (needs_model && set.placements.size() < 2) {
    std::fprintf(stderr,
                 "cannot train a model for %s at %d vCPUs: it has %zu important "
                 "placement(s), and the model probes two\n",
                 machine.c_str(), set.vcpus, set.placements.size());
    return false;
  }
  if (set.placements.empty()) {
    std::fprintf(stderr, "%s has no important placement at %d vCPUs\n", machine.c_str(),
                 set.vcpus);
    return false;
  }
  return true;
}

// The paper's baseline placement: #2 on the Intel system, #1 elsewhere.
int BaselineIdFor(const std::string& machine_name) {
  return machine_name == "intel" ? 2 : 1;
}

// The CLI's one training recipe: 72 synthetic workloads measured on a
// noisy simulator of the machine, the pipeline's automatic probe-pair
// search and default model settings.
TrainedPerfModel TrainCliModel(const Topology& machine, const ImportantPlacementSet& set,
                               int baseline_id) {
  std::printf("training a model for (%s, %d vCPUs) on 72 synthetic workloads...\n",
              machine.name().c_str(), set.vcpus);
  const PerformanceModel sim(machine, 0.015, 1);
  ModelPipeline pipeline(set, sim, baseline_id, 42);
  Rng rng(7);
  return pipeline.TrainPerfAuto(SampleTrainingWorkloads(72, rng), PerfModelConfig());
}

int CmdPlacements(const std::string& machine_name, int vcpus) {
  const Topology machine = MakeMachine(machine_name);
  if (!CheckVcpus(machine, vcpus)) {
    return 2;
  }
  const bool use_ic = InterconnectIsAsymmetric(machine);
  const ImportantPlacementSet set = GenerateImportantPlacements(machine, vcpus, use_ic);
  std::printf("%s, %d vCPUs: %zu important placements\n", machine.name().c_str(), vcpus,
              set.placements.size());
  for (const ImportantPlacement& p : set.placements) {
    std::printf("  %s\n", p.ToString().c_str());
  }
  return 0;
}

int CmdConcerns(const std::string& machine_name) {
  const Topology machine = MakeMachine(machine_name);
  const bool use_ic = InterconnectIsAsymmetric(machine);
  std::printf("%s\n", machine.name().c_str());
  TablePrinter table({"concern", "resources", "cost?", "inverse perf possible?"});
  for (const auto& concern : ConcernsFor(machine, use_ic)) {
    table.AddRow({concern->name(), concern->resources(),
                  concern->AffectsCost() ? "Y" : "N",
                  concern->InversePerfPossible() ? "Y" : "N"});
  }
  table.Print(std::cout);
  return 0;
}

int CmdTrain(const std::string& machine_name, int vcpus, const std::string& path) {
  const Topology machine = MakeMachine(machine_name);
  if (!CheckVcpus(machine, vcpus)) {
    return 2;
  }
  const bool use_ic = InterconnectIsAsymmetric(machine);
  const ImportantPlacementSet set = GenerateImportantPlacements(machine, vcpus, use_ic);
  if (!CheckPlacements(set, machine.name(), /*needs_model=*/true)) {
    return 2;
  }
  const TrainedPerfModel model =
      TrainCliModel(machine, set, BaselineIdFor(machine_name));
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  model.SaveText(out);
  std::printf("saved model to %s (probe placements #%d and #%d, baseline #%d)\n",
              path.c_str(), model.input_a, model.input_b, model.baseline_id);
  return 0;
}

int CmdPredict(const std::string& path, double perf_a, double perf_b) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  TrainedPerfModel model;
  try {
    model = TrainedPerfModel::LoadText(in);
  } catch (const std::exception&) {
    std::fprintf(stderr, "%s is not a readable numaplace model file\n", path.c_str());
    return 2;
  }
  const std::vector<double> predicted = model.Predict(perf_a, perf_b);
  std::printf("probe placements: #%d (%.6g) and #%d (%.6g)\n", model.input_a, perf_a,
              model.input_b, perf_b);
  std::printf("predicted performance relative to baseline placement #%d:\n",
              model.baseline_id);
  for (size_t i = 0; i < predicted.size(); ++i) {
    std::printf("  placement #%-3d %.3f\n", model.placement_ids[i], predicted[i]);
  }
  return 0;
}

int CmdMigrate(const std::string& workload_name) {
  const WorkloadProfile& w = PaperWorkload(workload_name);
  const FastMigrator fast;
  const DefaultLinuxMigrator def;
  const ThrottledMigrator throttled(0.05);
  std::printf("%s: %.2f GB (%.2f anon + %.2f page cache), %d tasks / %d processes\n",
              w.name.c_str(), w.TotalMemoryGb(), w.anon_gb, w.page_cache_gb, w.num_tasks,
              w.num_processes);
  TablePrinter table({"migrator", "time (s)", "page cache", "freezes", "overhead"});
  for (const Migrator* m :
       std::initializer_list<const Migrator*>{&fast, &def, &throttled}) {
    const MigrationEstimate e = m->Migrate(w);
    table.AddRow({m->name(), TablePrinter::Num(e.seconds, 1),
                  e.migrates_page_cache ? "migrated" : "left behind",
                  e.freezes_container ? "yes" : "no",
                  TablePrinter::Num(100.0 * e.overhead_fraction, 0) + "%"});
  }
  table.Print(std::cout);
  return 0;
}

int CmdPolicies() {
  std::printf("registered scheduling policies:\n");
  for (const std::string& name : PolicyRegistry::Global().Names()) {
    const std::unique_ptr<SchedulingPolicy> policy = MakePolicy(name);
    std::printf("  %-14s %s\n", name.c_str(),
                policy->UsesModel() ? "(probes and predicts with the trained model)"
                                    : "(structural, no probes)");
  }
  std::printf("registered fleet dispatch policies:\n");
  for (const std::string& name : DispatchRegistry::Global().Names()) {
    const std::unique_ptr<DispatchPolicy> dispatch = MakeDispatchPolicy(name);
    const char* description =
        name == "sharded"
            ? "(samples dispatch cells; previews only within the sample)"
            : dispatch->NeedsPreviews() ? "(previews every machine's top candidate)"
                                        : "(load/order based, no previews)";
    std::printf("  %-14s %s\n", name.c_str(), description);
  }
  std::printf("registered fleet admission policies:\n");
  for (const std::string& name : AdmissionRegistry::Global().Names()) {
    const char* description =
        name == "tiered"
            ? "(premium preempts, standard defers then rejects, best-effort sheds)"
            : "(every arrival proceeds to dispatch)";
    std::printf("  %-14s %s\n", name.c_str(), description);
  }
  return 0;
}

int CmdSchedule(const std::string& machine_name, int vcpus, int num_containers,
                uint64_t seed, const std::string& policy_name) {
  if (num_containers <= 0) {
    std::fprintf(stderr, "need at least one container to schedule\n");
    return 2;
  }
  if (!PolicyRegistry::Global().Has(policy_name)) {
    std::fprintf(stderr, "unknown policy '%s'; registered:", policy_name.c_str());
    for (const std::string& name : PolicyRegistry::Global().Names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Topology machine = MakeMachine(machine_name);
  if (!CheckVcpus(machine, vcpus)) {
    return 2;
  }
  const bool use_ic = InterconnectIsAsymmetric(machine);
  const ImportantPlacementSet set = GenerateImportantPlacements(machine, vcpus, use_ic);
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(policy_name);
  if (!CheckPlacements(set, machine.name(), policy->UsesModel())) {
    return 2;
  }
  const int baseline_id = BaselineIdFor(machine_name);
  PerformanceModel solo(machine, 0.015, 1);
  MultiTenantModel multi(machine, 0.015, 1);

  ModelRegistry registry;
  SchedulerConfig sched_config;
  sched_config.policy = policy_name;
  sched_config.baseline_id = baseline_id;
  sched_config.use_interconnect_concern = use_ic;
  if (policy->UsesModel()) {
    registry.Register(machine.name(), vcpus, TrainCliModel(machine, set, baseline_id));
  }
  MachineScheduler scheduler(machine, solo, &registry, sched_config, std::move(policy));
  scheduler.ProvidePlacements(set);

  TraceConfig trace_config;
  trace_config.num_containers = num_containers;
  trace_config.vcpus = vcpus;
  trace_config.goal_fraction = 0.9;
  trace_config.mean_interarrival_seconds = 120.0;
  trace_config.mean_lifetime_seconds = 480.0;
  Rng trace_rng(seed);
  const EventStream trace = GeneratePoissonTrace(trace_config, trace_rng);
  std::printf("replaying %zu events (%d containers, Poisson arrivals, policy '%s')...\n\n",
              trace.size(), num_containers, policy_name.c_str());

  // Final per-container state by last outcome; the workload names carry the
  // catalog application plus the container id.
  std::map<int, std::string> workload_names;
  for (const FleetEvent& event : trace) {
    if (const ContainerArrival* arrival = event.arrival()) {
      workload_names[arrival->container_id] = arrival->workload.name;
    }
  }

  OutcomeRecorder recorder;
  const TenancyReport report = ReplayWithEvaluation(scheduler, trace, multi, &recorder);

  TablePrinter containers({"container", "workload", "placed", "final placement",
                           "re-places", "predicted/goal"});
  std::map<int, const ScheduleOutcome*> last_outcome;
  for (const FleetOutcome& fleet_outcome : recorder.outcomes) {
    last_outcome[fleet_outcome.outcome.container_id] = &fleet_outcome.outcome;
  }
  for (const auto& [id, outcome] : last_outcome) {
    const ManagedContainer* managed = scheduler.Find(id);
    const int replacements = managed != nullptr ? managed->replacements : 0;
    const double ratio = outcome->goal_abs_throughput > 0.0
                             ? outcome->predicted_abs_throughput /
                                   outcome->goal_abs_throughput
                             : 0.0;
    containers.AddRow({std::to_string(id), workload_names[id],
                       outcome->admitted ? "yes" : "queued",
                       outcome->admitted ? "#" + std::to_string(outcome->placement_id)
                                         : "-",
                       std::to_string(replacements),
                       outcome->admitted ? TablePrinter::Num(ratio) : "-"});
  }
  containers.Print(std::cout);

  const SchedulerStats& stats = scheduler.stats();
  std::printf("\n");
  TablePrinter summary({"metric", "value"});
  summary.AddRow({"containers submitted", std::to_string(stats.submitted)});
  summary.AddRow({"admitted immediately", std::to_string(stats.admitted_immediately)});
  summary.AddRow({"queued, admitted later", std::to_string(stats.admitted_from_queue)});
  summary.AddRow({"degraded-container upgrades", std::to_string(stats.upgrades)});
  summary.AddRow({"probe runs", std::to_string(stats.probe_runs)});
  summary.AddRow({"cached-probe reuses", std::to_string(stats.cached_probe_reuses)});
  summary.AddRow({"machine utilization (time avg)",
                  TablePrinter::Num(100.0 * report.mean_utilization, 1) + "%"});
  summary.AddRow({"goal attainment (time avg)",
                  TablePrinter::Num(100.0 * report.goal_attainment, 1) + "%"});
  summary.AddRow({"container-seconds at goal",
                  TablePrinter::Num(100.0 * report.container_seconds_at_goal, 1) + "%"});
  summary.AddRow({"scheduling decisions", std::to_string(report.decisions)});
  if (report.wall_seconds > 0.0) {
    summary.AddRow({"decisions/sec (host)",
                    TablePrinter::Num(report.decisions / report.wall_seconds, 0)});
  }
  summary.Print(std::cout);
  return 0;
}

// Output options of the fleet subcommand: machine-readable JSON plus the
// telemetry layer (any telemetry flag attaches the observers; with all of
// them off the replay runs exactly as before — no observer attached).
struct FleetOutputOptions {
  std::string json_path;        // --json: tables as JSON
  std::string trace_path;       // --trace-out: Chrome trace-event spans
  std::string metrics_path;     // --metrics-out: JSONL snapshots
  double metrics_interval = 300.0;  // --metrics-interval (sim seconds)
  bool metrics_interval_given = false;

  bool TelemetryActive() const {
    return !trace_path.empty() || !metrics_path.empty() || metrics_interval_given;
  }
};

// Admission / overload options of the fleet subcommand: with all of them
// off the run is byte-identical to a fleet built before the admission layer
// existed (no policy constructed, Poisson trace unchanged).
struct FleetAdmissionOptions {
  std::string admission;      // --admission: AdmissionRegistry policy name
  std::map<std::string, std::string> tiers;  // --tiers group=tier[,...]
  int defer_limit = 0;        // --defer-limit (0 = fleet default)
  bool flash_crowd = false;   // --flash-crowd: diurnal + burst trace
  int bursts = 0;             // --bursts (0 = generator default)
  int burst_containers = 0;   // --burst-containers (0 = containers/stream)
};

// One histogram row of the percentile summary table / JSON telemetry block.
void AddHistogramRow(TablePrinter& table, const std::string& label,
                     const Histogram& histogram) {
  table.AddRow({label, std::to_string(histogram.count()),
                TablePrinter::Num(histogram.mean(), 3),
                TablePrinter::Num(histogram.Percentile(50.0), 3),
                TablePrinter::Num(histogram.Percentile(95.0), 3),
                TablePrinter::Num(histogram.Percentile(99.0), 3),
                TablePrinter::Num(histogram.max(), 3)});
}

void WriteHistogramJson(JsonWriter& json, const Histogram& histogram) {
  json.BeginObject();
  json.Field("count", static_cast<int64_t>(histogram.count()));
  json.Field("mean", histogram.mean());
  json.Field("min", histogram.min());
  json.Field("max", histogram.max());
  json.Field("p50", histogram.Percentile(50.0));
  json.Field("p95", histogram.Percentile(95.0));
  json.Field("p99", histogram.Percentile(99.0));
  json.EndObject();
}

int CmdFleet(const std::string& machines_csv, int vcpus, int containers_per_stream,
             uint64_t seed, const std::string& dispatch_name,
             const std::string& policy_name,
             const std::vector<FleetEvent>& machine_events, int sharded_cells,
             int sharded_probes, int fleet_probes, int domain_racks, int domain_zones,
             double spread_weight, int spread_cap, const FleetAdmissionOptions& admission,
             const FleetOutputOptions& output) {
  if (containers_per_stream <= 0) {
    std::fprintf(stderr, "need at least one container per machine stream\n");
    return 2;
  }
  if (vcpus <= 0) {
    std::fprintf(stderr, "the vCPU count must be positive, got %d\n", vcpus);
    return 2;
  }
  std::vector<std::string> machine_names;
  std::string token;
  for (char c : machines_csv + ",") {
    if (c == ',') {
      if (!token.empty()) {
        machine_names.push_back(token);
        token.clear();
      }
    } else {
      token += c;
    }
  }
  if (machine_names.empty()) {
    std::fprintf(stderr, "empty machine list '%s'\n", machines_csv.c_str());
    return 2;
  }

  // One baseline id per topology group, keyed the same way everywhere in
  // this command (scheduler goals and model training must agree on it).
  std::map<std::string, int> baseline_of_group;
  std::vector<MachineSpec> specs;
  for (const std::string& name : machine_names) {
    MachineSpec spec(MakeMachine(name));
    spec.scheduler.policy = policy_name;
    spec.scheduler.baseline_id = BaselineIdFor(name);
    spec.scheduler.use_interconnect_concern = InterconnectIsAsymmetric(spec.topo);
    baseline_of_group[spec.topo.name()] = spec.scheduler.baseline_id;
    specs.push_back(std::move(spec));
  }
  int largest_machine = 0;
  for (const MachineSpec& spec : specs) {
    largest_machine = std::max(largest_machine, spec.topo.NumHwThreads());
  }
  if (vcpus > largest_machine) {
    std::fprintf(stderr,
                 "no machine in the fleet fits %d-vCPU containers (the largest has %d "
                 "hardware threads)\n",
                 vcpus, largest_machine);
    return 2;
  }
  FleetConfig fleet_config;
  fleet_config.dispatch = dispatch_name;
  fleet_config.fleet_probes = fleet_probes;
  const int num_machines = static_cast<int>(machine_names.size());
  if (domain_racks > num_machines) {
    std::fprintf(stderr, "--racks %d exceeds the fleet's %d machines\n", domain_racks,
                 num_machines);
    return 2;
  }
  const int racks = FailureDomainTopology::Uniform(num_machines, domain_racks, 0).NumRacks();
  if (domain_zones > racks) {
    std::fprintf(stderr, "--zones %d exceeds the fleet's rack count (%d)\n", domain_zones,
                 racks);
    return 2;
  }
  fleet_config.domain_racks = domain_racks;
  fleet_config.domain_zones = domain_zones;
  fleet_config.spread_weight = spread_weight;
  fleet_config.spread_max_per_rack = spread_cap;
  fleet_config.admission = admission.admission;
  fleet_config.tier_overrides = admission.tiers;
  if (admission.defer_limit > 0) {
    fleet_config.admission_defer_limit = admission.defer_limit;
  }
  // The sharded dispatcher is the one policy with CLI-tunable knobs; an
  // explicitly configured instance goes through the injecting constructor,
  // everything else is built by name from the registry.
  std::unique_ptr<DispatchPolicy> dispatch;
  if (dispatch_name == "sharded") {
    ShardedDispatchConfig sharded;
    if (sharded_cells > 0) {
      sharded.cells = sharded_cells;
    }
    if (sharded_probes > 0) {
      sharded.probes = sharded_probes;
    }
    dispatch = std::make_unique<ShardedDispatchPolicy>(sharded);
  } else {
    dispatch = MakeDispatchPolicy(dispatch_name);
  }
  FleetScheduler fleet(std::move(specs), fleet_config, std::move(dispatch));
  const auto flag_of = [](const FleetEvent& event) {
    return event.kind() == FleetEventKind::kMachineFail    ? "fail"
           : event.kind() == FleetEventKind::kMachineDrain ? "drain"
                                                           : "rejoin";
  };
  for (const FleetEvent& event : machine_events) {
    const DomainScope scope = event.domain_scope();
    if (event.machine_id() >= fleet.domains().NumDomains(scope)) {
      std::fprintf(stderr, "--%s targets %s %d, but the fleet has %ss 0..%d\n",
                   flag_of(event), ToString(scope), event.machine_id(), ToString(scope),
                   fleet.domains().NumDomains(scope) - 1);
      return 2;
    }
  }
  // Walk the per-machine events in the order replay applies them (injecting
  // them into an empty stream yields that order) and reject the first one
  // whose machine is in the wrong state for it: the preconditions of
  // FleetScheduler::Fail, Drain and Rejoin.
  std::vector<MachineAvailability> availability(machine_names.size(),
                                                MachineAvailability::kUp);
  for (const FleetEvent& event :
       InjectMachineEvents(EventStream(), machine_events, fleet.domains())) {
    MachineAvailability& state = availability[static_cast<size_t>(event.machine_id())];
    const MachineAvailability before = state;
    bool allowed = false;
    switch (event.kind()) {
      case FleetEventKind::kMachineFail:
        allowed = before != MachineAvailability::kFailed;
        state = MachineAvailability::kFailed;
        break;
      case FleetEventKind::kMachineDrain:
        allowed = before == MachineAvailability::kUp;
        state = MachineAvailability::kDraining;
        break;
      default:
        allowed = before != MachineAvailability::kUp;
        state = MachineAvailability::kUp;
        break;
    }
    if (!allowed) {
      std::fprintf(stderr, "--%s at t=%g: machine %d is %s then, so it cannot %s\n",
                   flag_of(event), event.time_seconds, event.machine_id(),
                   ToString(before), flag_of(event));
      return 2;
    }
  }
  // One placement set — and, for model policies, one trained model — per
  // distinct topology group, shared by every machine of the group. Every
  // set is built and checked before the first model is trained.
  const bool uses_model = MakePolicy(policy_name)->UsesModel();
  const auto topology_of = [&](const std::string& group) {
    for (size_t m = 0; m < machine_names.size(); ++m) {
      if (fleet.topology(static_cast<int>(m)).name() == group) {
        return fleet.topology(static_cast<int>(m));
      }
    }
    std::fprintf(stderr, "group '%s' has no machine\n", group.c_str());
    std::exit(1);
  };
  for (const std::string& group : fleet.GroupNames()) {
    const Topology topo = topology_of(group);
    if (topo.NumHwThreads() >= vcpus && !CheckVcpus(topo, vcpus)) {
      return 2;
    }
  }
  std::map<std::string, ImportantPlacementSet> placements_of_group;
  for (const std::string& group : fleet.GroupNames()) {
    const Topology topo = topology_of(group);
    if (topo.NumHwThreads() < vcpus) {
      continue;
    }
    ImportantPlacementSet set =
        GenerateImportantPlacements(topo, vcpus, InterconnectIsAsymmetric(topo));
    if (!CheckPlacements(set, group, uses_model)) {
      return 2;
    }
    placements_of_group.emplace(group, std::move(set));
  }
  std::printf("failure domains: %d machines over %d racks, %d zones\n",
              fleet.domains().NumMachines(), fleet.domains().NumRacks(),
              fleet.domains().NumZones());
  if (fleet.SpreadActive()) {
    std::printf("spread dispatch: weight %.2f, max %d per rack (0 = uncapped)\n",
                fleet_config.spread_weight, fleet_config.spread_max_per_rack);
  }
  if (fleet_config.fleet_probes > 0) {
    std::printf("fleet ops: capacity-index search over %d cells, %d sampled per "
                "target search\n",
                fleet.capacity_index().NumCells(), fleet_config.fleet_probes);
  } else {
    std::printf("fleet ops: full-scan target search (--fleet-probes 0)\n");
  }
  if (fleet.AdmissionActive()) {
    std::printf("admission: '%s' (defer limit %d, %zu tier overrides)\n",
                fleet_config.admission.c_str(), fleet_config.admission_defer_limit,
                fleet_config.tier_overrides.size());
  }
  if (const auto* sharded =
          dynamic_cast<const ShardedDispatchPolicy*>(&fleet.dispatch())) {
    std::printf("sharded dispatch: %d cells over %d machines, %d sampled per "
                "decision (inner '%s')\n",
                sharded->NumCells(), fleet.NumMachines(),
                std::min(sharded->config().probes, sharded->NumCells()),
                sharded->config().inner.c_str());
  }

  for (const std::string& group : fleet.GroupNames()) {
    const Topology topo = topology_of(group);
    const auto it = placements_of_group.find(group);
    if (it == placements_of_group.end()) {
      // The fleet never dispatches a container to a machine it cannot fit
      // on; this group only ever idles at this container size.
      std::printf("note: %s (%d hw threads) cannot fit %d-vCPU containers\n",
                  group.c_str(), topo.NumHwThreads(), vcpus);
      continue;
    }
    const ImportantPlacementSet& set = it->second;
    fleet.ProvidePlacements(group, set);
    if (uses_model) {
      fleet.GroupRegistry(group).Register(
          group, vcpus, TrainCliModel(topo, set, baseline_of_group.at(group)));
    }
  }

  TraceConfig trace_config;
  trace_config.num_containers = containers_per_stream;
  trace_config.vcpus = vcpus;
  trace_config.goal_fraction = 0.9;
  trace_config.mean_interarrival_seconds = 120.0;
  trace_config.mean_lifetime_seconds = 480.0;

  Rng trace_rng(seed);
  // Flash-crowd mode swaps the flat Poisson generator for the diurnal +
  // burst one (tier-prefixed service groups); everything downstream —
  // injection, replay, evaluation — is generator-agnostic.
  size_t containers_per_stream_generated = static_cast<size_t>(containers_per_stream);
  EventStream generated = [&] {
    if (!admission.flash_crowd) {
      return GenerateFleetTrace(trace_config, static_cast<int>(machine_names.size()),
                                trace_rng);
    }
    FlashCrowdConfig flash;
    flash.base = trace_config;
    if (admission.bursts > 0) {
      flash.bursts = admission.bursts;
    }
    flash.burst_containers = admission.burst_containers > 0
                                 ? admission.burst_containers
                                 : containers_per_stream;
    containers_per_stream_generated = static_cast<size_t>(
        flash.base.num_containers + flash.bursts * flash.burst_containers);
    std::printf("flash crowd: %d burst(s) of %d containers per stream on a diurnal "
                "baseline\n",
                flash.bursts, flash.burst_containers);
    return GenerateFlashCrowdTrace(flash, static_cast<int>(machine_names.size()),
                                   trace_rng);
  }();
  // Domain-scoped events expand against the fleet's topology into the same
  // canonical per-machine events a hand-written list would inject.
  const EventStream trace =
      InjectMachineEvents(std::move(generated), machine_events, fleet.domains());
  std::printf("replaying %zu events (%zu containers, %zu machine streams, %zu machine "
              "events, dispatch '%s', machine policy '%s')...\n\n",
              trace.size(), machine_names.size() * containers_per_stream_generated,
              machine_names.size(), machine_events.size(), dispatch_name.c_str(),
              policy_name.c_str());

  // Telemetry chain — attached only when a telemetry flag was given, so a
  // flags-off replay runs with no observer exactly as before.
  MetricsRegistry registry;
  std::unique_ptr<MetricsObserver> metrics;
  std::unique_ptr<SpanCollector> spans;
  std::ofstream metrics_out;
  std::unique_ptr<FleetSnapshotRecorder> snapshots;
  EventObserver* observer = nullptr;
  if (output.TelemetryActive()) {
    metrics = std::make_unique<MetricsObserver>(&registry, nullptr, fleet.NumMachines());
    observer = metrics.get();
    if (!output.trace_path.empty()) {
      spans = std::make_unique<SpanCollector>(observer);
      observer = spans.get();
    }
    if (!output.metrics_path.empty()) {
      metrics_out.open(output.metrics_path);
      if (!metrics_out) {
        std::fprintf(stderr, "cannot write %s\n", output.metrics_path.c_str());
        return 1;
      }
      snapshots = std::make_unique<FleetSnapshotRecorder>(
          fleet, output.metrics_interval, metrics_out);
    }
  }

  const FleetReport report = fleet.ReplayWithEvaluation(trace, observer, snapshots.get());
  if (spans != nullptr) {
    spans->Finish(trace.EndTime());
  }

  TablePrinter machines({"machine", "topology", "availability", "submissions",
                         "probe runs", "upgrades", "utilization"});
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    const SchedulerStats& stats = fleet.machine(m).stats();
    machines.AddRow({std::to_string(m), machine_names[static_cast<size_t>(m)],
                     ToString(fleet.availability(m)),
                     std::to_string(stats.submitted), std::to_string(stats.probe_runs),
                     std::to_string(stats.upgrades),
                     TablePrinter::Num(100.0 * report.machine_utilizations[m], 1) + "%"});
  }
  machines.Print(std::cout);

  if (!fleet.evacuation_log().empty()) {
    std::printf("\nmachine evacuations:\n");
    TablePrinter evacuations({"machine", "reason", "at (s)", "containers", "rehomed",
                              "requeued", "latency (s)", "move cost (s)"});
    for (const EvacuationReport& evacuation : fleet.evacuation_log()) {
      evacuations.AddRow({std::to_string(evacuation.machine_id),
                          evacuation.reason == MachineAvailability::kFailed ? "fail"
                                                                            : "drain",
                          TablePrinter::Num(evacuation.start_seconds, 0),
                          std::to_string(evacuation.containers),
                          std::to_string(evacuation.rehomed),
                          std::to_string(evacuation.requeued),
                          TablePrinter::Num(evacuation.last_landing_seconds, 1),
                          TablePrinter::Num(evacuation.move_seconds_total, 1)});
    }
    evacuations.Print(std::cout);
  }

  if (!fleet.rebalance_log().empty()) {
    std::printf("\ncross-machine moves:\n");
    TablePrinter moves({"container", "from", "to", "reason", "queued?", "move (s)",
                        "network (s)", "gain (ops)", "cost (ops)"});
    for (const RebalanceMove& move : fleet.rebalance_log()) {
      moves.AddRow({std::to_string(move.container_id), std::to_string(move.from_machine),
                    std::to_string(move.to_machine), ToString(move.reason),
                    move.was_queued ? "yes" : "no",
                    TablePrinter::Num(move.move_seconds, 1),
                    TablePrinter::Num(move.network_seconds, 1),
                    TablePrinter::Num(move.predicted_gain_ops, 0),
                    TablePrinter::Num(move.modeled_cost_ops, 0)});
    }
    moves.Print(std::cout);
  }

  const FleetStats& stats = fleet.stats();
  std::printf("\n");
  TablePrinter summary({"metric", "value"});
  summary.AddRow({"containers submitted", std::to_string(stats.submitted)});
  summary.AddRow({"dispatched & admitted at once",
                  std::to_string(stats.dispatched_immediately)});
  summary.AddRow({"queued on arrival", std::to_string(stats.queued)});
  summary.AddRow({"queue admissions", std::to_string(stats.queue_admissions)});
  summary.AddRow({"mean queue wait (s)",
                  TablePrinter::Num(report.mean_queue_wait_seconds, 1)});
  summary.AddRow({"rebalance moves", std::to_string(stats.rebalance_moves)});
  summary.AddRow({"rebalance passes (run/skipped)",
                  std::to_string(stats.rebalance_passes) + "/" +
                      std::to_string(stats.rebalance_passes_skipped)});
  summary.AddRow({"rebalance previews (target searches)",
                  std::to_string(stats.rebalance_previews) + " (" +
                      std::to_string(stats.rebalance_decisions) + ")"});
  if (stats.evacuations > 0) {
    summary.AddRow({"machine evacuations", std::to_string(stats.evacuations)});
    summary.AddRow({"evacuation moves", std::to_string(stats.evacuation_moves)});
    summary.AddRow({"moves by reason (rebalance/drain/failover)",
                    std::to_string(stats.rebalance_moves) + "/" +
                        std::to_string(stats.drain_moves) + "/" +
                        std::to_string(stats.failover_moves)});
    summary.AddRow({"evacuation requeues", std::to_string(stats.evacuation_requeues)});
    summary.AddRow({"evacuation previews (target searches)",
                    std::to_string(stats.evac_previews) + " (" +
                        std::to_string(stats.evac_decisions) + ")"});
  }
  summary.AddRow({"cross-machine move time (s)",
                  TablePrinter::Num(stats.cross_machine_move_seconds, 1)});
  summary.AddRow({"fleet goal attainment (time avg)",
                  TablePrinter::Num(100.0 * report.goal_attainment, 1) + "%"});
  summary.AddRow({"container-seconds at goal",
                  TablePrinter::Num(100.0 * report.container_seconds_at_goal, 1) + "%"});
  summary.AddRow({"mean utilization (thread-weighted)",
                  TablePrinter::Num(100.0 * report.mean_utilization, 1) + "%"});
  summary.AddRow({"utilization spread (max-min)",
                  TablePrinter::Num(100.0 * (report.utilization_max -
                                             report.utilization_min), 1) + "pp"});
  summary.AddRow({"scheduling decisions", std::to_string(report.decisions)});
  if (report.wall_seconds > 0.0) {
    summary.AddRow({"decisions/sec (host)",
                    TablePrinter::Num(report.decisions / report.wall_seconds, 0)});
  }
  summary.Print(std::cout);

  if (fleet.AdmissionActive()) {
    std::printf("\nadmission by tier (policy '%s'):\n", fleet_config.admission.c_str());
    TablePrinter tiers({"tier", "arrivals", "admitted", "deferred", "rejected",
                        "preempted", "reject rate", "attainment"});
    for (int t = 0; t < kNumSloTiers; ++t) {
      const auto idx = static_cast<size_t>(t);
      const int arrivals = stats.tier_arrivals[idx];
      const double reject_rate =
          arrivals > 0 ? static_cast<double>(stats.tier_rejected[idx]) / arrivals : 0.0;
      tiers.AddRow({ToString(static_cast<SloTier>(t)), std::to_string(arrivals),
                    std::to_string(stats.tier_admitted[idx]),
                    std::to_string(stats.tier_deferred[idx]),
                    std::to_string(stats.tier_rejected[idx]),
                    std::to_string(stats.tier_preempted[idx]),
                    TablePrinter::Num(100.0 * reject_rate, 1) + "%",
                    TablePrinter::Num(100.0 * report.tier_goal_attainment[idx], 1) +
                        "%"});
    }
    tiers.Print(std::cout);
  }

  if (output.TelemetryActive()) {
    std::printf("\ntelemetry percentiles (seconds unless noted; fleet.search_seconds "
                "is host wall time):\n");
    TablePrinter telemetry({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const std::string& name : registry.HistogramNames()) {
      AddHistogramRow(telemetry, name, *registry.FindHistogram(name));
    }
    telemetry.Print(std::cout);
  }

  if (spans != nullptr) {
    std::ofstream trace_out(output.trace_path);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", output.trace_path.c_str());
      return 1;
    }
    spans->WriteChromeTrace(trace_out);
    std::printf("\nwrote %zu trace events to %s (load in Perfetto or "
                "chrome://tracing)\n",
                spans->event_count(), output.trace_path.c_str());
  }
  if (snapshots != nullptr) {
    std::printf("%swrote %d snapshots (every %g sim seconds) to %s\n",
                spans != nullptr ? "" : "\n", snapshots->samples(),
                output.metrics_interval, output.metrics_path.c_str());
  }

  if (!output.json_path.empty()) {
    std::ofstream json_out(output.json_path);
    if (!json_out) {
      std::fprintf(stderr, "cannot write %s\n", output.json_path.c_str());
      return 1;
    }
    JsonWriter json(json_out);
    json.BeginObject();
    json.Field("command", "fleet");
    json.Field("machines", machines_csv);
    json.Field("vcpus", vcpus);
    json.Field("containers_per_stream", containers_per_stream);
    json.Field("seed", static_cast<int64_t>(seed));
    json.Field("dispatch", dispatch_name);
    json.Field("policy", policy_name);
    json.Field("fleet_probes", fleet_config.fleet_probes);
    json.Field("racks", fleet.domains().NumRacks());
    json.Field("zones", fleet.domains().NumZones());
    json.Field("spread_weight", fleet_config.spread_weight);
    json.Field("spread_max_per_rack", fleet_config.spread_max_per_rack);
    json.Field("machine_events", static_cast<int64_t>(machine_events.size()));

    json.Key("machines_detail");
    json.BeginArray();
    for (int m = 0; m < fleet.NumMachines(); ++m) {
      const SchedulerStats& machine_stats = fleet.machine(m).stats();
      json.BeginObject();
      json.Field("machine", m);
      json.Field("name", machine_names[static_cast<size_t>(m)]);
      json.Field("availability", ToString(fleet.availability(m)));
      json.Field("submitted", machine_stats.submitted);
      json.Field("probe_runs", machine_stats.probe_runs);
      json.Field("upgrades", machine_stats.upgrades);
      json.Field("utilization", report.machine_utilizations[static_cast<size_t>(m)]);
      json.EndObject();
    }
    json.EndArray();

    json.Key("evacuations");
    json.BeginArray();
    for (const EvacuationReport& evacuation : fleet.evacuation_log()) {
      json.BeginObject();
      json.Field("machine", evacuation.machine_id);
      json.Field("reason",
                 evacuation.reason == MachineAvailability::kFailed ? "fail" : "drain");
      json.Field("start_seconds", evacuation.start_seconds);
      json.Field("containers", evacuation.containers);
      json.Field("rehomed", evacuation.rehomed);
      json.Field("requeued", evacuation.requeued);
      json.Field("last_landing_seconds", evacuation.last_landing_seconds);
      json.Field("move_seconds_total", evacuation.move_seconds_total);
      json.EndObject();
    }
    json.EndArray();

    json.Key("moves");
    json.BeginArray();
    for (const RebalanceMove& move : fleet.rebalance_log()) {
      json.BeginObject();
      json.Field("container", move.container_id);
      json.Field("from", move.from_machine);
      json.Field("to", move.to_machine);
      json.Field("reason", ToString(move.reason));
      json.Field("was_queued", move.was_queued);
      json.Field("move_seconds", move.move_seconds);
      json.Field("network_seconds", move.network_seconds);
      json.Field("predicted_gain_ops", move.predicted_gain_ops);
      json.Field("modeled_cost_ops", move.modeled_cost_ops);
      json.EndObject();
    }
    json.EndArray();

    json.Key("summary");
    json.BeginObject();
    json.Field("submitted", stats.submitted);
    json.Field("dispatched_immediately", stats.dispatched_immediately);
    json.Field("queued", stats.queued);
    json.Field("queue_admissions", stats.queue_admissions);
    json.Field("mean_queue_wait_seconds", report.mean_queue_wait_seconds);
    json.Field("rebalance_moves", stats.rebalance_moves);
    json.Field("rebalance_passes", stats.rebalance_passes);
    json.Field("rebalance_passes_skipped", stats.rebalance_passes_skipped);
    json.Field("rebalance_previews", stats.rebalance_previews);
    json.Field("rebalance_decisions", stats.rebalance_decisions);
    json.Field("evacuations", stats.evacuations);
    json.Field("evacuation_moves", stats.evacuation_moves);
    json.Field("drain_moves", stats.drain_moves);
    json.Field("failover_moves", stats.failover_moves);
    json.Field("evacuation_requeues", stats.evacuation_requeues);
    json.Field("evac_previews", stats.evac_previews);
    json.Field("evac_decisions", stats.evac_decisions);
    json.Field("dispatch_previews", stats.dispatch_previews);
    json.Field("dispatch_decisions", stats.dispatch_decisions);
    json.Field("cross_machine_move_seconds", stats.cross_machine_move_seconds);
    json.Field("network_copy_seconds", stats.network_copy_seconds);
    json.Field("goal_attainment", report.goal_attainment);
    json.Field("container_seconds_at_goal", report.container_seconds_at_goal);
    json.Field("mean_utilization", report.mean_utilization);
    json.Field("utilization_min", report.utilization_min);
    json.Field("utilization_max", report.utilization_max);
    json.Field("decisions", report.decisions);
    json.Field("wall_seconds", report.wall_seconds);
    json.EndObject();

    // The per-tier admission block appears only when an admission policy
    // ran — a flags-off --json dump is unchanged by the admission layer.
    if (fleet.AdmissionActive()) {
      json.Field("admission", fleet_config.admission);
      json.Key("tiers");
      json.BeginArray();
      for (int t = 0; t < kNumSloTiers; ++t) {
        const auto idx = static_cast<size_t>(t);
        const int arrivals = stats.tier_arrivals[idx];
        json.BeginObject();
        json.Field("tier", std::string(ToString(static_cast<SloTier>(t))));
        json.Field("arrivals", arrivals);
        json.Field("admitted", stats.tier_admitted[idx]);
        json.Field("deferred", stats.tier_deferred[idx]);
        json.Field("rejected", stats.tier_rejected[idx]);
        json.Field("preempted", stats.tier_preempted[idx]);
        json.Field("rejection_rate",
                   arrivals > 0
                       ? static_cast<double>(stats.tier_rejected[idx]) / arrivals
                       : 0.0);
        json.Field("goal_attainment", report.tier_goal_attainment[idx]);
        json.Field("container_seconds", report.tier_container_seconds[idx]);
        json.EndObject();
      }
      json.EndArray();
    }

    // The telemetry block appears only when the observers actually ran —
    // a flags-off --json dump is unchanged by the telemetry layer.
    if (output.TelemetryActive()) {
      json.Key("telemetry");
      json.BeginObject();
      json.Key("counters");
      json.BeginObject();
      for (const std::string& name : registry.CounterNames()) {
        json.Field(name, static_cast<int64_t>(registry.FindCounter(name)->value()));
      }
      json.EndObject();
      json.Key("gauges");
      json.BeginObject();
      for (const std::string& name : registry.GaugeNames()) {
        json.Field(name, registry.FindGauge(name)->value());
      }
      json.EndObject();
      json.Key("histograms");
      json.BeginObject();
      for (const std::string& name : registry.HistogramNames()) {
        json.Key(name);
        WriteHistogramJson(json, *registry.FindHistogram(name));
      }
      json.EndObject();
      json.EndObject();
    }
    json.EndObject();
    json_out << "\n";
    std::printf("%swrote JSON results to %s\n",
                output.TelemetryActive() ? "" : "\n", output.json_path.c_str());
  }
  return 0;
}

// Parses a machine-event spec: bare "<machine>@<seconds>" (e.g. --fail
// 1@900) or domain-scoped "rack:<R>@<seconds>" / "zone:<Z>@<seconds>"
// (e.g. --fail rack:3@900 — every machine of rack 3 fails at t=900). The
// time must be finite and non-negative.
bool ParseMachineEventSpec(const char* spec, DomainScope* scope, int* index,
                           double* time_seconds) {
  *scope = DomainScope::kMachine;
  if (std::strncmp(spec, "rack:", 5) == 0) {
    *scope = DomainScope::kRack;
    spec += 5;
  } else if (std::strncmp(spec, "zone:", 5) == 0) {
    *scope = DomainScope::kZone;
    spec += 5;
  }
  const char* at = std::strchr(spec, '@');
  if (at == nullptr || at == spec || *(at + 1) == '\0') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(spec, &end, 10);
  if (end != at || errno == ERANGE || parsed < 0 || parsed > INT_MAX) {
    return false;
  }
  const double time = std::strtod(at + 1, &end);
  if (*end != '\0' || !std::isfinite(time) || time < 0.0) {
    return false;
  }
  *index = static_cast<int>(parsed);
  *time_seconds = time;
  return true;
}

// Parses an integer argument: the whole string is a decimal integer in int's
// range (std::atoi would take "16abc" as 16 and wrap 99999999999).
bool ParseInt(const char* text, int* value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

// Parses the positional integer argument `name` into `value`, or prints why
// it cannot.
bool ParseIntArg(const char* name, const char* text, int* value) {
  if (ParseInt(text, value)) {
    return true;
  }
  std::fprintf(stderr, "<%s> '%s' is not an integer between %d and %d\n", name, text,
               INT_MIN, INT_MAX);
  return false;
}

// Parses a real-valued argument: the whole string is a finite number > 0
// (`predict`'s probe measurements are throughputs the model divides by;
// strtod alone would accept "nan" and "inf").
bool ParsePositiveNumber(const char* text, double* value) {
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(parsed) || parsed <= 0.0) {
    return false;
  }
  *value = parsed;
  return true;
}

// Parses a --tiers override list: "<group>=<tier>[,<group>=<tier>...]",
// where <tier> is an SloTier name (premium, standard, best-effort) and
// <group> is the full service-group name the trace uses (including any
// "<tier>:" prefix — overrides beat the naming convention).
bool ParseTierOverrides(const char* spec, std::map<std::string, std::string>* tiers) {
  std::string entry;
  for (const char* p = spec;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (entry.empty()) {
        return false;
      }
      const size_t eq = entry.find('=');
      if (eq == 0 || eq == std::string::npos || eq + 1 >= entry.size()) {
        return false;
      }
      SloTier tier = SloTier::kStandard;
      if (!ParseSloTier(entry.substr(eq + 1), &tier)) {
        return false;
      }
      (*tiers)[entry.substr(0, eq)] = entry.substr(eq + 1);
      entry.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      entry += *p;
    }
  }
  return true;
}

void Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  numaplace_cli placements <amd|intel|zen|cod> <vcpus>\n"
               "  numaplace_cli concerns <amd|intel|zen|cod>\n"
               "  numaplace_cli train <amd|intel|zen|cod> <vcpus> <model-file>\n"
               "  numaplace_cli predict <model-file> <perf_a> <perf_b>\n"
               "  numaplace_cli migrate <workload>\n"
               "  numaplace_cli policies\n"
               "  numaplace_cli schedule <amd|intel|zen|cod> <vcpus> <containers> "
               "[seed] [policy]\n"
               "  numaplace_cli fleet <machine,machine,...> <vcpus> "
               "<containers-per-machine> [seed] [dispatch] [policy]\n"
               "                [--dispatch <name>] [--cells <N>] [--probes <d>]\n"
               "                [--fleet-probes <d>]      capacity-index cells per "
               "fleet-op search (0 = full scan)\n"
               "                [--racks <R>] [--zones <Z>]\n"
               "                [--spread-weight <w>] [--spread-cap <n>]\n"
               "                [--fail <spec>] [--drain <spec>] [--rejoin <spec>]\n"
               "                  <spec> = <machine>@<t> | rack:<R>@<t> | "
               "zone:<Z>@<t>\n"
               "                [--admission <name>]      SLO-tiered admission in "
               "front of dispatch\n"
               "                [--tiers <g>=<tier>[,..]] per-group tier overrides\n"
               "                [--defer-limit <n>]       max waiting containers "
               "before reject\n"
               "                [--flash-crowd]           diurnal + burst overload "
               "trace\n"
               "                [--bursts <B>] [--burst-containers <n>]  spike "
               "shape\n"
               "                [--json <path>]           write the run's tables as "
               "JSON\n"
               "                [--trace-out <path>]      Chrome trace-event spans "
               "(Perfetto)\n"
               "                [--metrics-out <path>]    JSONL time-series "
               "snapshots\n"
               "                [--metrics-interval <s>]  snapshot spacing in sim "
               "seconds (>= 1, default 300)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    int vcpus = 0;
    if (command == "placements" && argc == 4) {
      if (!ParseIntArg("vcpus", argv[3], &vcpus)) {
        return 2;
      }
      return CmdPlacements(argv[2], vcpus);
    }
    if (command == "concerns" && argc == 3) {
      return CmdConcerns(argv[2]);
    }
    if (command == "train" && argc == 5) {
      if (!ParseIntArg("vcpus", argv[3], &vcpus)) {
        return 2;
      }
      return CmdTrain(argv[2], vcpus, argv[4]);
    }
    if (command == "predict" && argc == 5) {
      double perf[2] = {};
      for (int i = 0; i < 2; ++i) {
        if (!ParsePositiveNumber(argv[3 + i], &perf[i])) {
          std::fprintf(stderr, "probe measurement '%s' is not a finite number > 0\n",
                       argv[3 + i]);
          return 2;
        }
      }
      return CmdPredict(argv[2], perf[0], perf[1]);
    }
    if (command == "migrate" && argc == 3) {
      return CmdMigrate(argv[2]);
    }
    if (command == "policies" && argc == 2) {
      return CmdPolicies();
    }
    int containers = 0;
    if (command == "schedule" && argc >= 5 && argc <= 7) {
      if (!ParseIntArg("vcpus", argv[3], &vcpus) ||
          !ParseIntArg("containers", argv[4], &containers)) {
        return 2;
      }
      // Optional trailing args in either order: a number is the trace seed, a
      // word is the policy name. Two of the same kind is a usage error, not a
      // silent overwrite.
      uint64_t seed = 11;
      std::string policy = "model";
      bool have_seed = false;
      bool have_policy = false;
      for (int i = 5; i < argc; ++i) {
        char* end = nullptr;
        const uint64_t parsed = std::strtoull(argv[i], &end, 10);
        if (end != nullptr && *end == '\0' && end != argv[i]) {
          if (have_seed) {
            std::fprintf(stderr, "two seeds given ('%" PRIu64 "' and '%s')\n", seed,
                         argv[i]);
            return 2;
          }
          seed = parsed;
          have_seed = true;
        } else {
          if (have_policy) {
            std::fprintf(stderr, "two policies given ('%s' and '%s')\n", policy.c_str(),
                         argv[i]);
            return 2;
          }
          policy = argv[i];
          have_policy = true;
        }
      }
      return CmdSchedule(argv[2], vcpus, containers, seed, policy);
    }
    if (command == "fleet" && argc >= 5) {
      // Optional trailing args in any order: a number is the trace seed, a
      // dispatch-policy name picks the dispatcher, a scheduling-policy name
      // picks every machine's policy, and repeatable --fail/--drain/--rejoin
      // flags script machine events. Two of the same kind is a usage error.
      if (!ParseIntArg("vcpus", argv[3], &vcpus) ||
          !ParseIntArg("containers-per-machine", argv[4], &containers)) {
        return 2;
      }
      uint64_t seed = 11;
      std::string dispatch = "least-loaded";
      std::string policy = "model";
      std::vector<FleetEvent> machine_events;
      int sharded_cells = 0;
      int sharded_probes = 0;
      int fleet_probes = FleetConfig().fleet_probes;
      int domain_racks = 0;
      int domain_zones = 0;
      double spread_weight = 0.0;
      int spread_cap = 0;
      FleetAdmissionOptions admission;
      FleetOutputOptions output;
      bool have_seed = false;
      bool have_dispatch = false;
      bool have_policy = false;
      for (int i = 5; i < argc; ++i) {
        const bool is_json = std::strcmp(argv[i], "--json") == 0;
        const bool is_trace_out = std::strcmp(argv[i], "--trace-out") == 0;
        const bool is_metrics_out = std::strcmp(argv[i], "--metrics-out") == 0;
        if (is_json || is_trace_out || is_metrics_out) {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a file path\n", argv[i]);
            return 2;
          }
          ++i;
          (is_json         ? output.json_path
           : is_trace_out  ? output.trace_path
                           : output.metrics_path) = argv[i];
          continue;
        }
        if (std::strcmp(argv[i], "--metrics-interval") == 0) {
          // Trace arrivals are tens of seconds apart, so a finer interval
          // only repeats a state — and a tiny one would ask for a sample
          // count no file or counter holds.
          double parsed = 0.0;
          if (i + 1 >= argc || !ParsePositiveNumber(argv[i + 1], &parsed) || parsed < 1.0) {
            std::fprintf(stderr, "--metrics-interval needs a finite number of seconds, "
                                 "at least 1\n");
            return 2;
          }
          ++i;
          output.metrics_interval = parsed;
          output.metrics_interval_given = true;
          continue;
        }
        if (std::strcmp(argv[i], "--dispatch") == 0) {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "--dispatch needs a policy name\n");
            return 2;
          }
          if (have_dispatch) {
            std::fprintf(stderr, "two dispatch policies given ('%s' and '%s')\n",
                         dispatch.c_str(), argv[i + 1]);
            return 2;
          }
          dispatch = argv[++i];
          have_dispatch = true;
          if (!DispatchRegistry::Global().Has(dispatch)) {
            std::fprintf(stderr, "unknown dispatch policy '%s'; registered:",
                         dispatch.c_str());
            for (const std::string& name : DispatchRegistry::Global().Names()) {
              std::fprintf(stderr, " %s", name.c_str());
            }
            std::fprintf(stderr, "\n");
            return 2;
          }
          continue;
        }
        if (std::strcmp(argv[i], "--flash-crowd") == 0) {
          admission.flash_crowd = true;
          continue;
        }
        if (std::strcmp(argv[i], "--admission") == 0) {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "--admission needs a policy name\n");
            return 2;
          }
          admission.admission = argv[++i];
          if (!AdmissionRegistry::Global().Has(admission.admission)) {
            std::fprintf(stderr, "unknown admission policy '%s'; registered:",
                         admission.admission.c_str());
            for (const std::string& name : AdmissionRegistry::Global().Names()) {
              std::fprintf(stderr, " %s", name.c_str());
            }
            std::fprintf(stderr, "\n");
            return 2;
          }
          continue;
        }
        if (std::strcmp(argv[i], "--tiers") == 0) {
          if (i + 1 >= argc || !ParseTierOverrides(argv[i + 1], &admission.tiers)) {
            std::fprintf(stderr,
                         "invalid --tiers spec '%s': need "
                         "<group>=<premium|standard|best-effort>[,...]\n",
                         i + 1 < argc ? argv[i + 1] : "(missing)");
            return 2;
          }
          ++i;
          continue;
        }
        const bool is_cells = std::strcmp(argv[i], "--cells") == 0;
        const bool is_probes = std::strcmp(argv[i], "--probes") == 0;
        const bool is_fleet_probes = std::strcmp(argv[i], "--fleet-probes") == 0;
        const bool is_racks = std::strcmp(argv[i], "--racks") == 0;
        const bool is_zones = std::strcmp(argv[i], "--zones") == 0;
        const bool is_spread_cap = std::strcmp(argv[i], "--spread-cap") == 0;
        const bool is_defer_limit = std::strcmp(argv[i], "--defer-limit") == 0;
        const bool is_bursts = std::strcmp(argv[i], "--bursts") == 0;
        const bool is_burst_containers =
            std::strcmp(argv[i], "--burst-containers") == 0;
        if (is_cells || is_probes || is_fleet_probes || is_racks || is_zones ||
            is_spread_cap || is_defer_limit || is_bursts || is_burst_containers) {
          // --fleet-probes 0 selects the full scan; every other count is
          // positive.
          const int least = is_fleet_probes ? 0 : 1;
          int parsed = 0;
          if (i + 1 >= argc || !ParseInt(argv[i + 1], &parsed) || parsed < least) {
            std::fprintf(stderr, "%s needs a%s integer no larger than %d\n", argv[i],
                         least == 0 ? " non-negative" : " positive", INT_MAX);
            return 2;
          }
          ++i;
          (is_cells              ? sharded_cells
           : is_probes           ? sharded_probes
           : is_racks            ? domain_racks
           : is_zones            ? domain_zones
           : is_spread_cap       ? spread_cap
           : is_defer_limit      ? admission.defer_limit
           : is_bursts           ? admission.bursts
           : is_burst_containers ? admission.burst_containers
                                 : fleet_probes) = parsed;
          continue;
        }
        if (std::strcmp(argv[i], "--spread-weight") == 0) {
          double parsed = 0.0;
          if (i + 1 >= argc || !ParsePositiveNumber(argv[i + 1], &parsed)) {
            std::fprintf(stderr, "--spread-weight needs a finite positive number\n");
            return 2;
          }
          ++i;
          spread_weight = parsed;
          continue;
        }
        const bool is_fail = std::strcmp(argv[i], "--fail") == 0;
        const bool is_drain = std::strcmp(argv[i], "--drain") == 0;
        const bool is_rejoin = std::strcmp(argv[i], "--rejoin") == 0;
        if (is_fail || is_drain || is_rejoin) {
          DomainScope scope = DomainScope::kMachine;
          int index = 0;
          double time_seconds = 0.0;
          if (i + 1 >= argc ||
              !ParseMachineEventSpec(argv[i + 1], &scope, &index, &time_seconds)) {
            std::fprintf(stderr,
                         "invalid %s spec '%s': need <machine>@<seconds>, "
                         "rack:<R>@<seconds> or zone:<Z>@<seconds> (e.g. %s 1@900, "
                         "%s rack:3@900)\n",
                         argv[i], i + 1 < argc ? argv[i + 1] : "(missing)", argv[i],
                         argv[i]);
            return 2;
          }
          ++i;
          if (is_fail) {
            machine_events.push_back(FleetEvent::FailDomain(time_seconds, scope, index));
          } else if (is_drain) {
            machine_events.push_back(FleetEvent::DrainDomain(time_seconds, scope, index));
          } else {
            machine_events.push_back(
                FleetEvent::RejoinDomain(time_seconds, scope, index));
          }
          continue;
        }
        char* end = nullptr;
        const uint64_t parsed = std::strtoull(argv[i], &end, 10);
        if (end != nullptr && *end == '\0' && end != argv[i]) {
          if (have_seed) {
            std::fprintf(stderr, "two seeds given ('%" PRIu64 "' and '%s')\n", seed,
                         argv[i]);
            return 2;
          }
          seed = parsed;
          have_seed = true;
        } else if (DispatchRegistry::Global().Has(argv[i])) {
          if (have_dispatch) {
            std::fprintf(stderr, "two dispatch policies given ('%s' and '%s')\n",
                         dispatch.c_str(), argv[i]);
            return 2;
          }
          dispatch = argv[i];
          have_dispatch = true;
        } else if (PolicyRegistry::Global().Has(argv[i])) {
          if (have_policy) {
            std::fprintf(stderr, "two scheduling policies given ('%s' and '%s')\n",
                         policy.c_str(), argv[i]);
            return 2;
          }
          policy = argv[i];
          have_policy = true;
        } else {
          std::fprintf(stderr,
                       "'%s' is neither a seed, a dispatch policy nor a scheduling "
                       "policy (see `numaplace_cli policies`)\n",
                       argv[i]);
          return 2;
        }
      }
      if ((sharded_cells > 0 || sharded_probes > 0) && dispatch != "sharded") {
        if (have_dispatch) {
          std::fprintf(stderr, "--cells/--probes tune the sharded dispatcher, but "
                               "dispatch is '%s'\n",
                       dispatch.c_str());
          return 2;
        }
        dispatch = "sharded";  // the tuning flags imply the policy
      }
      if ((admission.bursts > 0 || admission.burst_containers > 0) &&
          !admission.flash_crowd) {
        admission.flash_crowd = true;  // the spike knobs imply the trace shape
      }
      return CmdFleet(argv[2], vcpus, containers, seed, dispatch, policy, machine_events,
                      sharded_cells, sharded_probes, fleet_probes, domain_racks,
                      domain_zones, spread_weight, spread_cap, admission, output);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  Usage();
  return 2;
}
