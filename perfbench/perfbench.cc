// End-to-end benchmark driver for numaplace.
//
// Runs one named workload, built from a seed, through the library's public
// API: important placements, model training, trace generation, fleet (or
// machine) construction and the evaluated replay. Every run also checks the
// sim-time outputs for consistency and prints a digest of them.
//
//   perfbench --workload <fleet_steady|fleet_overload|machine_tenancy>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--spans-out <path>]
//
// --trace 0 repeats whole untraced runs (set-up + replay + checks) until
// --seconds have passed and prints the end-to-end metrics as medians over
// the repetitions. --trace 1 alternates an untraced run with a traced one,
// which replays the same trace one Step() at a time while recording spans
// around every call into a layer; it prints the per-layer metrics and
// writes the spans as Chrome trace-event JSON to --spans-out.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A violated output check is reported on standard error and makes the
// program exit with status 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/domains.h"
#include "src/cluster/fleet.h"
#include "src/core/concern.h"
#include "src/core/important.h"
#include "src/model/pipeline.h"
#include "src/model/registry.h"
#include "src/scheduler/scheduler.h"
#include "src/sim/perf_model.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/metrics_observer.h"
#include "src/telemetry/snapshots.h"
#include "src/telemetry/spans.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/synth.h"
#include "src/workloads/trace.h"

namespace {

using namespace numaplace;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double Since(Clock::time_point start) { return Seconds(start, Clock::now()); }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of an unsorted sample (0 when empty).
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// printf-style append, for the canonical sim-time text the digest hashes.
void Appendf(std::string* out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n > 0) {
    out->append(buffer, std::min(static_cast<size_t>(n), sizeof(buffer) - 1));
  }
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Output-check violations of the current run; each is reported once on
// standard error.
int g_violations = 0;

void Violation(const char* format, ...) {
  ++g_violations;
  std::fprintf(stderr, "check failed: ");
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fprintf(stderr, "\n");
}

// ---- Spans ---------------------------------------------------------------

// Spans of the traced run, kept in memory and written once at the end. The
// layer doubles as the Chrome trace thread, so each layer gets its own track.
class SpanLog {
 public:
  enum Layer { kSetup = 1, kStep = 2, kSearch = 3, kTelemetry = 4, kEval = 5 };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void Add(Layer layer, const char* name, Clock::time_point start,
           Clock::time_point end, int request = -1) {
    spans_.push_back({layer, name, Micros(start), Micros(end) - Micros(start), request});
  }

  // A span known by its end instant and length (searches timed by the fleet).
  void AddEnding(Layer layer, const char* name, Clock::time_point end, double seconds,
                 int request) {
    const double end_us = Micros(end);
    const double dur_us = std::min(end_us, seconds * 1e6);
    spans_.push_back({layer, name, end_us - dur_us, dur_us, request});
  }

  // Total duration of one layer's spans, in seconds.
  double LayerSeconds(Layer layer) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.layer == layer) {
        total += span.dur_us;
      }
    }
    return total * 1e-6;
  }

  void WriteChromeTrace(std::ostream& os) const {
    static const char* const kLayerNames[] = {"", "setup", "cluster.step",
                                              "search", "telemetry", "eval"};
    os << "{\"traceEvents\":[";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"perfbench\"}}";
    for (int layer = kSetup; layer <= kEval; ++layer) {
      os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << layer
         << ",\"args\":{\"name\":\"" << kLayerNames[layer] << "\"}}";
    }
    char line[256];
    for (const Span& span : spans_) {
      std::snprintf(line, sizeof(line),
                    ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%d}}",
                    span.name, static_cast<int>(span.layer), span.ts_us, span.dur_us,
                    span.request);
      os << line;
    }
    os << "\n]}\n";
  }

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    Layer layer;
    const char* name;
    double ts_us;
    double dur_us;
    int request;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- Observers -----------------------------------------------------------

// Records every container's fate: whether and when it queued, ran, was shed
// by admission, and how often it departed. The output checks and the
// unserved / queue-wait metrics read it after the replay.
class FateObserver final : public ForwardingObserver {
 public:
  struct Fate {
    double arrival = -1.0;
    double first_queued = -1.0;
    double first_admitted = -1.0;
    int admissions = 0;
    int departures = 0;
    bool rejected = false;
    bool admitted_after_reject = false;
  };

  FateObserver(EventObserver* next, const EventStream& trace) : ForwardingObserver(next) {
    int max_id = 0;
    for (const FleetEvent& event : trace) {
      if (const ContainerArrival* arrival = event.arrival()) {
        max_id = std::max(max_id, arrival->container_id);
      }
    }
    fates_.resize(static_cast<size_t>(max_id) + 1);
    for (const FleetEvent& event : trace) {
      if (const ContainerArrival* arrival = event.arrival()) {
        fates_[static_cast<size_t>(arrival->container_id)].arrival = event.time_seconds;
        ++arrivals_;
      }
    }
  }

  void OnAdmission(int machine_id, const ScheduleOutcome& outcome, double now) override {
    Fate& fate = At(outcome.container_id);
    if (fate.first_admitted < 0.0) {
      fate.first_admitted = now;
    }
    ++fate.admissions;
    fate.admitted_after_reject = fate.admitted_after_reject || fate.rejected;
    ForwardingObserver::OnAdmission(machine_id, outcome, now);
  }
  void OnQueued(int machine_id, const ScheduleOutcome& outcome, double now) override {
    Fate& fate = At(outcome.container_id);
    if (fate.first_queued < 0.0 && fate.admissions == 0) {
      fate.first_queued = now;
    }
    ForwardingObserver::OnQueued(machine_id, outcome, now);
  }
  void OnDeparture(int machine_id, int container_id, double now) override {
    ++At(container_id).departures;
    ForwardingObserver::OnDeparture(machine_id, container_id, now);
  }
  void OnAdmissionDecision(int container_id, int vcpus, SloTier tier,
                           AdmissionDecision decision, double now) override {
    if (decision == AdmissionDecision::kReject) {
      At(container_id).rejected = true;
      ++rejections_;
    }
    ForwardingObserver::OnAdmissionDecision(container_id, vcpus, tier, decision, now);
  }

  const std::vector<Fate>& fates() const { return fates_; }
  int arrivals() const { return arrivals_; }
  int rejections() const { return rejections_; }

 private:
  Fate& At(int container_id) {
    if (container_id < 0 || static_cast<size_t>(container_id) >= fates_.size()) {
      Violation("callback for container %d, which never arrived", container_id);
      return scratch_;
    }
    return fates_[static_cast<size_t>(container_id)];
  }

  std::vector<Fate> fates_;
  Fate scratch_;
  int arrivals_ = 0;
  int rejections_ = 0;
};

// Times every call into the telemetry observers behind it (traced run).
class TimedForward final : public ForwardingObserver {
 public:
  TimedForward(EventObserver* next, SpanLog* log) : ForwardingObserver(next), log_(log) {}

  void OnAdmission(int machine_id, const ScheduleOutcome& outcome, double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnAdmission(machine_id, outcome, now);
    Record("admission", start, outcome.container_id);
  }
  void OnQueued(int machine_id, const ScheduleOutcome& outcome, double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnQueued(machine_id, outcome, now);
    Record("queued", start, outcome.container_id);
  }
  void OnDeparture(int machine_id, int container_id, double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnDeparture(machine_id, container_id, now);
    Record("departure", start, container_id);
  }
  void OnMove(const RebalanceMove& move, double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnMove(move, now);
    Record("move", start, move.container_id);
  }
  void OnEvacuation(const EvacuationReport& report, double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnEvacuation(report, now);
    Record("evacuation", start, -1);
  }
  void OnMachineAvailability(int machine_id, MachineAvailability availability,
                             double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnMachineAvailability(machine_id, availability, now);
    Record("availability", start, -1);
  }
  void OnTargetSearch(const TargetSearchStats& search, double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnTargetSearch(search, now);
    Record("target_search", start, -1);
  }
  void OnAdmissionDecision(int container_id, int vcpus, SloTier tier,
                           AdmissionDecision decision, double now) override {
    const Clock::time_point start = Clock::now();
    ForwardingObserver::OnAdmissionDecision(container_id, vcpus, tier, decision, now);
    Record("admission_decision", start, container_id);
  }

  // A sampler call, timed by the caller's loop.
  void RecordSample(Clock::time_point start) { Record("snapshot", start, -1); }

  int callbacks() const { return callbacks_; }

 private:
  void Record(const char* name, Clock::time_point start, int request) {
    log_->Add(SpanLog::kTelemetry, name, start, Clock::now(), request);
    ++callbacks_;
  }

  SpanLog* log_;
  int callbacks_ = 0;
};

// First observer of the traced chain: counts decisions and turns the
// fleet's target-search reports into spans. A dispatch search is timed from
// the start of the arrival's Step() to the moment its candidates are built.
// Rebalance and evacuation searches that previewed nothing (most passes under
// load) are summed but get no span of their own, which keeps the span file
// small.
class SearchTracer final : public ForwardingObserver {
 public:
  SearchTracer(EventObserver* next, SpanLog* log) : ForwardingObserver(next), log_(log) {}

  void BeginStep(Clock::time_point start, int request, bool arrival) {
    step_start_ = start;
    request_ = request;
    awaiting_dispatch_ = arrival;
  }

  void OnAdmission(int machine_id, const ScheduleOutcome& outcome, double now) override {
    ++decisions;
    ForwardingObserver::OnAdmission(machine_id, outcome, now);
  }
  void OnTargetSearch(const TargetSearchStats& search, double now) override {
    const Clock::time_point end = Clock::now();
    if (search.kind == TargetSearchStats::Kind::kDispatch) {
      if (awaiting_dispatch_) {
        awaiting_dispatch_ = false;
        log_->Add(SpanLog::kSearch, "dispatch", step_start_, end, request_);
        dispatch_seconds += Seconds(step_start_, end);
      }
    } else {
      fleetops_seconds += search.host_seconds;
      if (search.previews > 0) {
        log_->AddEnding(SpanLog::kSearch,
                        search.kind == TargetSearchStats::Kind::kRebalance ? "rebalance"
                                                                           : "evacuation",
                        end, search.host_seconds, request_);
      }
    }
    ForwardingObserver::OnTargetSearch(search, now);
  }

  int decisions = 0;
  double dispatch_seconds = 0.0;
  double fleetops_seconds = 0.0;

 private:
  SpanLog* log_;
  Clock::time_point step_start_;
  int request_ = -1;
  bool awaiting_dispatch_ = false;
};

// ---- Workloads -----------------------------------------------------------

constexpr int kVcpus = 16;

// One named workload. Sizes are per stream for fleets (one Poisson stream
// per machine) and for the whole trace on a single machine.
struct WorkloadSpec {
  std::string name;
  bool fleet = true;
  std::vector<std::string> machines;  // "amd" / "intel", machine order
  TraceConfig trace;
  bool flash_crowd = false;
  FlashCrowdConfig flash;
  std::string dispatch;  // DispatchRegistry name
  std::string admission;  // empty: admission layer off
  int defer_limit = 8;
  int racks = 0;
  int zones = 0;
  double spread_weight = 0.0;
  int spread_cap = 0;
  bool domain_events = false;  // mid-trace rack fail + machine drain
  bool telemetry = false;      // metrics, lifecycle spans and snapshots
};

std::vector<std::string> MixedMachines(int count) {
  std::vector<std::string> machines;
  for (int m = 0; m < count; ++m) {
    machines.push_back(m % 2 == 0 ? "amd" : "intel");
  }
  return machines;
}

bool MakeWorkload(const std::string& name, bool tiny, WorkloadSpec* spec) {
  spec->name = name;
  spec->trace.vcpus = kVcpus;
  spec->trace.goal_fraction = 0.9;
  spec->trace.mean_lifetime_seconds = 480.0;
  if (name == "fleet_steady") {
    // Offered load far past saturation: sharded dispatch, capacity-index
    // fleet ops, and the per-event evaluation of every machine. Long streams
    // on few machines keep the sim-time results steady across seeds (see
    // NOTES.md).
    spec->machines = MixedMachines(tiny ? 8 : 16);
    spec->dispatch = "sharded";
    spec->trace.num_containers = tiny ? 6 : 96;
    spec->trace.mean_interarrival_seconds = 40.0;
    return true;
  }
  if (name == "fleet_overload") {
    // Flash crowds against tiered admission on a racked fleet, with a rack
    // failure and a machine drain mid-trace and every telemetry sink on.
    spec->machines = MixedMachines(tiny ? 8 : 32);
    spec->racks = tiny ? 4 : 8;
    spec->zones = 2;
    spec->dispatch = "best-predicted";
    spec->spread_weight = 2.0;
    spec->spread_cap = 2;
    spec->admission = "tiered";
    spec->defer_limit = 2;
    spec->flash_crowd = true;
    spec->trace.num_containers = tiny ? 6 : 24;
    spec->trace.mean_interarrival_seconds = 120.0;
    spec->trace.goal_fraction = 0.5;
    spec->flash.base = spec->trace;
    spec->flash.bursts = 2;
    spec->flash.burst_containers = tiny ? 6 : 20;
    spec->flash.burst_mean_lifetime_seconds = 120.0;
    spec->domain_events = true;
    spec->telemetry = true;
    return true;
  }
  if (name == "machine_tenancy") {
    // One machine, no cluster layer: the machine scheduler's own replay.
    spec->fleet = false;
    spec->machines = {"amd"};
    spec->trace.num_containers = tiny ? 200 : 8000;
    spec->trace.mean_interarrival_seconds = 150.0;
    return true;
  }
  return false;
}

Topology MakeMachine(const std::string& name) {
  return name == "intel" ? IntelXeonE74830v3() : AmdOpteron6272();
}

// Placement set and trained model of one topology group.
struct GroupAssets {
  Topology topo;
  int baseline_id = 1;
  bool use_interconnect = false;
  ImportantPlacementSet ips;
  TrainedPerfModel model;
};

// Host seconds of the set-up phases.
struct SetupTimes {
  double placements_s = 0.0;
  double train_s = 0.0;
  double trace_s = 0.0;
  double build_s = 0.0;

  double Total() const { return placements_s + train_s + trace_s + build_s; }
};

// Everything one run replays against.
struct Instance {
  std::vector<GroupAssets> groups;
  EventStream trace;
  std::unique_ptr<FleetScheduler> fleet;
  // The single-machine workload's scheduler and models.
  std::unique_ptr<PerformanceModel> solo;
  std::unique_ptr<MultiTenantModel> multi;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<MachineScheduler> machine;
  SetupTimes times;
};

// Builds placement sets, models, the trace and the fleet (or machine),
// timing each phase; with a log, each phase of each group is also a span.
std::unique_ptr<Instance> SetUp(const WorkloadSpec& spec, uint64_t seed, SpanLog* log) {
  auto inst = std::make_unique<Instance>();
  Clock::time_point start = Clock::now();
  const auto lap = [&](const char* name, double* total, int request) {
    const Clock::time_point end = Clock::now();
    *total += Seconds(start, end);
    if (log != nullptr) {
      log->Add(SpanLog::kSetup, name, start, end, request);
    }
    start = end;
  };

  std::vector<std::string> group_machines;
  for (const std::string& name : spec.machines) {
    if (std::find(group_machines.begin(), group_machines.end(), name) ==
        group_machines.end()) {
      group_machines.push_back(name);
    }
  }
  for (const std::string& name : group_machines) {
    const int group = static_cast<int>(inst->groups.size());
    GroupAssets assets{MakeMachine(name), name == "intel" ? 2 : 1, false, {}, {}};
    assets.use_interconnect = InterconnectIsAsymmetric(assets.topo);
    assets.ips = GenerateImportantPlacements(assets.topo, kVcpus, assets.use_interconnect);
    lap("placements", &inst->times.placements_s, group);
    const PerformanceModel sim(assets.topo, 0.015, 1);
    const ModelPipeline pipeline(assets.ips, sim, assets.baseline_id, 42);
    Rng train_rng(7);
    assets.model =
        pipeline.TrainPerfAuto(SampleTrainingWorkloads(72, train_rng), PerfModelConfig());
    lap("train", &inst->times.train_s, group);
    inst->groups.push_back(std::move(assets));
  }

  Rng trace_rng(seed);
  const int streams = static_cast<int>(spec.machines.size());
  EventStream generated =
      !spec.fleet        ? GeneratePoissonTrace(spec.trace, trace_rng)
      : spec.flash_crowd ? GenerateFlashCrowdTrace(spec.flash, streams, trace_rng)
                         : GenerateFleetTrace(spec.trace, streams, trace_rng);
  lap("trace", &inst->times.trace_s, -1);

  if (!spec.fleet) {
    const GroupAssets& assets = inst->groups.front();
    inst->solo = std::make_unique<PerformanceModel>(assets.topo, 0.015, 1);
    inst->multi = std::make_unique<MultiTenantModel>(assets.topo, 0.015, 1);
    inst->registry = std::make_unique<ModelRegistry>();
    inst->registry->Register(assets.topo.name(), kVcpus, assets.model);
    SchedulerConfig config;
    config.baseline_id = assets.baseline_id;
    config.use_interconnect_concern = assets.use_interconnect;
    inst->machine = std::make_unique<MachineScheduler>(assets.topo, *inst->solo,
                                                       inst->registry.get(), config);
    inst->machine->ProvidePlacements(assets.ips);
    inst->trace = std::move(generated);
    lap("build", &inst->times.build_s, -1);
    return inst;
  }

  std::vector<MachineSpec> specs;
  for (const std::string& name : spec.machines) {
    const GroupAssets& assets =
        inst->groups[static_cast<size_t>(std::find(group_machines.begin(),
                                                   group_machines.end(), name) -
                                         group_machines.begin())];
    MachineSpec machine(assets.topo);
    machine.scheduler.baseline_id = assets.baseline_id;
    machine.scheduler.use_interconnect_concern = assets.use_interconnect;
    specs.push_back(std::move(machine));
  }
  FleetConfig config;
  config.dispatch = spec.dispatch;
  config.domain_racks = spec.racks;
  config.domain_zones = spec.zones;
  config.spread_weight = spec.spread_weight;
  config.spread_max_per_rack = spec.spread_cap;
  config.admission = spec.admission;
  config.admission_defer_limit = spec.defer_limit;
  inst->fleet = std::make_unique<FleetScheduler>(std::move(specs), config);
  for (const GroupAssets& assets : inst->groups) {
    inst->fleet->ProvidePlacements(assets.topo.name(), assets.ips);
    inst->fleet->GroupRegistry(assets.topo.name())
        .Register(assets.topo.name(), kVcpus, assets.model);
  }
  lap("build", &inst->times.build_s, -1);

  if (spec.domain_events) {
    // Rack 1 fails and comes back; later the first machine of the last
    // rack drains for maintenance and rejoins. Instants are shares of the
    // generated trace's span, so they fall inside it for every seed.
    const double end = generated.EndTime();
    const FailureDomainTopology& domains = inst->fleet->domains();
    const int drained = domains.MachinesInRack(domains.NumRacks() - 1).front();
    inst->trace = InjectMachineEvents(
        std::move(generated),
        {FleetEvent::FailDomain(0.30 * end, DomainScope::kRack, 1),
         FleetEvent::RejoinDomain(0.45 * end, DomainScope::kRack, 1),
         FleetEvent::Drain(0.60 * end, drained), FleetEvent::Rejoin(0.75 * end, drained)},
        domains);
  } else {
    inst->trace = std::move(generated);
  }
  lap("trace", &inst->times.trace_s, -1);
  return inst;
}

// ---- Telemetry sinks ------------------------------------------------------

constexpr double kSnapshotIntervalSeconds = 300.0;

// The sinks a `fleet --trace-out --metrics-out` user attaches: metrics,
// lifecycle spans and periodic snapshots, all written to memory.
struct Telemetry {
  explicit Telemetry(const FleetScheduler& fleet)
      : metrics(&registry, nullptr, fleet.NumMachines()),
        spans(&metrics),
        snapshots(fleet, kSnapshotIntervalSeconds, snapshot_lines) {}

  // Closes open lifecycle slices and serializes the span artifact.
  void Finish(double end_seconds) {
    spans.Finish(end_seconds);
    std::ostringstream os;
    spans.WriteChromeTrace(os);
    chrome_trace = os.str();
  }

  MetricsRegistry registry;
  MetricsObserver metrics;
  SpanCollector spans;
  std::ostringstream snapshot_lines;
  FleetSnapshotRecorder snapshots;
  std::string chrome_trace;
};

// ---- Sim-time outcome and output checks ------------------------------------

// Sim-time results of one replay. `canonical` is a text dump of every
// sim-time output; equal runs have equal dumps, and the digest hashes it.
struct Outcome {
  FleetReport report;
  double queue_wait_s = 0.0;
  double unserved_share = 0.0;
  int arrivals = 0;
  FleetStats fleet_stats;
  SchedulerStats machine_totals;  // summed over machines
  std::string canonical;
};

void AppendMachineStats(std::string* out, int machine, const SchedulerStats& s) {
  Appendf(out, "machine %d: %d %d %d %d %d %d %d %d %.17g %.17g\n", machine, s.submitted,
          s.admitted_immediately, s.queued, s.admitted_from_queue, s.departed, s.upgrades,
          s.probe_runs, s.cached_probe_reuses, s.busy_thread_seconds,
          s.last_event_seconds);
}

void AddTo(SchedulerStats* total, const SchedulerStats& s) {
  total->submitted += s.submitted;
  total->admitted_immediately += s.admitted_immediately;
  total->queued += s.queued;
  total->admitted_from_queue += s.admitted_from_queue;
  total->departed += s.departed;
  total->upgrades += s.upgrades;
  total->probe_runs += s.probe_runs;
  total->cached_probe_reuses += s.cached_probe_reuses;
}

void CheckShare(const char* name, double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    Violation("%s = %.17g lies outside [0, 1]", name, value);
  }
}

// Runs the output checks on a finished replay and assembles its outcome.
Outcome Evaluate(const Instance& inst, const FateObserver& fates, const FleetReport& report,
                 const Telemetry* telemetry) {
  Outcome out;
  out.report = report;
  out.arrivals = fates.arrivals();
  std::string& text = out.canonical;
  Appendf(&text, "events %zu arrivals %d\n", inst.trace.size(), out.arrivals);

  // Every arrival ends exactly one way: it ran, admission shed it before it
  // ever ran, or it departed without ever being placed.
  int ran = 0;
  int shed = 0;
  int never_placed = 0;
  int waited = 0;
  double wait_sum = 0.0;
  const std::vector<FateObserver::Fate>& all = fates.fates();
  for (size_t id = 0; id < all.size(); ++id) {
    const FateObserver::Fate& fate = all[id];
    if (fate.arrival < 0.0) {
      continue;
    }
    const bool did_run = fate.admissions > 0;
    ran += did_run ? 1 : 0;
    shed += !did_run && fate.rejected ? 1 : 0;
    never_placed += !did_run && !fate.rejected ? 1 : 0;
    // A container shed at arrival never departs; every other one departs
    // exactly once (a preemption victim at its preemption).
    const bool shed_at_arrival =
        fate.rejected && !did_run && fate.first_queued < 0.0;
    if (fate.departures != (shed_at_arrival ? 0 : 1)) {
      Violation("container %zu departed %d times", id, fate.departures);
    }
    if (fate.admitted_after_reject) {
      Violation("container %zu was placed after admission shed it", id);
    }
    if (fate.first_queued >= 0.0 && did_run) {
      ++waited;
      wait_sum += fate.first_admitted - fate.arrival;
    }
  }
  if (ran + shed + never_placed != out.arrivals) {
    Violation("fates %d + %d + %d do not add up to %d arrivals", ran, shed, never_placed,
              out.arrivals);
  }
  out.unserved_share =
      out.arrivals > 0 ? static_cast<double>(shed + never_placed) / out.arrivals : 0.0;
  Appendf(&text, "fates ran %d shed %d never %d waited %d wait %.17g\n", ran, shed,
          never_placed, waited, wait_sum);

  if (inst.machine != nullptr) {
    const SchedulerStats& s = inst.machine->stats();
    out.machine_totals = s;
    out.queue_wait_s = waited > 0 ? wait_sum / waited : 0.0;
    out.report.mean_queue_wait_seconds = out.queue_wait_s;
    if (s.submitted != out.arrivals || s.admitted_immediately + s.queued != s.submitted) {
      Violation("machine submitted %d (immediately %d + queued %d) for %d arrivals",
                s.submitted, s.admitted_immediately, s.queued, out.arrivals);
    }
    if (s.admitted_from_queue != waited) {
      Violation("machine admitted %d from its queue, observer saw %d",
                s.admitted_from_queue, waited);
    }
    AppendMachineStats(&text, 0, s);
  } else {
    const FleetScheduler& fleet = *inst.fleet;
    const FleetStats& s = fleet.stats();
    out.fleet_stats = s;
    out.queue_wait_s = report.mean_queue_wait_seconds;
    if (s.submitted != out.arrivals) {
      Violation("fleet submitted %d for %d arrivals", s.submitted, out.arrivals);
    }
    int tier_arrivals = 0;
    int tier_rejected = 0;
    for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
      tier_arrivals += s.tier_arrivals[t];
      tier_rejected += s.tier_rejected[t];
      // Preemption victims were admitted or deferred before they were
      // shed, so they are counted twice on the left.
      if (s.tier_admitted[t] + s.tier_deferred[t] + s.tier_rejected[t] -
              s.tier_preempted[t] !=
          s.tier_arrivals[t]) {
        Violation("tier %zu: admitted %d + deferred %d + rejected %d - preempted %d != "
                  "arrivals %d",
                  t, s.tier_admitted[t], s.tier_deferred[t], s.tier_rejected[t],
                  s.tier_preempted[t], s.tier_arrivals[t]);
      }
      Appendf(&text, "tier %zu: %d %d %d %d %d %.17g %.17g\n", t, s.tier_arrivals[t],
              s.tier_admitted[t], s.tier_deferred[t], s.tier_rejected[t],
              s.tier_preempted[t], report.tier_goal_attainment[t],
              report.tier_container_seconds[t]);
    }
    if (tier_arrivals != (fleet.AdmissionActive() ? out.arrivals : 0)) {
      Violation("tiers saw %d arrivals of %d", tier_arrivals, out.arrivals);
    }
    if (tier_rejected != fates.rejections()) {
      Violation("tiers rejected %d, observer saw %d rulings", tier_rejected,
                fates.rejections());
    }
    std::array<int, 3> by_reason{};
    for (const RebalanceMove& move : fleet.rebalance_log()) {
      ++by_reason[static_cast<size_t>(move.reason)];
      if (!(move.predicted_gain_ops > move.modeled_cost_ops)) {
        Violation("move of container %d: gain %.17g does not beat cost %.17g",
                  move.container_id, move.predicted_gain_ops, move.modeled_cost_ops);
      }
      Appendf(&text, "move %d %d->%d %s %d %.17g %.17g %.17g %.17g\n", move.container_id,
              move.from_machine, move.to_machine, ToString(move.reason),
              move.was_queued ? 1 : 0, move.predicted_gain_ops, move.modeled_cost_ops,
              move.move_seconds, move.network_seconds);
    }
    if (by_reason[0] != s.rebalance_moves || by_reason[1] != s.drain_moves ||
        by_reason[2] != s.failover_moves ||
        s.evacuation_moves != s.drain_moves + s.failover_moves) {
      Violation("move log by reason %d/%d/%d vs counters %d/%d/%d (evacuation moves %d)",
                by_reason[0], by_reason[1], by_reason[2], s.rebalance_moves,
                s.drain_moves, s.failover_moves, s.evacuation_moves);
    }
    for (const EvacuationReport& e : fleet.evacuation_log()) {
      Appendf(&text, "evacuation %d %s %.17g %d %d %d %.17g %.17g\n", e.machine_id,
              ToString(e.reason), e.start_seconds, e.containers, e.rehomed, e.requeued,
              e.last_landing_seconds, e.move_seconds_total);
    }
    Appendf(&text,
            "fleet: %d %d %d %d %.17g %d %d %d %d %d %d %.17g %.17g %d %.17g %d %d %d %d "
            "%d %d %d %d\n",
            s.submitted, s.dispatched_immediately, s.queued, s.queue_admissions,
            s.queue_wait_seconds, s.rebalance_moves, s.evacuations, s.evacuation_moves,
            s.evacuation_requeues, s.drain_moves, s.failover_moves,
            s.cross_machine_move_seconds, s.network_copy_seconds, s.fleet_probe_runs,
            s.fleet_probe_seconds, s.dispatch_previews, s.dispatch_decisions,
            s.rebalance_previews, s.rebalance_decisions, s.evac_previews,
            s.evac_decisions, s.rebalance_passes, s.rebalance_passes_skipped);
    for (int m = 0; m < fleet.NumMachines(); ++m) {
      AddTo(&out.machine_totals, fleet.machine(m).stats());
      AppendMachineStats(&text, m, fleet.machine(m).stats());
      CheckShare("machine utilization", report.machine_utilizations[static_cast<size_t>(m)]);
    }
  }

  Appendf(&text, "report %.17g %.17g %.17g %.17g %.17g %.17g %d\n", report.goal_attainment,
          report.container_seconds_at_goal, report.mean_utilization,
          report.utilization_min, report.utilization_max, out.queue_wait_s,
          report.decisions);
  if (telemetry != nullptr) {
    Appendf(&text, "telemetry spans %016" PRIx64 " snapshots %016" PRIx64 "\n",
            Fnv1a(telemetry->chrome_trace), Fnv1a(telemetry->snapshot_lines.str()));
  }
  CheckShare("goal_attainment", report.goal_attainment);
  CheckShare("at_goal_share", report.container_seconds_at_goal);
  CheckShare("unserved_share", out.unserved_share);
  CheckShare("premium_attainment",
             report.tier_goal_attainment[static_cast<size_t>(SloTier::kPremium)]);
  CheckShare("mean_utilization", report.mean_utilization);
  return out;
}

// A single machine has no tiers; its report uses the fleet's convention for
// a tier without live containers (attainment 1.0).
FleetReport FromTenancy(const TenancyReport& tenancy) {
  FleetReport report;
  report.goal_attainment = tenancy.goal_attainment;
  report.container_seconds_at_goal = tenancy.container_seconds_at_goal;
  report.mean_utilization = tenancy.mean_utilization;
  report.utilization_min = tenancy.mean_utilization;
  report.utilization_max = tenancy.mean_utilization;
  report.decisions = tenancy.decisions;
  report.wall_seconds = tenancy.wall_seconds;
  report.machine_utilizations = {tenancy.mean_utilization};
  report.tier_goal_attainment.fill(1.0);
  return report;
}

// ---- Untraced run -----------------------------------------------------------

// Host seconds of one untraced run.
struct RunTimes {
  SetupTimes setup;
  double replay_s = 0.0;  // the ReplayWithEvaluation call
  double step_s = 0.0;    // the report's own Step() timer
  double write_s = 0.0;   // serializing the telemetry artifacts
  double wall_s = 0.0;    // set-up + replay + write + checks
  size_t events = 0;      // trace events replayed
};

// One whole workload run on the library's own replay entry points.
Outcome RunUntraced(const WorkloadSpec& spec, uint64_t seed, RunTimes* times) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Instance> inst = SetUp(spec, seed, nullptr);
  times->setup = inst->times;
  std::unique_ptr<Telemetry> telemetry;
  if (spec.telemetry) {
    telemetry = std::make_unique<Telemetry>(*inst->fleet);
  }
  FateObserver fates(telemetry != nullptr ? &telemetry->spans : nullptr, inst->trace);

  const Clock::time_point replay_start = Clock::now();
  const FleetReport report =
      inst->fleet != nullptr
          ? inst->fleet->ReplayWithEvaluation(
                inst->trace, &fates, telemetry != nullptr ? &telemetry->snapshots : nullptr)
          : FromTenancy(ReplayWithEvaluation(*inst->machine, inst->trace, *inst->multi,
                                             &fates));
  times->replay_s = Since(replay_start);
  times->step_s = report.wall_seconds;
  times->events = inst->trace.size();

  const Clock::time_point write_start = Clock::now();
  if (telemetry != nullptr) {
    telemetry->Finish(inst->trace.EndTime());
  }
  times->write_s = Since(write_start);
  Outcome outcome = Evaluate(*inst, fates, report, telemetry.get());
  times->wall_s = Since(start);
  return outcome;
}

// ---- Traced run ---------------------------------------------------------------

// Per-layer host numbers of one traced run.
struct TraceTimes {
  SetupTimes setup;
  double wall_s = 0.0;
  double step_s = 0.0;        // sum of Step() spans
  double step_self_s = 0.0;   // minus the searches and telemetry inside them
  double dispatch_s = 0.0;
  double fleetops_s = 0.0;
  double telemetry_s = 0.0;   // observer callbacks and snapshot samples
  double write_s = 0.0;
  int telemetry_callbacks = 0;
  double snapshot_s = 0.0;    // SnapshotPerformance calls
  long long snapshot_calls = 0;
  long long tenants = 0;
  double predict_s = 0.0;
  long long predicts = 0;
  std::vector<double> arrival_us;
  std::vector<double> departure_us;
  double machine_event_us_max = 0.0;
};

// Time-weighted attainment integrals, folded exactly as the library's
// ReplayWithEvaluation folds them so the two runs agree bit for bit.
struct Fold {
  double attainment = 0.0;
  double at_goal = 0.0;
  double container_seconds = 0.0;
  std::array<double, kNumSloTiers> tier_attainment{};
  std::array<double, kNumSloTiers> tier_seconds{};
};

// The same workload replayed one Step() at a time with a span around every
// call into a layer: set-up phases, each event's Step(), the searches and
// telemetry callbacks inside it, and each machine's SnapshotPerformance()
// before every advance of stream time.
Outcome RunTraced(const WorkloadSpec& spec, uint64_t seed, SpanLog* log, TraceTimes* tt) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Instance> inst = SetUp(spec, seed, log);
  tt->setup = inst->times;
  std::unique_ptr<Telemetry> telemetry;
  if (spec.telemetry) {
    telemetry = std::make_unique<Telemetry>(*inst->fleet);
  }
  std::unique_ptr<TimedForward> timed;
  if (telemetry != nullptr) {
    timed = std::make_unique<TimedForward>(&telemetry->spans, log);
  }
  FateObserver fates(timed.get(), inst->trace);
  SearchTracer tracer(&fates, log);

  FleetScheduler* fleet = inst->fleet.get();
  const bool tiers = fleet != nullptr && fleet->AdmissionActive();
  std::map<int, size_t> tier_of;
  if (tiers) {
    for (const FleetEvent& event : inst->trace) {
      if (const ContainerArrival* arrival = event.arrival()) {
        tier_of[arrival->container_id] =
            static_cast<size_t>(fleet->TierOf(arrival->workload.name));
      }
    }
  }
  const int num_machines = fleet != nullptr ? fleet->NumMachines() : 1;
  ReplaySampler* sampler = telemetry != nullptr ? &telemetry->snapshots : nullptr;
  double next_sample = sampler != nullptr ? sampler->IntervalSeconds() : 0.0;
  Fold fold;
  double last_time = 0.0;
  double predict_sink = 0.0;
  double sample_s = 0.0;

  for (const FleetEvent& event : inst->trace) {
    const double dt = event.time_seconds - last_time;
    if (dt > 0.0) {
      const Clock::time_point eval_start = Clock::now();
      const double base_attainment = fold.attainment;
      const double base_at_goal = fold.at_goal;
      const double base_container = fold.container_seconds;
      double ratio_rate = 0.0;
      double at_goal_rate = 0.0;
      double container_rate = 0.0;
      for (int m = 0; m < num_machines; ++m) {
        const MachineScheduler& machine = fleet != nullptr ? fleet->machine(m) : *inst->machine;
        const Clock::time_point snap_start = Clock::now();
        const std::vector<MachineScheduler::TenantSnapshot> snaps =
            machine.SnapshotPerformance(fleet != nullptr ? fleet->multi_model(m)
                                                         : *inst->multi);
        tt->snapshot_s += Since(snap_start);
        ++tt->snapshot_calls;
        tt->tenants += static_cast<long long>(snaps.size());
        for (const MachineScheduler::TenantSnapshot& snap : snaps) {
          const double ratio =
              snap.goal_abs_throughput > 0.0
                  ? std::min(1.0, snap.measured_abs_throughput / snap.goal_abs_throughput)
                  : 1.0;
          fold.attainment += ratio * dt;
          ratio_rate += ratio;
          if (ratio >= 0.999) {
            fold.at_goal += dt;
            at_goal_rate += 1.0;
          }
          fold.container_seconds += dt;
          container_rate += 1.0;
          if (tiers) {
            const size_t t = tier_of.at(snap.container_id);
            fold.tier_attainment[t] += ratio * dt;
            fold.tier_seconds[t] += dt;
          }
        }
        if (fleet == nullptr) {
          continue;  // the machine-level replay does not charge queued time
        }
        const std::vector<int> pending_ids = machine.PendingIds();
        const double pending = static_cast<double>(pending_ids.size());
        fold.container_seconds += pending * dt;
        container_rate += pending;
        if (tiers) {
          for (const int id : pending_ids) {
            fold.tier_seconds[tier_of.at(id)] += dt;
          }
        }
      }
      if (fleet != nullptr) {
        const std::vector<int> unplaced = fleet->UnplacedIds();
        fold.container_seconds += static_cast<double>(unplaced.size()) * dt;
        container_rate += static_cast<double>(unplaced.size());
        if (tiers) {
          for (const int id : unplaced) {
            fold.tier_seconds[tier_of.at(id)] += dt;
          }
        }
      }
      while (sampler != nullptr && next_sample <= event.time_seconds) {
        const Clock::time_point sample_start = Clock::now();
        const double part = next_sample - last_time;
        const double cs = base_container + container_rate * part;
        sampler->Sample(next_sample,
                        cs > 0.0 ? (base_attainment + ratio_rate * part) / cs : 1.0,
                        cs > 0.0 ? (base_at_goal + at_goal_rate * part) / cs : 1.0);
        next_sample += sampler->IntervalSeconds();
        timed->RecordSample(sample_start);
        sample_s += Since(sample_start);
      }
      last_time = event.time_seconds;
      log->Add(SpanLog::kEval, "evaluate", eval_start, Clock::now());
    }

    const ContainerArrival* arrival = event.arrival();
    const int request = event.IsContainerEvent() ? event.container_id() : -1;
    const Clock::time_point step_start = Clock::now();
    tracer.BeginStep(step_start, request, arrival != nullptr);
    if (fleet != nullptr) {
      fleet->Step(event, &tracer);
    } else {
      inst->machine->Step(event, &tracer);
    }
    const Clock::time_point step_end = Clock::now();
    const double step_us = 1e6 * Seconds(step_start, step_end);
    log->Add(SpanLog::kStep, ToString(event.kind()), step_start, step_end, request);
    if (arrival != nullptr) {
      tt->arrival_us.push_back(step_us);
      // The forest prediction on the container's two probe values, as the
      // machine layer ran it, timed again on its own.
      for (const GroupAssets& assets : inst->groups) {
        const ModelRegistry& registry = fleet != nullptr
                                            ? fleet->GroupRegistry(assets.topo.name())
                                            : *inst->registry;
        const CachedPrediction* cached = registry.FindPrediction(request);
        if (cached == nullptr) {
          continue;
        }
        const TrainedPerfModel& model = registry.Get(assets.topo.name(), kVcpus);
        const Clock::time_point predict_start = Clock::now();
        predict_sink += model.Predict(cached->perf_a, cached->perf_b).front();
        tt->predict_s += Since(predict_start);
        ++tt->predicts;
      }
    } else if (event.IsContainerEvent()) {
      tt->departure_us.push_back(step_us);
    } else {
      tt->machine_event_us_max = std::max(tt->machine_event_us_max, step_us);
    }
  }
  if (!(predict_sink >= 0.0)) {
    Violation("a prediction was negative or not a number");
  }

  FleetReport report;
  report.decisions = tracer.decisions;
  report.goal_attainment =
      fold.container_seconds > 0.0 ? fold.attainment / fold.container_seconds : 1.0;
  report.container_seconds_at_goal =
      fold.container_seconds > 0.0 ? fold.at_goal / fold.container_seconds : 1.0;
  if (fleet != nullptr) {
    for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
      report.tier_container_seconds[t] = fold.tier_seconds[t];
      report.tier_goal_attainment[t] =
          fold.tier_seconds[t] > 0.0 ? fold.tier_attainment[t] / fold.tier_seconds[t] : 1.0;
    }
    report.machine_utilizations = fleet->TimeAveragedUtilizations();
    double busy_weight = 0.0;
    double thread_weight = 0.0;
    report.utilization_min = 1.0;
    report.utilization_max = 0.0;
    for (int m = 0; m < num_machines; ++m) {
      const double utilization = report.machine_utilizations[static_cast<size_t>(m)];
      const double threads = fleet->topology(m).NumHwThreads();
      busy_weight += utilization * threads;
      thread_weight += threads;
      report.utilization_min = std::min(report.utilization_min, utilization);
      report.utilization_max = std::max(report.utilization_max, utilization);
    }
    report.mean_utilization = thread_weight > 0.0 ? busy_weight / thread_weight : 0.0;
    const FleetStats& s = fleet->stats();
    report.mean_queue_wait_seconds =
        s.queue_admissions > 0 ? s.queue_wait_seconds / s.queue_admissions : 0.0;
    tt->fleetops_s = s.fleet_op_search_seconds;
  } else {
    TenancyReport tenancy;
    tenancy.goal_attainment = report.goal_attainment;
    tenancy.container_seconds_at_goal = report.container_seconds_at_goal;
    tenancy.mean_utilization = inst->machine->TimeAveragedUtilization();
    tenancy.decisions = report.decisions;
    report = FromTenancy(tenancy);
  }

  const Clock::time_point write_start = Clock::now();
  if (telemetry != nullptr) {
    telemetry->Finish(inst->trace.EndTime());
    log->Add(SpanLog::kTelemetry, "write", write_start, Clock::now());
  }
  tt->write_s = Since(write_start);
  Outcome outcome = Evaluate(*inst, fates, report, telemetry.get());
  tt->wall_s = Since(start);

  tt->step_s = log->LayerSeconds(SpanLog::kStep);
  tt->dispatch_s = tracer.dispatch_seconds;
  tt->telemetry_s = std::max(0.0, log->LayerSeconds(SpanLog::kTelemetry) - tt->write_s);
  tt->telemetry_callbacks = timed != nullptr ? timed->callbacks() : 0;
  // Sampler calls run between steps; every other telemetry callback and
  // every search runs inside one.
  tt->step_self_s = tt->step_s - tracer.dispatch_seconds - tracer.fleetops_seconds -
                    (tt->telemetry_s - sample_s);
  return outcome;
}

// ---- Reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintResult(std::vector<Metric> metrics, long long attempted) {
  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      Violation("metric %s is not finite", metric.name.c_str());
      metric.value = 0.0;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %d, \"metrics\": {",
              g_violations == 0 ? "true" : "false", attempted, g_violations);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Sim-time end-to-end metrics of an outcome.
void AddSimMetrics(const Outcome& o, std::vector<Metric>* metrics) {
  metrics->push_back({"goal_attainment", o.report.goal_attainment, "share"});
  metrics->push_back({"at_goal_share", o.report.container_seconds_at_goal, "share"});
  metrics->push_back({"queue_wait_s", o.queue_wait_s, "s"});
  metrics->push_back({"unserved_share", o.unserved_share, "share"});
  metrics->push_back(
      {"premium_attainment",
       o.report.tier_goal_attainment[static_cast<size_t>(SloTier::kPremium)], "share"});
}

void PrintDigest(const WorkloadSpec& spec, uint64_t seed, const Outcome& o) {
  std::printf("digest %s seed=%" PRIu64 " fnv1a64=%016" PRIx64 "\n", spec.name.c_str(),
              seed, Fnv1a(o.canonical));
  std::printf("sim %s: goal_attainment=%.6f at_goal=%.6f queue_wait_s=%.3f "
              "unserved=%.6f premium=%.6f utilization=%.4f decisions=%d arrivals=%d\n",
              spec.name.c_str(), o.report.goal_attainment,
              o.report.container_seconds_at_goal, o.queue_wait_s, o.unserved_share,
              o.report.tier_goal_attainment[0], o.report.mean_utilization,
              o.report.decisions, o.arrivals);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fleet_steady|fleet_overload|machine_tenancy> "
               "--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] "
               "[--spans-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string size = "full";
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--size") {
      size = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec;
  if (argc % 2 == 0 || (size != "full" && size != "tiny") || (trace != 0 && trace != 1) ||
      !MakeWorkload(workload, size == "tiny", &spec)) {
    return Usage();
  }

  const Clock::time_point start = Clock::now();
  std::vector<Metric> metrics;
  long long attempted = 0;
  if (trace == 0) {
    // Whole runs until the time is up; host times are medians over runs.
    std::vector<Outcome> outcomes;
    std::vector<double> wall, setup, events_per_s;
    while (outcomes.empty() || Since(start) < seconds) {
      RunTimes times;
      outcomes.push_back(RunUntraced(spec, seed, &times));
      wall.push_back(times.wall_s);
      setup.push_back(times.setup.Total());
      events_per_s.push_back(static_cast<double>(times.events) / times.replay_s);
      attempted += outcomes.back().arrivals;
      std::printf("run %zu: wall_s=%.4f setup_s=%.4f train_s=%.4f replay_s=%.4f\n",
                  outcomes.size(), times.wall_s, times.setup.Total(), times.setup.train_s,
                  times.replay_s);
    }
    for (const Outcome& o : outcomes) {
      if (o.canonical != outcomes.front().canonical) {
        Violation("two runs of seed %" PRIu64 " produced different sim-time outputs", seed);
        break;
      }
    }
    PrintDigest(spec, seed, outcomes.front());
    metrics.push_back({"wall_s", Median(wall), "s"});
    metrics.push_back({"setup_s", Median(setup), "s"});
    metrics.push_back({"events_per_s", Median(events_per_s), "1/s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    AddSimMetrics(outcomes.front(), &metrics);
    std::printf("runs %zu\n", outcomes.size());
  } else {
    // Pairs of an untraced and a traced run of the same seed. The traced
    // run must reproduce the untraced one's sim-time outputs exactly; host
    // times are medians over pairs, and the last pair's spans are written.
    std::vector<RunTimes> plain;
    std::vector<TraceTimes> traced;
    std::unique_ptr<SpanLog> log;
    Outcome outcome;
    while (plain.empty() || Since(start) < seconds) {
      plain.emplace_back();
      outcome = RunUntraced(spec, seed, &plain.back());
      log = std::make_unique<SpanLog>(Clock::now());
      traced.emplace_back();
      const Outcome traced_outcome = RunTraced(spec, seed, log.get(), &traced.back());
      if (traced_outcome.canonical != outcome.canonical) {
        Violation("the traced run's sim-time outputs differ from the untraced run's");
        std::fprintf(stderr, "untraced:\n%s\ntraced:\n%s\n", outcome.canonical.c_str(),
                     traced_outcome.canonical.c_str());
        break;
      }
      attempted += 2LL * outcome.arrivals;
    }
    PrintDigest(spec, seed, outcome);
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      log->WriteChromeTrace(out);
      if (!out) {
        Violation("cannot write spans to %s", spans_out.c_str());
      }
      std::printf("wrote %zu spans to %s\n", log->size(), spans_out.c_str());
    }
    const auto median_of = [](const auto& runs, auto field) {
      std::vector<double> values;
      for (const auto& run : runs) {
        values.push_back(field(run));
      }
      return Median(values);
    };
    const TraceTimes& last = traced.back();
    const FleetStats& fs = outcome.fleet_stats;
    const SchedulerStats& ms = outcome.machine_totals;
    const double step_s = median_of(plain, [](const RunTimes& r) { return r.step_s; });
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const int searches = fs.rebalance_decisions + fs.evac_decisions;
    const int moves = fs.rebalance_moves + fs.evacuation_moves;
    int admitted = 0, deferred = 0, rejected = 0, preempted = 0;
    for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
      admitted += fs.tier_admitted[t];
      deferred += fs.tier_deferred[t];
      rejected += fs.tier_rejected[t];
      preempted += fs.tier_preempted[t];
    }
    metrics = {
        {"core.placements_s",
         median_of(traced, [](const TraceTimes& t) { return t.setup.placements_s; }), "s"},
        {"model.train_s",
         median_of(traced, [](const TraceTimes& t) { return t.setup.train_s; }), "s"},
        {"model.predict_us",
         median_of(traced, [&](const TraceTimes& t) { return 1e6 * ratio(t.predict_s, t.predicts); }),
         "us"},
        {"model.probe_runs", static_cast<double>(ms.probe_runs), "count"},
        {"model.probe_reuses", static_cast<double>(ms.cached_probe_reuses), "count"},
        {"workloads.trace_s",
         median_of(traced, [](const TraceTimes& t) { return t.setup.trace_s; }), "s"},
        {"cluster.build_s",
         median_of(traced, [](const TraceTimes& t) { return t.setup.build_s; }), "s"},
        {"cluster.step_s", step_s, "s"},
        {"cluster.step_self_s",
         median_of(traced, [](const TraceTimes& t) { return t.step_self_s; }), "s"},
        {"cluster.decisions_per_s", ratio(outcome.report.decisions, step_s), "1/s"},
        {"cluster.arrival_us_p50", Percentile(last.arrival_us, 50.0), "us"},
        {"cluster.arrival_us_p99", Percentile(last.arrival_us, 99.0), "us"},
        {"cluster.departure_us_p50", Percentile(last.departure_us, 50.0), "us"},
        {"cluster.departure_us_p99", Percentile(last.departure_us, 99.0), "us"},
        {"cluster.machine_event_us_max", last.machine_event_us_max, "us"},
        {"dispatch.previews", static_cast<double>(fs.dispatch_previews), "count"},
        {"dispatch.decisions", static_cast<double>(fs.dispatch_decisions), "count"},
        {"dispatch.previews_per_decision",
         ratio(fs.dispatch_previews, fs.dispatch_decisions), "count"},
        {"dispatch.search_s",
         median_of(traced, [](const TraceTimes& t) { return t.dispatch_s; }), "s"},
        {"fleetops.search_s",
         median_of(traced, [](const TraceTimes& t) { return t.fleetops_s; }), "s"},
        {"fleetops.rebalance_previews", static_cast<double>(fs.rebalance_previews), "count"},
        {"fleetops.rebalance_searches", static_cast<double>(fs.rebalance_decisions), "count"},
        {"fleetops.evac_previews", static_cast<double>(fs.evac_previews), "count"},
        {"fleetops.evac_searches", static_cast<double>(fs.evac_decisions), "count"},
        {"fleetops.passes_run", static_cast<double>(fs.rebalance_passes), "count"},
        {"fleetops.passes_skipped", static_cast<double>(fs.rebalance_passes_skipped), "count"},
        {"fleetops.moves", static_cast<double>(moves), "count"},
        {"fleetops.moves_per_search", ratio(moves, searches), "count"},
        {"admission.admitted", static_cast<double>(admitted), "count"},
        {"admission.deferred", static_cast<double>(deferred), "count"},
        {"admission.rejected", static_cast<double>(rejected), "count"},
        {"admission.preempted", static_cast<double>(preempted), "count"},
        {"eval.s", median_of(plain, [](const RunTimes& r) { return r.replay_s - r.step_s; }),
         "s"},
        {"eval.snapshot_calls", static_cast<double>(last.snapshot_calls), "count"},
        {"eval.tenants", static_cast<double>(last.tenants), "count"},
        {"eval.snapshot_us",
         median_of(traced,
                   [&](const TraceTimes& t) { return 1e6 * ratio(t.snapshot_s, t.snapshot_calls); }),
         "us"},
        {"scheduler.admitted_from_queue", static_cast<double>(ms.admitted_from_queue), "count"},
        {"scheduler.upgrades", static_cast<double>(ms.upgrades), "count"},
        {"telemetry.callback_s",
         median_of(traced, [](const TraceTimes& t) { return t.telemetry_s; }), "s"},
        {"telemetry.callbacks", static_cast<double>(last.telemetry_callbacks), "count"},
        {"telemetry.write_s",
         median_of(traced, [](const TraceTimes& t) { return t.write_s; }), "s"},
        {"trace.overhead_s",
         median_of(traced, [](const TraceTimes& t) { return t.wall_s; }) -
             median_of(plain, [](const RunTimes& r) { return r.wall_s; }),
         "s"},
    };
    std::printf("pairs %zu\n", plain.size());
  }
  PrintResult(metrics, attempted);
  return g_violations == 0 ? 0 : 1;
}
