// Occupancy-aware, event-driven multi-tenant machine scheduler.
//
// The paper's placement controller (§1) answers one question — where should
// this container run on an empty machine. The scheduler generalizes it into
// the stateful subsystem a datacenter node agent needs:
//
//   * it owns a hardware-thread OccupancyMap (src/core/occupancy.h) and
//     admits a stream of container arrival/departure events;
//   * placements are realized against the *remaining free* threads, so
//     concurrent containers always hold disjoint hardware-thread sets;
//   * probe measurements and model predictions are cached per container in
//     the ModelRegistry (src/model/registry.h) and reused when the container
//     is re-placed — probes cost container runtime and are paid once;
//   * departures trigger a re-placement pass: queued containers are admitted
//     and degraded incumbents (running below their goal because the machine
//     was crowded when they arrived) are migrated up using the existing
//     migrators and the cached predictions.
//
// Decision logic is delegated to a pluggable SchedulingPolicy
// (src/scheduler/policy.h), selected by name through the PolicyRegistry —
// the scheduler itself is policy-agnostic.
#ifndef NUMAPLACE_SRC_SCHEDULER_SCHEDULER_H_
#define NUMAPLACE_SRC_SCHEDULER_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/important.h"
#include "src/core/occupancy.h"
#include "src/migration/migration.h"
#include "src/model/registry.h"
#include "src/scheduler/events.h"
#include "src/scheduler/policy.h"
#include "src/sim/perf_model.h"
#include "src/workloads/profile.h"
#include "src/workloads/trace.h"

namespace numaplace {

// A container as submitted to the scheduler.
struct ContainerRequest {
  int id = 0;  // unique among live containers, >= 0
  WorkloadProfile workload;
  int vcpus = 0;
  // Operator goal relative to the baseline placement (1.0 = match it).
  double goal_fraction = 1.0;
  // Latency-sensitive containers use the throttled migrator (§7).
  bool latency_sensitive = false;
};

// The request a ContainerArrival event carries, as both schedulers submit it.
ContainerRequest RequestFromArrival(const ContainerArrival& arrival);

enum class ContainerState { kPending, kRunning, kDeparted };

// Scheduler-side record of a container.
struct ManagedContainer {
  ContainerRequest request;
  ContainerState state = ContainerState::kPending;
  int placement_id = 0;
  Placement placement;
  double predicted_abs_throughput = 0.0;
  double goal_abs_throughput = 0.0;
  bool meets_goal = false;
  double submit_seconds = 0.0;
  double placed_seconds = 0.0;
  int replacements = 0;  // migrations after the initial placement
  // NUMA nodes currently holding the container's memory: set by the probe
  // runs and every committed placement, empty until either. Placing onto a
  // different node set charges a memory migration.
  NodeSet memory_nodes;
};

struct SchedulerConfig {
  // Name of the SchedulingPolicy to instantiate through the PolicyRegistry
  // ("model", "first-fit", "best-fit", "spread", or any registered plugin).
  std::string policy = "model";
  double probe_seconds = 2.0;
  // The placement whose solo throughput defines every goal (the paper uses
  // #1 on the AMD system, #2 on the Intel system).
  int baseline_id = 1;
  // Passed to GenerateImportantPlacements for sizes not provided up front.
  bool use_interconnect_concern = true;
  // A degraded container not meeting its goal is upgraded to another
  // not-meeting placement only for at least this relative prediction gain
  // (bounds migration churn).
  double upgrade_margin = 0.05;
  // When no placement meets the goal, candidates predicted within this
  // relative slack of the best prediction count as equally good and the one
  // with the fewest nodes wins — a container that can never reach its goal
  // should not grab the whole machine for the last percent.
  double fallback_slack = 0.03;
};

struct SchedulerStats {
  int submitted = 0;
  int admitted_immediately = 0;
  int queued = 0;
  int admitted_from_queue = 0;
  int departed = 0;
  int upgrades = 0;           // degraded containers migrated to a better class
  int probe_runs = 0;         // individual probe executions (2 per fresh pair)
  int cached_probe_reuses = 0;  // decisions served from the prediction cache
  // Integral of busy hardware threads over trace time (thread-seconds).
  double busy_thread_seconds = 0.0;
  double last_event_seconds = 0.0;
};

class MachineScheduler {
 public:
  // `topo`, `solo_sim` and `registry` must outlive the scheduler. The
  // registry must hold a model for (topo.name(), vcpus) of every submitted
  // container size when the active policy uses the model. The policy is
  // built from config.policy via the PolicyRegistry.
  MachineScheduler(const Topology& topo, const PerformanceModel& solo_sim,
                   ModelRegistry* registry, SchedulerConfig config = {});

  // As above with an explicitly constructed (e.g. unregistered plugin)
  // policy; config.policy is ignored.
  MachineScheduler(const Topology& topo, const PerformanceModel& solo_sim,
                   ModelRegistry* registry, SchedulerConfig config,
                   std::unique_ptr<SchedulingPolicy> policy);

  // Injects a precomputed important-placement set for its vCPU count
  // (otherwise sets are generated lazily on first use of a size), dropping
  // that size's realizability memo. PlacementsFor is const because previews
  // call it: the lazy fill goes into a mutable per-machine cache.
  void ProvidePlacements(const ImportantPlacementSet& ips);
  const ImportantPlacementSet& PlacementsFor(int vcpus) const;

  // RealizeAnywhereFree(ip, topology(), vcpus, occupancy()) for the
  // placement `placement_id` of PlacementsFor(vcpus), served from a
  // per-placement memo that is refilled only when occupancy().Generation()
  // moved since the slot was filled. The result is a pure function of the
  // placement, the topology, vcpus and the owner vector, and every owner
  // change moves the generation, so a memo hit returns exactly what a fresh
  // search would. Admission previews and commits read it; the reference
  // stays valid until the next call for the same size or ProvidePlacements.
  const std::optional<Placement>& RealizedOnFreeThreads(int vcpus, int placement_id) const;

  // Admits a container at trace time `now`, placing it on free hardware
  // threads when possible and queueing it otherwise.
  ScheduleOutcome Submit(const ContainerRequest& request, double now = 0.0);

  // Removes a container (running or queued), freeing its threads, then runs
  // the re-placement pass (queue admission + degraded upgrades); returns one
  // outcome per container the pass placed or migrated. `forget_probes` drops
  // the container's cached prediction (the default — a departed container
  // never comes back); the fleet layer passes false when *moving* a
  // container to another machine of the same topology so the probes it
  // already paid for transfer with it. `replace`
  // false skips the re-placement pass — the fleet passes it when emptying a
  // failed or draining machine, whose queue must not be re-admitted onto
  // the machine being evacuated.
  std::vector<ScheduleOutcome> Depart(int container_id, double now = 0.0,
                                      bool forget_probes = true, bool replace = true);

  // What probing the container cost (nothing on a cache hit or under a
  // model-free policy).
  struct ProbeCharge {
    bool ran = false;             // probes actually executed
    double seconds = 0.0;         // simulated probe + inter-probe migration time
    NodeSet memory_nodes;         // where probe B left the container's memory
    std::vector<TimelineEvent> timeline;
  };

  // Runs the model's two probe placements for the container and caches the
  // prediction in the registry, unless the active policy is model-free or a
  // prediction is already cached (then a no-op). The fleet dispatcher calls
  // this once per topology group so machines sharing a registry never
  // re-probe — probes are paid once fleet-wide.
  ProbeCharge EnsureProbes(const ContainerRequest& request);

  // What TryPlace would commit for the request right now, without mutating
  // any observable state (const: only the lazy placement-set cache and the
  // memos may fill in). Requires a cached prediction (see EnsureProbes) when
  // the active policy uses the model. Model-free policies report zero
  // predicted/goal throughput.
  struct AdmissionPreview {
    bool realizable = false;      // some ranked candidate fits the free threads
    int placement_id = 0;
    double predicted_abs = 0.0;
    double goal_abs = 0.0;        // decision goal derived from the probes
    bool meets_goal = false;

    bool operator==(const AdmissionPreview&) const = default;
  };
  AdmissionPreview PreviewAdmission(const ContainerRequest& request) const;

  // The container's ranked view as this machine's model-policy decisions
  // (admission, preview, upgrade) read it: the view memoized with its cached
  // prediction in the shared registry, rebuilt there first when it is
  // missing or was built from inputs other than this machine's (baseline
  // id, fallback slack, goal fraction, model, node counts). Requires a
  // model policy and a cached prediction; the reference stays valid until
  // the registry next forgets or re-ranks the container.
  const RankedView& RankedViewFor(const ContainerRequest& request) const;

  // The same view computed afresh from the cached prediction — absolute
  // predictions and decision goal, then the policy's RankForAdmission —
  // without touching the memo: the reference RankedViewFor must equal.
  RankedView BuildRankedView(const ContainerRequest& request) const;

  // Processes one FleetEvent: arrivals submit, departures free capacity and
  // run the re-placement pass, and every outcome is reported through the
  // observer (machine_id 0 — a standalone scheduler has no fleet
  // namespace). Machine events CHECK-fail: they address a fleet; route them
  // through FleetScheduler::Step.
  void Step(const FleetEvent& event, EventObserver* observer = nullptr);

  // Thin loop over Step.
  void Replay(const EventStream& trace, EventObserver* observer = nullptr);

  const Topology& topology() const { return *topo_; }
  const OccupancyMap& occupancy() const { return occupancy_; }
  const SchedulerStats& stats() const { return stats_; }
  const SchedulerConfig& config() const { return config_; }
  const SchedulingPolicy& policy() const { return *policy_; }

  // nullptr when the id was never submitted (departed containers remain).
  const ManagedContainer* Find(int container_id) const;
  // Running containers, ascending id (a live set: departed containers are
  // never walked).
  std::vector<int> RunningIds() const;
  // Queued containers in FIFO order; valid until the scheduler next changes.
  const std::vector<int>& PendingIds() const { return pending_; }

  // Bumped whenever the running tenant set or a running tenant's placement
  // changes: a committed admission, the departure of a running container,
  // an upgrade re-place. SnapshotPerformance is a pure function of that
  // state, so an unchanged generation means an unchanged snapshot.
  uint64_t TenantGeneration() const { return tenant_generation_; }

  // Time-averaged machine utilization over the replayed span, in [0, 1].
  double TimeAveragedUtilization() const;

  // Advances the stats clock without processing an event, so machines that
  // went a while without traffic still integrate busy-thread time up to
  // `now`. The fleet layer syncs every machine on every fleet event to keep
  // per-machine utilization averages comparable.
  void SyncClock(double now) { AdvanceClock(now); }

  // Measured multi-tenant throughput of every running container under the
  // given co-location model, with its goal for slowdown reporting.
  struct TenantSnapshot {
    int container_id = 0;
    double measured_abs_throughput = 0.0;
    double goal_abs_throughput = 0.0;

    bool operator==(const TenantSnapshot&) const = default;
  };
  std::vector<TenantSnapshot> SnapshotPerformance(const MultiTenantModel& multi) const;

 private:
  // One container size: its important placements and, aligned with
  // ips.placements, each placement's memoized RealizeAnywhereFree on
  // occupancy_.
  struct SizeState {
    struct Slot {
      bool filled = false;
      uint64_t generation = 0;  // occupancy_.Generation() when filled
      std::optional<Placement> placement;
    };
    explicit SizeState(ImportantPlacementSet set)
        : ips(std::move(set)), realized(ips.placements.size()) {}
    ImportantPlacementSet ips;
    std::vector<Slot> realized;
    // The registry's model for this size, resolved on first use (a
    // registered model is never replaced, so the pointer stays good), and
    // per model output its placement's position in ips and node count.
    const TrainedPerfModel* model = nullptr;
    std::vector<size_t> model_index;
    std::vector<int> node_counts;
  };
  // The size's state, generating its placement set on first use.
  SizeState& StateFor(int vcpus) const;
  // The memo slot of size.ips.placements[index], refilled when stale.
  const std::optional<Placement>& Realized(SizeState& size, size_t index) const;
  // The size's model, resolving it (and its placement tables) on first use.
  const TrainedPerfModel& ModelOf(SizeState& size) const;

  // Advances the stats clock to `now`, integrating busy-thread time.
  void AdvanceClock(double now);

  // Deterministic solo baseline throughput anchoring the container's goal.
  double BaselineAbsThroughput(const ContainerRequest& request) const;

  // Probes (or reuses cached probes), predicts, picks a placement realizable
  // on free threads, and commits it. Returns admitted=false when no
  // candidate fits the current occupancy. Callers pass pending containers
  // only; upgrades of running containers go through ReplacementPass.
  ScheduleOutcome TryPlace(ManagedContainer& container, double now);

  // The container's ranked view against this machine's inputs, computed
  // afresh from the size's model and the container's cached prediction:
  // absolute per-placement predictions and the decision goal, then the
  // policy's admission order.
  RankedView RankAfresh(const ContainerRequest& request, SizeState& size,
                        const CachedPrediction& cached) const;
  // Sets view.order to the policy's admission ranking of the view's
  // candidates on the live occupancy (CHECKs every index is in range).
  void RankInto(const ContainerRequest& request, const SizeState& size,
                RankedView& view) const;
  // RankedViewFor on a resolved size.
  const RankedView& RankedViewOf(const ContainerRequest& request, SizeState& size) const;

  // The ranked candidates of one admission decision: under a model policy
  // the container's memoized view (RankedViewOf); otherwise a per-call
  // ranking of every placement of the size, in set order, into `scratch` —
  // a model-free ranking may read occupancy, so it is never shared.
  const RankedView& AdmissionCandidates(const ContainerRequest& request, SizeState& size,
                                        RankedView& scratch) const;
  // Position in size.ips of the placement of candidate `candidate`.
  size_t SetIndex(const SizeState& size, size_t candidate) const;
  // The first candidate of view.order realizable on the free threads, or
  // nullopt. Answers nullopt without reading the memo when fewer than vcpus
  // threads are free: every important placement realizes on exactly vcpus
  // hardware threads.
  std::optional<size_t> FirstRealizable(const ContainerRequest& request,
                                        const RankedView& view, SizeState& size) const;

  // Assembles the context handed to the policy for one decision against the
  // given occupancy view (the live map for admissions, a scratch map with
  // the incumbent freed for upgrades). The context borrows every argument;
  // all must outlive the policy call.
  PolicyContext MakePolicyContext(const ImportantPlacementSet& ips,
                                  const OccupancyMap& occupancy, int vcpus,
                                  const std::vector<int>& placement_ids,
                                  const std::vector<double>& predicted_abs,
                                  double goal_abs) const;

  // Queue admission + degraded-container upgrades after capacity was freed.
  std::vector<ScheduleOutcome> ReplacementPass(double now);

  const Migrator& MigratorFor(const ContainerRequest& request) const;

  const Topology* topo_;
  const PerformanceModel* solo_sim_;
  ModelRegistry* registry_;
  SchedulerConfig config_;
  std::unique_ptr<SchedulingPolicy> policy_;
  OccupancyMap occupancy_;
  // By vCPU count. Lazily filled by PlacementsFor and the memo (mutable so
  // const preview paths can fill them). Per-machine: only this scheduler's
  // decisions touch it.
  mutable std::map<int, SizeState> sizes_;
  std::map<int, ManagedContainer> containers_;
  std::set<int> running_;     // ids of kRunning containers
  std::vector<int> pending_;  // FIFO by submit time
  uint64_t tenant_generation_ = 0;
  SchedulerStats stats_;
  FastMigrator fast_migrator_;
  ThrottledMigrator throttled_migrator_;
};

// Per-machine memo of SnapshotPerformance for one replay, shared by both
// ReplayWithEvaluation loops: slot i re-evaluates only when its machine's
// TenantGeneration() moved since the slot was filled, and otherwise returns
// the stored snapshot, which a fresh call would reproduce exactly. The
// caller owns it for the length of one replay, so no entry outlives the
// scheduler and model it was taken from. A slot must always be asked about
// the same scheduler and model; the returned reference is valid until the
// slot's next Get.
class TenantSnapshotCache {
 public:
  explicit TenantSnapshotCache(size_t slots) : slots_(slots) {}

  const std::vector<MachineScheduler::TenantSnapshot>& Get(
      size_t slot, const MachineScheduler& scheduler, const MultiTenantModel& multi);

 private:
  struct Slot {
    bool filled = false;
    uint64_t generation = 0;
    std::vector<MachineScheduler::TenantSnapshot> snapshot;
  };
  std::vector<Slot> slots_;
};

// Replays a trace while evaluating the co-running tenants with the
// multi-tenant model between events, producing the aggregate numbers the
// tenancy benchmark and the CLI `schedule` mode report. Per-decision
// outcomes flow through the optional observer, not the report.
struct TenancyReport {
  // Time-weighted mean over running containers of
  // min(1, measured / goal): 1.0 = every container met its goal whenever it
  // ran.
  double goal_attainment = 0.0;
  // Time-weighted mean of min(1, measured / goal) == 1 share: fraction of
  // container-seconds spent at or above goal.
  double container_seconds_at_goal = 0.0;
  double mean_utilization = 0.0;  // time-averaged busy-thread fraction
  int decisions = 0;              // placements + upgrades performed
  double wall_seconds = 0.0;      // host time spent deciding (for decisions/s)
};

TenancyReport ReplayWithEvaluation(MachineScheduler& scheduler,
                                   const EventStream& trace,
                                   const MultiTenantModel& multi,
                                   EventObserver* observer = nullptr);

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_SCHEDULER_SCHEDULER_H_
