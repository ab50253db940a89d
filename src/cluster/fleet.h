// Fleet layer: a cluster scheduler over N per-machine schedulers.
//
// The FleetScheduler owns one MachineScheduler per machine of a (possibly
// heterogeneous) fleet and consumes a unified FleetEvent stream, one
// Step() at a time:
//
//   * ContainerArrival is routed to an available machine by a pluggable
//     DispatchPolicy (src/cluster/dispatch.h) — least-loaded, round-robin,
//     best-predicted (asks every machine's own SchedulingPolicy for its top
//     candidate and picks the highest predicted margin), or sharded (cuts
//     that preview walk to a sampled subset of dispatch cells on 100+
//     machine fleets). When no available machine can hold the container at
//     all, it waits fleet-wide (UnplacedIds) until capacity returns;
//   * machines of the same topology share one ModelRegistry, so a
//     container's two probe runs are paid once per topology group fleet-wide
//     — dispatch previews, the dispatched machine's admission and any later
//     same-group move all reuse the cached prediction;
//   * ContainerDeparture first runs the machine's own re-placement pass,
//     then a cross-machine RebalancePass: queued containers and degraded
//     incumbents are considered for a move to another machine, the move is
//     charged with the §7 migration cost model (src/migration) plus a
//     network copy of 0.5 s per GB, and only moves whose predicted gain
//     over a 600-s horizon beats that modeled cost are proposed.
//     Target searches (rebalance, drain, failover — all through one shared
//     gain-over-cost helper) consult the per-cell capacity index
//     (src/cluster/capacity_index.h) first and preview only machines inside
//     the most promising cells, so fleet operations stay
//     O(machines/cells * probes) previews per decision like dispatch; the
//     whole pass is skipped when the index's capacity-changed flag is clear
//     (a no-op pass performs zero previews);
//   * MachineFail / MachineDrain take the machine out of dispatch and
//     evacuate it through the same gain/cost machinery. A failed machine's
//     containers lose their state: nothing to migrate or copy, so they are
//     re-dispatched (instant restart in the model) or requeued. A draining
//     machine's containers are alive: each pays the §7 migration estimate
//     plus the network copy to move. Either way, evacuees no up machine can
//     admit go back through dispatch and wait. MachineRejoin restores the
//     machine and immediately runs a RebalancePass so waiting work lands on
//     the returned capacity.
//
// Consumers watch admissions, queueing, moves, evacuations and availability
// flips through the EventObserver (src/scheduler/events.h); Replay is a
// thin loop over Step.
#ifndef NUMAPLACE_SRC_CLUSTER_FLEET_H_
#define NUMAPLACE_SRC_CLUSTER_FLEET_H_

#include <array>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/admission.h"
#include "src/cluster/capacity_index.h"
#include "src/cluster/dispatch.h"
#include "src/cluster/domains.h"
#include "src/migration/migration.h"
#include "src/model/registry.h"
#include "src/scheduler/events.h"
#include "src/scheduler/scheduler.h"
#include "src/sim/perf_model.h"
#include "src/topology/topology.h"
#include "src/workloads/trace.h"

namespace numaplace {

/// One machine of the fleet as configured by the caller. Machines with
/// equal topology names form a topology group sharing a ModelRegistry; the
/// caller registers one trained model per (group, vCPU count) via
/// GroupRegistry().
struct MachineSpec {
  explicit MachineSpec(Topology machine_topo, SchedulerConfig scheduler_config = {})
      : topo(std::move(machine_topo)), scheduler(std::move(scheduler_config)) {}

  /// The machine's hardware topology (also names its topology group).
  Topology topo;
  /// Per-machine scheduler configuration: policy name, baseline placement
  /// id (the paper uses #1 on AMD, #2 on Intel), interconnect concern,
  /// margins.
  SchedulerConfig scheduler;
};

/// Fleet-wide configuration: dispatch policy, rebalancing gates and the
/// cost model of cross-machine moves.
struct FleetConfig {
  /// Name of the DispatchPolicy to instantiate through the DispatchRegistry.
  std::string dispatch = "least-loaded";
  /// Run the cross-machine RebalancePass after every departure.
  bool rebalance_on_departure = true;
  /// A degraded incumbent moves only for at least this relative prediction
  /// gain (bounds cross-machine churn; queued containers are exempt —
  /// running anywhere beats waiting).
  double rebalance_min_gain = 0.1;
  /// Most promising capacity-index cells whose machines a rebalance or
  /// evacuation target search previews (summary-before-scan). 0 is the
  /// full scan: every up machine with enough free threads, the reference
  /// the index-backed search is tested against. A count of at least the
  /// index's cell count previews exactly the machines the full scan does.
  /// The index mirrors the sharded dispatcher's cells when one is active,
  /// else builds the same modulo layout with round(sqrt(machines)) cells.
  int fleet_probes = 2;
  /// Failure-domain layout (src/cluster/domains.h): racks of the uniform
  /// machine -> rack -> zone topology, 0 for the round(sqrt(machines))
  /// default. The topology always exists — domain-scoped events need it —
  /// but costs nothing unless the spread knobs below are set. Explicit
  /// layouts go through ProvideDomains.
  int domain_racks = 0;
  /// Zones of the uniform layout, 0 for the round(sqrt(racks)) default.
  int domain_zones = 0;
  /// Spread dimension: rack co-location penalty per replica of the
  /// container's service group already in a candidate's rack. Dispatch adds
  /// spread_weight * count to a candidate's rank position; fleet-op target
  /// searches divide a target's gain-over-cost surplus by
  /// (1 + spread_weight * count). 0 (with spread_max_per_rack 0) disables
  /// the dimension entirely — decisions are byte-identical to a fleet
  /// without it.
  double spread_weight = 0.0;
  /// Hard cap: candidates whose rack already holds this many replicas of
  /// the group are skipped by fleet-op target searches and heavily
  /// penalized (never preferred over an uncapped candidate) at dispatch —
  /// soft there, so a container is still placed when every rack is capped.
  /// 0 means no cap.
  int spread_max_per_rack = 0;
  /// Name of the AdmissionPolicy to instantiate through the
  /// AdmissionRegistry; empty disables the admission layer entirely —
  /// every arrival proceeds straight to dispatch and replays are
  /// byte-identical to a fleet built before the layer existed.
  std::string admission;
  /// Service-group name -> tier name ("premium" / "standard" /
  /// "best-effort"). Overrides the `<tier>:<base>` naming convention for
  /// the listed groups (keys are full group names, prefix included).
  /// Unknown tier names CHECK-fail at construction.
  std::map<std::string, std::string> tier_overrides;
  /// Fleet-wide waiting count at which deferring admission policies switch
  /// to rejecting (the tiered policy's standard-tier bound).
  int admission_defer_limit = 8;
};

/// Dispatch, queueing, rebalancing and probe counters accumulated over the
/// fleet's lifetime.
struct FleetStats {
  int submitted = 0;
  int dispatched_immediately = 0;  // admitted by the dispatched machine at once
  int queued = 0;                  // left waiting at submission (machine or fleet)
  int queue_admissions = 0;        // previously queued containers that got placed
  double queue_wait_seconds = 0.0; // total wait of those admissions
  int rebalance_moves = 0;         // departure-triggered cross-machine moves
  int evacuations = 0;             // machine fail/drain events processed
  int evacuation_moves = 0;        // evacuees rehomed straight onto another machine
  int evacuation_requeues = 0;     // evacuees sent back through dispatch to wait
  // evacuation_moves by reason: drain_moves paid the §7 migration + network
  // copy, failover_moves restarted from lost state. Together with
  // rebalance_moves these partition the rebalance_log by
  // RebalanceMove::Reason.
  int drain_moves = 0;
  int failover_moves = 0;
  double cross_machine_move_seconds = 0.0;  // migration + network, all moves
  double network_copy_seconds = 0.0;
  int fleet_probe_runs = 0;        // dispatch/rebalance probes (per group)
  double fleet_probe_seconds = 0.0;
  // Admission previews built for dispatch decisions; the sharded
  // dispatcher's whole point is keeping this sublinear in fleet size.
  int dispatch_previews = 0;
  // Dispatch decisions that built candidates (arrivals, evacuation
  // requeues, unplaced retries) — the denominator of the dispatch
  // preview-per-decision bound.
  int dispatch_decisions = 0;
  // Admission previews built by RebalancePass target searches, and the
  // searches themselves; previews / decisions stays O(machines/cells * d)
  // under sharded fleet ops.
  int rebalance_previews = 0;
  int rebalance_decisions = 0;
  // The same pair for evacuation (fail/drain) target searches.
  int evac_previews = 0;
  int evac_decisions = 0;
  // Host wall time inside FindBestTarget — the cost the capacity index
  // makes sublinear. Rebalance/evac search throughput is
  // (rebalance_decisions + evac_decisions) / fleet_op_search_seconds.
  double fleet_op_search_seconds = 0.0;
  // RebalancePass invocations that ran vs. were skipped because the
  // capacity index's dirty flag proved them no-ops (zero previews).
  int rebalance_passes = 0;
  int rebalance_passes_skipped = 0;
  // Admission-layer tallies, indexed by SloTier (all zero with admission
  // off). tier_arrivals partitions into admitted + deferred + rejected;
  // tier_preempted counts the best-effort victims premium arrivals shed
  // (each victim is also counted in tier_rejected — preemption is how the
  // rejection happened, not a separate fate).
  std::array<int, kNumSloTiers> tier_arrivals{};
  std::array<int, kNumSloTiers> tier_admitted{};
  std::array<int, kNumSloTiers> tier_deferred{};
  std::array<int, kNumSloTiers> tier_rejected{};
  std::array<int, kNumSloTiers> tier_preempted{};
};

/// Fleet-wide evaluation of one replayed trace (the cluster analog of
/// TenancyReport). Queued and fleet-wide-waiting containers count as
/// attaining nothing — a fleet that parks work while other machines idle
/// pays for it here. Per-decision outcomes flow through the observer.
struct FleetReport {
  double goal_attainment = 0.0;
  double container_seconds_at_goal = 0.0;
  double mean_utilization = 0.0;       // thread-weighted across machines
  double utilization_min = 0.0;        // spread of per-machine time averages
  double utilization_max = 0.0;
  double mean_queue_wait_seconds = 0.0;
  int decisions = 0;
  double wall_seconds = 0.0;
  std::vector<double> machine_utilizations;
  // Per-tier goal attainment over the tier's live container-seconds
  // (1.0 when the tier never had a live container), indexed by SloTier.
  // Aggregate fields above are computed exactly as before the admission
  // layer — these are parallel accumulators, not a re-derivation.
  std::array<double, kNumSloTiers> tier_goal_attainment{};
  std::array<double, kNumSloTiers> tier_container_seconds{};
};

/// Cluster scheduler owning one MachineScheduler per machine; see the file
/// comment for the event-processing semantics.
class FleetScheduler {
 public:
  /// The dispatch policy is built from config.dispatch via the
  /// DispatchRegistry; the second form injects an explicitly constructed
  /// (e.g. unregistered plugin, or a ShardedDispatchPolicy with custom
  /// cells/probes) dispatcher and ignores config.dispatch.
  explicit FleetScheduler(std::vector<MachineSpec> specs, FleetConfig config = {});
  FleetScheduler(std::vector<MachineSpec> specs, FleetConfig config,
                 std::unique_ptr<DispatchPolicy> dispatch);

  /// Number of machines the fleet was built with (fixed for its lifetime).
  int NumMachines() const { return static_cast<int>(machines_.size()); }
  /// The machine's scheduler (CHECKs the id).
  MachineScheduler& machine(int machine_id);
  const MachineScheduler& machine(int machine_id) const;
  /// The machine's hardware topology.
  const Topology& topology(int machine_id) const;
  /// The machine's multi-tenant evaluation model.
  const MultiTenantModel& multi_model(int machine_id) const;
  /// Current availability (kUp machines receive dispatches).
  MachineAvailability availability(int machine_id) const;

  /// Topology-group names in machine order (deduplicated).
  std::vector<std::string> GroupNames() const;
  /// The shared registry of one group — register trained models here before
  /// submitting containers to machines whose policy uses the model.
  ModelRegistry& GroupRegistry(const std::string& group);

  /// Injects a precomputed important-placement set into every machine of
  /// the group (otherwise each machine generates sets lazily).
  void ProvidePlacements(const std::string& group, const ImportantPlacementSet& ips);

  /// Replaces the fleet's failure-domain topology with an explicit layout
  /// (the constructor builds the uniform one from config.domain_racks /
  /// domain_zones). CHECKs the machine count matches and that no container
  /// is live yet — domain membership, like cell membership, is fixed before
  /// traffic.
  void ProvideDomains(FailureDomainTopology domains);

  /// Processes one FleetEvent — the core every other entry point loops over.
  void Step(const FleetEvent& event, EventObserver* observer = nullptr);

  /// Thin loop over Step.
  void Replay(const EventStream& trace, EventObserver* observer = nullptr);

  /// Dispatches the container to an available machine and submits it there;
  /// the container queues on that machine when nothing fits anywhere, and
  /// waits fleet-wide (machine_id kNoMachine) when every machine that could
  /// hold it is failed or draining.
  FleetOutcome Submit(const ContainerRequest& request, double now = 0.0,
                      EventObserver* observer = nullptr);

  /// Removes the container (running, queued or waiting fleet-wide), then
  /// runs the departed machine's re-placement pass and the fleet
  /// RebalancePass; every placement and move is reported through the
  /// observer.
  void Depart(int container_id, double now = 0.0, EventObserver* observer = nullptr);

  /// Machine lifecycle (the Step handlers for MachineFail / MachineDrain /
  /// MachineRejoin, also callable directly). Fail and Drain evacuate the
  /// machine; Rejoin restores it and rebalances waiting work onto it.
  void Fail(int machine_id, double now = 0.0, EventObserver* observer = nullptr);
  void Drain(int machine_id, double now = 0.0, EventObserver* observer = nullptr);
  void Rejoin(int machine_id, double now = 0.0, EventObserver* observer = nullptr);

  /// Replays a merged, time-ordered fleet trace, evaluating every machine's
  /// co-running tenants with its multi-tenant model between events. When a
  /// `sampler` is given, it is called at every multiple of its
  /// IntervalSeconds() of stream time with the run-so-far attainment
  /// integrals linearly interpolated to that instant (the tenant set is
  /// constant between events, so the interpolation is exact).
  FleetReport ReplayWithEvaluation(const EventStream& trace,
                                   EventObserver* observer = nullptr,
                                   ReplaySampler* sampler = nullptr);

  /// Machine currently holding the container (running or queued),
  /// kNoMachine when the id waits fleet-wide or is not live at all.
  int MachineOf(int container_id) const;

  /// Containers waiting fleet-wide because no available machine fits them,
  /// oldest submission first.
  std::vector<int> UnplacedIds() const;

  /// Lifetime counters (see FleetStats).
  const FleetStats& stats() const { return stats_; }
  /// Every committed cross-machine move, in commit order.
  const std::vector<RebalanceMove>& rebalance_log() const { return rebalance_log_; }
  /// One report per processed fail/drain event.
  const std::vector<EvacuationReport>& evacuation_log() const { return evacuations_; }
  /// The configuration the fleet was built with.
  const FleetConfig& config() const { return config_; }
  /// The active dispatch policy (read-only; the fleet owns it).
  const DispatchPolicy& dispatch() const { return *dispatch_; }
  /// The per-cell capacity index (read-only; kept current by the fleet at
  /// every occupancy/availability-changing point).
  const CapacityIndex& capacity_index() const { return capacity_index_; }
  /// The failure-domain topology (uniform by default; see ProvideDomains).
  const FailureDomainTopology& domains() const { return *domains_; }
  /// Live per-service-group domain occupancy, updated at every point a
  /// container gains, loses or changes its machine.
  const DomainOccupancy& domain_occupancy() const { return domain_occupancy_; }
  /// Whether either spread knob is set — when false, dispatch and fleet-op
  /// decisions are byte-identical to a fleet without the spread dimension.
  bool SpreadActive() const {
    return config_.spread_weight > 0.0 || config_.spread_max_per_rack > 0;
  }
  /// Whether an admission policy is configured — when false, every arrival
  /// proceeds straight to dispatch and replays are byte-identical to a
  /// fleet without the admission layer.
  bool AdmissionActive() const { return admission_ != nullptr; }
  /// The active admission policy (CHECKs AdmissionActive(); read-only, the
  /// fleet owns it).
  const AdmissionPolicy& admission() const;
  /// SLO tier of a workload or service-group name: the FleetConfig
  /// tier_overrides entry for its service group when present, else the
  /// `<tier>:<base>` naming convention, else standard.
  SloTier TierOf(const std::string& workload_name) const;
  /// The tier the per-tier accumulators of ReplayWithEvaluation charge a
  /// container with: its TierOf from admission until it departs or is
  /// shed, standard otherwise (always standard with admission off).
  SloTier ContainerTier(int container_id) const {
    const size_t id = static_cast<size_t>(container_id);
    return id < tiers_.size() ? tiers_[id] : SloTier::kStandard;
  }
  /// Container ids the admission layer rejected (arrival sheds and
  /// preemption victims); their later trace departure events are no-ops.
  const std::set<int>& RejectedIds() const { return rejected_; }
  /// Domains-to-loss (distinct occupied domains of `scope`) per service
  /// group with at least one placed replica, name-ascending — the fleet's
  /// availability scoreboard: a group at k survives any k-1 simultaneous
  /// domain failures.
  std::map<std::string, int> DomainsToLoss(DomainScope scope) const;

  /// Per-machine time-averaged utilizations, machine order.
  std::vector<double> TimeAveragedUtilizations() const;

 private:
  struct Machine {
    std::unique_ptr<Topology> topo;  // stable address: schedulers keep pointers
    std::unique_ptr<PerformanceModel> solo;
    std::unique_ptr<MultiTenantModel> multi;
    std::unique_ptr<MachineScheduler> scheduler;
    size_t group = 0;  // index into groups_
  };
  struct Group {
    std::string name;  // the machines' topology name
    std::unique_ptr<ModelRegistry> registry;
    std::vector<int> machine_ids;  // first up machine runs the group's probes
  };

  // The group of that topology name (CHECKs it exists).
  Group& GroupNamed(const std::string& name);

  // Advances every machine's stats clock to `now` so per-machine utilization
  // averages integrate over the same span. Skipped when the fleet already
  // synced to exactly `now` (AdvanceClock with dt == 0 is a bitwise no-op,
  // so the skip changes no result and saves the machine walk).
  void SyncClocks(double now);

  // Probes the container once for groups_[group] when its registry lacks a
  // prediction and any up machine needs the model, charging the fleet stats.
  void EnsureGroupProbes(size_t group, const ContainerRequest& request);

  // Sets or resets (to standard) the container's entry in tiers_.
  void SetTier(int container_id, SloTier tier);

  // Candidate views (available machines the container fits on — possibly
  // none) for one dispatch decision; probes the groups of the candidate
  // machines first when the dispatcher needs previews. `only` restricts the
  // build to those machine ids (the dispatcher's preselection — cell-aware
  // dispatchers keep this far smaller than the fleet); nullptr means every
  // machine. A full build CHECK-fails only when the container is larger
  // than every machine of the fleet, up or not — a configuration error.
  std::vector<MachineCandidate> BuildCandidates(const ContainerRequest& request,
                                                bool with_previews,
                                                const std::vector<int>* only = nullptr);

  // Runs the dispatch policy over the candidates (non-empty) and returns
  // the chosen machine id.
  int ChooseMachine(const ContainerRequest& request,
                    std::vector<MachineCandidate>& candidates);

  // Dispatch core shared by Submit, evacuation requeues and the unplaced
  // drain: asks the policy for a preselection, routes through the dispatch
  // policy, queueing on the chosen machine or fleet-wide when no available
  // machine fits. A container that queues and is not already waiting
  // starts its wait at `now`; one already waiting keeps its start.
  FleetOutcome Dispatch(const ContainerRequest& request, double now,
                        EventObserver* observer);

  // Queue-wait bookkeeping for an admission outcome observed at `now`.
  void RecordAdmission(const ScheduleOutcome& outcome, double now);

  // The admission layer's saturation summary for one arrival, assembled
  // from the capacity index's per-cell summaries and the wait set.
  AdmissionContext BuildAdmissionContext(const ContainerRequest& request,
                                         SloTier tier) const;

  // Sheds the oldest queued best-effort container (waiting_ order — keyed
  // by id, so the choice is deterministic) to make room for a premium
  // arrival: removed through the same machine-level Depart primitive the
  // evacuation path uses (a queued container has no state, so the shed is
  // free), counted as a best-effort rejection, and its future trace
  // departure becomes a no-op. No-op when no queued best-effort container
  // exists.
  void PreemptQueuedBestEffort(double now, EventObserver* observer);

  // Re-dispatches fleet-wide waiting containers whenever capacity may have
  // returned (start of every RebalancePass that the capacity index's dirty
  // flag lets run).
  void DrainUnplaced(double now, EventObserver* observer);

  // Cross-machine moves of queued and degraded containers. Skipped
  // entirely — zero previews — when the capacity index's dirty flag is
  // clear: nothing capacity-relevant changed since the last pass, so the
  // pass would reproduce its decisions.
  void RebalancePass(double now, EventObserver* observer);

  // One cross-machine target search, shared by rebalance, drain and
  // failover: scores candidate targets by gain-over-cost surplus and
  // returns the best machine id (-1 when no move beats its modeled cost),
  // filling `best_move` with the winning move's gain/cost model. It
  // charges itself to the rebalance or evacuation decision, preview and
  // search-time counters (by `reason`) and reports itself to the observer.
  struct TargetSearch {
    const ContainerRequest* request = nullptr;
    int exclude_machine = kNoMachine;  // the mover's source, never a target
    double current_abs = 0.0;   // producing rate now (0: queued/state lost)
    double goal_abs = 0.0;      // gain fallback under model-free targets
    bool improvement_only = false;  // live incumbent: min-gain gated delta
    bool pay_migration = false;     // live container: §7 estimate + copy
    bool was_queued = false;
    RebalanceMove::Reason reason = RebalanceMove::Reason::kRebalance;
  };
  int FindBestTarget(const TargetSearch& search, double now, EventObserver* observer,
                     RebalanceMove* best_move);

  // Commits the target side of a cross-machine move the search vouched
  // for, shared by rebalance, drain and failover: admits the container on
  // move.to_machine, updates machine_of_ and the capacity index, records
  // the admission, the move's cost and the log entry, and reports both to
  // the observer. The caller has already freed the source and updated the
  // domain occupancy, and keeps its own move counters.
  void CommitMove(const ContainerRequest& request, const RebalanceMove& move, double now,
                  EventObserver* observer);

  // Candidate target machine ids (ascending) for one fleet-op decision:
  // up machines != exclude_machine with >= vcpus free hardware threads.
  // With config.fleet_probes > 0 only machines inside that many of the
  // most promising cells (capacity index) are returned, falling back to
  // the full walk when the index proves no cell can fit the request;
  // fleet_probes = 0 is the full walk.
  std::vector<int> SelectFleetOpTargets(const ContainerRequest& request,
                                        int exclude_machine) const;

  // Replicas of the request's service group already in the machine's rack —
  // the co-location count the spread knobs act on.
  int RackColocation(const ContainerRequest& request, int machine_id) const;

  // Availability flip in the membership view, up_threads_, the capacity
  // index and the observer, shared by Fail/Drain/Rejoin.
  void SetAvailability(int machine_id, MachineAvailability availability, double now,
                       EventObserver* observer);

  // Empties a failed (graceful=false) or draining (graceful=true) machine,
  // rehoming every container it can and requeueing the rest.
  void Evacuate(int machine_id, bool graceful, double now, EventObserver* observer);

  const Migrator& MigratorFor(const ContainerRequest& request) const;

  FleetConfig config_;
  std::unique_ptr<DispatchPolicy> dispatch_;
  // Null unless config_.admission names a policy; see AdmissionActive().
  std::unique_ptr<AdmissionPolicy> admission_;
  // config_.tier_overrides parsed at construction (group -> tier).
  std::map<std::string, SloTier> tier_map_;
  // Ids the admission layer shed (rejected arrivals, preempted victims):
  // their trace departure events are silent no-ops. Always empty with
  // admission off.
  std::set<int> rejected_;
  // Tier of every live or waiting container by container id, for the
  // per-tier attainment accumulators in ReplayWithEvaluation; an id past
  // the end, or one not live, reads standard. Trace ids are dense, so the
  // table holds one entry per id up to the largest admitted. Only written
  // while admission is active (the per-tier report is all-standard
  // otherwise).
  std::vector<SloTier> tiers_;
  std::vector<Machine> machines_;
  // Long-lived membership view handed to the dispatch policy via
  // BindMembership; its availability entries are the fleet's record of
  // each machine's availability. Heap-allocated so the pointer the policy
  // holds survives moving the fleet (factory helpers return FleetScheduler
  // by value).
  std::unique_ptr<std::vector<MachineMembership>> membership_;
  // Per-cell capacity summaries over membership_, updated in place at
  // every occupancy/availability-changing point (see capacity_index.h).
  CapacityIndex capacity_index_;
  // Hardware threads across currently-up machines, maintained by
  // SetAvailability — AdmissionContext::total_threads without a machine
  // walk per arrival.
  long long up_threads_ = 0;
  // Failure-domain topology; heap-allocated so the pointer
  // domain_occupancy_ holds survives moving the fleet.
  std::unique_ptr<FailureDomainTopology> domains_;
  // Per-service-group domain occupancy, updated alongside machine_of_.
  DomainOccupancy domain_occupancy_;
  std::vector<Group> groups_;  // in the order of their first machine
  std::map<int, int> machine_of_;      // containers live on some machine
  std::map<int, ContainerRequest> unplaced_;  // waiting fleet-wide, no machine
  // Containers submitted but not yet placed (queued on a machine or
  // fleet-wide), id -> the instant their current wait started: submission,
  // or for a running container sent back through dispatch, the disruption.
  std::map<int, double> waiting_;
  // Instant every machine clock was last synced to, so same-instant events
  // skip the no-op machine walk.
  double last_synced_ = -std::numeric_limits<double>::infinity();
  FleetStats stats_;
  std::vector<RebalanceMove> rebalance_log_;
  std::vector<EvacuationReport> evacuations_;
  FastMigrator fast_migrator_;
  ThrottledMigrator throttled_migrator_;
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_CLUSTER_FLEET_H_
