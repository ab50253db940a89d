// Pluggable fleet-level dispatch policies for the FleetScheduler.
//
// The paper answers "where on *this* machine should the container run"; a
// datacenter answers "which machine" first. Machine-level decision logic is
// already pluggable (src/scheduler/policy.h); this mirrors that design one
// layer up: given a DispatchContext (the request plus a per-machine
// candidate view — load, queue depth and, when the dispatcher asks for
// them, each machine's own admission preview), a DispatchPolicy returns
// machine indices in preference order. The FleetScheduler stays
// dispatch-agnostic and owns all bookkeeping.
//
// Policies are constructible by name through the DispatchRegistry. Built in:
//
//   least-loaded    lowest busy-thread fraction (ties: shorter queue, more
//                   free threads, lower machine id)
//   round-robin     cycle machine ids in submission order, load-blind
//   best-predicted  ask every machine's SchedulingPolicy for its top
//                   candidate (probes paid once per topology group through
//                   the shared ModelRegistry) and pick the machine with the
//                   highest predicted throughput-vs-goal margin
//   sharded         two-level power-of-d-choices for 100+ machine fleets:
//                   partition machines into cells, sample d cells and run
//                   the inner per-machine previews only within the sampled
//                   cells — O(machines/cells * d) preview cost instead of
//                   O(machines)
#ifndef NUMAPLACE_SRC_CLUSTER_DISPATCH_H_
#define NUMAPLACE_SRC_CLUSTER_DISPATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/scheduler/scheduler.h"
#include "src/util/registry.h"
#include "src/util/rng.h"

namespace numaplace {

/// Static machine -> cell partition shared by the sharded dispatcher and
/// the fleet's per-cell capacity index (src/cluster/capacity_index.h).
/// Built once at BindMembership time; never rebuilt on availability churn,
/// so structures derived from it survive fail/drain/rejoin cycles.
struct CellLayout {
  /// Machine ids per cell, ascending within each cell.
  std::vector<std::vector<int>> cells;
  /// Machine id -> cell index.
  std::vector<int> cell_of;

  int NumCells() const { return static_cast<int>(cells.size()); }
  int NumMachines() const { return static_cast<int>(cell_of.size()); }
};

/// Modulo-interleaved cell layout over machine ids 0..num_machines-1:
/// machine m lands in cell m % cells, so a fleet built from repeating
/// heterogeneous blocks (amd,intel,amd,intel,...) spreads every topology
/// group over every cell. `requested_cells` 0 picks
/// round(sqrt(num_machines)) — cell count and cell size grow together and
/// per-decision scan cost stays O(sqrt(machines) * probes).
CellLayout MakeInterleavedCells(int num_machines, int requested_cells);

/// One machine as seen by a single dispatch decision. Pointers are
/// non-owning and valid only for the duration of the call.
struct MachineCandidate {
  /// Stable fleet-wide machine id (index into the fleet's machine list).
  int machine_id = 0;
  /// The machine's scheduler, for policies that inspect it directly.
  const MachineScheduler* scheduler = nullptr;
  /// Instantaneous busy-thread fraction.
  double utilization = 0.0;
  /// Hardware threads currently unoccupied.
  int free_threads = 0;
  /// Containers queued on the machine.
  int pending = 0;
  /// True when the fleet attached `preview` (only when the dispatcher's
  /// NeedsPreviews() is true).
  bool preview_valid = false;
  /// What the machine's own SchedulingPolicy would commit right now.
  MachineScheduler::AdmissionPreview preview;
};

/// The request plus the candidate machines of one dispatch decision.
struct DispatchContext {
  /// The container being dispatched (non-owning, call-scoped).
  const ContainerRequest* request = nullptr;
  /// Candidate views, ascending machine-id order (non-owning, call-scoped).
  const std::vector<MachineCandidate>* machines = nullptr;
};

/// Availability and capacity of one machine as continuously maintained by
/// the owning fleet (see DispatchPolicy::BindMembership). Unlike the
/// per-decision MachineCandidate, this view is long-lived: the fleet updates
/// `availability` in place on every fail/drain/rejoin event — it is the
/// fleet's own availability record — so cell-aware dispatchers track
/// membership incrementally instead of re-deriving it per decision.
struct MachineMembership {
  /// Stable fleet-wide machine id; equals the entry's index in the view.
  int machine_id = 0;
  /// Hardware-thread capacity (containers needing more never fit here).
  int hw_threads = 0;
  /// Non-owning handle for cheap occupancy statistics; outlives the policy.
  const MachineScheduler* scheduler = nullptr;
  /// Live availability, updated in place by the fleet on machine events.
  MachineAvailability availability = MachineAvailability::kUp;
};

/// Strategy interface: ranks the candidate machines of one dispatch
/// decision. Constructible by name through the DispatchRegistry.
class DispatchPolicy {
 public:
  virtual ~DispatchPolicy() = default;

  /// Registry name of the policy (stable, used in configs and reports).
  virtual const std::string& name() const = 0;

  /// Whether the fleet must probe the container once per topology group and
  /// attach per-machine admission previews before asking for a ranking.
  virtual bool NeedsPreviews() const { return false; }

  /// Called once by the owning FleetScheduler, before the first decision,
  /// with its long-lived membership view (one entry per machine, machine-id
  /// order). The vector outlives the policy and its availability entries
  /// are updated in place on machine fail/drain/rejoin, so structures
  /// derived here — like the sharded cell index — survive availability
  /// churn without rebuilding. Flat policies ignore the call.
  virtual void BindMembership(const std::vector<MachineMembership>* /*membership*/) {}

  /// Machine ids the fleet should build candidates (and, under
  /// NeedsPreviews(), admission previews) for on this decision; empty means
  /// every machine. This hook is where a sharded dispatcher cuts dispatch
  /// cost: the fleet probes and previews only the preselected machines. A
  /// preselection that yields no candidate falls back to the full machine
  /// list, so a narrow (or stale) preselection can cost performance but
  /// never strands a dispatchable container.
  virtual std::vector<int> Preselect(const ContainerRequest& /*request*/) {
    return {};
  }

  /// Machine indices into *ctx.machines in preference order. When previews
  /// are available the fleet submits to the first ranked machine whose
  /// preview is realizable (falling back to the first-ranked machine, where
  /// the container queues); preview-less dispatchers commit to their first
  /// choice. May mutate policy state (round-robin's cursor), hence
  /// non-const.
  virtual std::vector<size_t> Rank(const DispatchContext& ctx) = 0;
};

/// Lowest instantaneous utilization first; ties go to the shorter queue,
/// then more free threads, then the lower machine id.
class LeastLoadedDispatch final : public DispatchPolicy {
 public:
  const std::string& name() const override;
  std::vector<size_t> Rank(const DispatchContext& ctx) override;
};

/// Cycles through machine ids, one step per dispatch decision — the
/// load-blind baseline every comparison starts from. The cycle runs over
/// stable machine ids, so machines filtered from one decision (container
/// too large) do not skew the rotation of the next.
class RoundRobinDispatch final : public DispatchPolicy {
 public:
  const std::string& name() const override;
  std::vector<size_t> Rank(const DispatchContext& ctx) override;

 private:
  int next_machine_id_ = 0;
};

/// Highest predicted margin (top candidate's predicted throughput /
/// decision goal, saturated at the goal) among machines whose preview is
/// realizable, ties toward the least-loaded machine; machines with
/// model-free policies rank by realizability alone, and unrealizable
/// machines come last in least-loaded order.
class BestPredictedDispatch final : public DispatchPolicy {
 public:
  const std::string& name() const override;
  bool NeedsPreviews() const override { return true; }
  std::vector<size_t> Rank(const DispatchContext& ctx) override;
};

/// Tuning knobs of the sharded two-level dispatcher.
struct ShardedDispatchConfig {
  /// Number of dispatch cells the fleet is partitioned into; 0 picks
  /// round(sqrt(machines)), so cell count and cell size grow together and
  /// preview cost per decision stays O(sqrt(machines) * probes).
  int cells = 0;
  /// d of the power-of-d-choices step: eligible cells sampled per decision
  /// (clamped to the number of eligible cells). 2 is the classic sweet
  /// spot — near-uniform load at a fraction of the probing.
  int probes = 2;
  /// Registered name of the inner dispatcher that ranks candidates within
  /// the sampled cells.
  std::string inner = "best-predicted";
};

/// Two-level "power of d choices" dispatch for 100+ machine fleets.
///
/// Machines are partitioned into cells at BindMembership time (modulo
/// assignment, so repeating heterogeneous blocks like amd,intel,amd,intel
/// spread every topology group over every cell). Each decision samples
/// `probes` cells uniformly from the cells that still hold an up machine
/// the container fits on and preselects only their member machines — so
/// occupancy probes and admission previews run on
/// O(machines/cells * probes) machines instead of all of them. The inner
/// dispatcher then picks the best machine within that union (level two:
/// its per-machine comparison — load, or predicted margin with load
/// tie-breaks — is the choice among the sampled cells, a sharper signal
/// than any cell-aggregate statistic). Cell membership is static;
/// availability flips (fail/drain/rejoin) are read live from the fleet's
/// membership view, so a failed machine drops out of its cell's eligible
/// set and returns to the same cell on rejoin.
class ShardedDispatchPolicy final : public DispatchPolicy {
 public:
  explicit ShardedDispatchPolicy(ShardedDispatchConfig config = {});

  const std::string& name() const override;
  bool NeedsPreviews() const override;
  void BindMembership(const std::vector<MachineMembership>* membership) override;
  std::vector<int> Preselect(const ContainerRequest& request) override;
  std::vector<size_t> Rank(const DispatchContext& ctx) override;

  /// Cells actually built (valid after BindMembership).
  int NumCells() const { return layout_.NumCells(); }
  /// Cell holding the machine; stable across fail/drain/rejoin.
  int CellOf(int machine_id) const;
  /// The full partition (valid after BindMembership) — the fleet's
  /// capacity index mirrors it so rebalance/evacuation target searches
  /// and dispatch sampling agree on what a cell is.
  const CellLayout& layout() const { return layout_; }
  /// Cells sampled by the most recent Preselect, in sample order.
  const std::vector<int>& LastSampledCells() const { return last_sampled_; }
  /// The configuration the policy was built with.
  const ShardedDispatchConfig& config() const { return config_; }

 private:
  ShardedDispatchConfig config_;
  std::unique_ptr<DispatchPolicy> inner_;
  const std::vector<MachineMembership>* membership_ = nullptr;
  CellLayout layout_;  // static partition built at BindMembership time
  std::vector<int> last_sampled_;
  Rng rng_;
};

/// Name -> factory registry, the same FactoryRegistry machinery as the
/// machine-level PolicyRegistry. The built-ins above are pre-registered;
/// plugins may Register additional names at startup.
class DispatchRegistry : public FactoryRegistry<DispatchPolicy> {
 public:
  DispatchRegistry() : FactoryRegistry("dispatch policy") {}

  /// The process-wide registry (built-ins registered on first use).
  static DispatchRegistry& Global();
};

/// Shorthand for DispatchRegistry::Global().Make(name). Unknown names throw
/// std::logic_error listing every registered policy.
std::unique_ptr<DispatchPolicy> MakeDispatchPolicy(const std::string& name);

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_CLUSTER_DISPATCH_H_
