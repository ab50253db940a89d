// Pluggable scheduling policies for the multi-tenant MachineScheduler.
//
// The paper's claim (§7) is comparative: the model-driven policy beats
// simpler packing policies under the same operator goals. Comparing policies
// head-to-head requires them to be interchangeable, so the scheduler's
// decision logic lives behind this strategy interface: given a PolicyContext
// (topology, occupancy view, important-placement set, per-placement
// predictions and the goal when the policy probes), a SchedulingPolicy
// returns candidate placements in preference order for admission and,
// separately, upgrade proposals for the departure re-placement pass. The
// scheduler stays policy-agnostic — it realizes the first candidate that
// fits the free threads and owns all bookkeeping.
//
// Policies are constructible by name through the PolicyRegistry, so new
// scenarios ("conservative operator", "tightest packer", ...) are drop-in
// plugins comparable under the same trace harness. Built in:
//
//   model      probe, predict, fewest nodes meeting the goal (the paper)
//   first-fit  fewest nodes that fit, id order, no probes, no upgrades
//   best-fit   tightest packing: fewest free threads left on the chosen nodes
//   spread     worst fit / interleave: maximize nodes used (conservative)
#ifndef NUMAPLACE_SRC_SCHEDULER_POLICY_H_
#define NUMAPLACE_SRC_SCHEDULER_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/important.h"
#include "src/core/occupancy.h"
#include "src/topology/topology.h"
#include "src/util/registry.h"

namespace numaplace {

// Everything a policy may consult for one decision. Pointers are non-owning
// and valid only for the duration of the call.
struct PolicyContext {
  const Topology* topo = nullptr;
  const ImportantPlacementSet* ips = nullptr;
  // Current occupancy; during an upgrade decision the incumbent's own
  // threads are already treated as free.
  const OccupancyMap* occupancy = nullptr;
  int vcpus = 0;
  // Candidate placement ids (the model's output order when the policy uses
  // the model, id order otherwise) and the absolute predicted throughput per
  // candidate — all zeros for policies that do not probe.
  const std::vector<int>* placement_ids = nullptr;
  const std::vector<double>* predicted_abs = nullptr;
  // Absolute throughput goal for this decision (0 when the policy has no
  // notion of a goal).
  double goal_abs = 0.0;
  // When no placement meets the goal, predictions within this relative slack
  // of the best count as equally good (see SchedulerConfig::fallback_slack).
  double fallback_slack = 0.0;
};

// The incumbent being reconsidered during the departure re-placement pass.
struct UpgradeState {
  int current_placement_id = 0;
  double current_predicted_abs = 0.0;
  bool meets_goal = false;
  // Minimum relative prediction gain for an upgrade between two placements
  // that both miss the goal (bounds migration churn).
  double upgrade_margin = 0.0;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual const std::string& name() const = 0;

  // Whether the scheduler should probe the container and build predictions
  // before asking for a ranking (and whether meets-goal is meaningful).
  virtual bool UsesModel() const { return false; }

  // Whether the policy ever proposes upgrades. The scheduler skips the
  // per-incumbent upgrade search entirely when false, so a policy overriding
  // ProposeUpgrades must return true here to be consulted.
  virtual bool Upgrades() const { return false; }

  // Candidate indices into *ctx.placement_ids in preference order for
  // admitting a pending container; the scheduler commits the first candidate
  // realizable on free hardware threads. Returning every index keeps the
  // container admissible whenever anything fits.
  //
  // Contract for a policy with UsesModel(): it ranks from the prediction
  // alone — ctx.placement_ids, ctx.predicted_abs, ctx.goal_abs,
  // ctx.fallback_slack and the node counts of the candidates' placements in
  // *ctx.ips — and never reads ctx.occupancy. Every machine of a topology
  // group then ranks a container alike, so the scheduler ranks it once per
  // group and shares the order (RankedView, src/model/registry.h). A policy
  // whose ranking reads occupancy (best-fit, spread) must not use the
  // model; model-free rankings are recomputed on every decision.
  virtual std::vector<size_t> RankForAdmission(const PolicyContext& ctx) const = 0;

  // Candidate indices worth migrating a degraded incumbent to, best first;
  // the scheduler commits the first realizable proposal (skipping the
  // incumbent's own placement class). An empty vector (the default) means
  // the policy never upgrades — pair an override with Upgrades() = true.
  virtual std::vector<size_t> ProposeUpgrades(const PolicyContext& ctx,
                                              const UpgradeState& incumbent) const {
    (void)ctx;
    (void)incumbent;
    return {};
  }
};

// Candidate list for decisions made without the model: every placement id of
// `ips` in set order, with an aligned all-zero prediction vector. Shared by
// the scheduler's admission/upgrade paths and the packing adapter so the
// model-free candidate enumeration cannot diverge between them.
void ModelFreeCandidates(const ImportantPlacementSet& ips,
                         std::vector<int>& placement_ids,
                         std::vector<double>& predicted_abs);

// The paper's decision rule (§1): prefer placements predicted to meet the
// goal, among those the fewest NUMA nodes (ties to the higher prediction);
// when nothing meets the goal, the near-best predictions (within
// ctx.fallback_slack of the maximum) count as equally good and the fewest
// nodes among them wins. Upgrades propose strictly better placements only.
class ModelPolicy final : public SchedulingPolicy {
 public:
  const std::string& name() const override;
  bool UsesModel() const override { return true; }
  bool Upgrades() const override { return true; }
  std::vector<size_t> RankForAdmission(const PolicyContext& ctx) const override;
  std::vector<size_t> ProposeUpgrades(const PolicyContext& ctx,
                                      const UpgradeState& incumbent) const override;
};

// Fewest nodes that fit, id order within a node count; no probes, no goals,
// no upgrades (the baseline the tenancy benchmark compares against).
class FirstFitPolicy final : public SchedulingPolicy {
 public:
  const std::string& name() const override;
  std::vector<size_t> RankForAdmission(const PolicyContext& ctx) const override;
};

// Tightest packing: among realizable candidates, the one leaving the fewest
// free hardware threads on the nodes it lands on (ties to fewer nodes, then
// id order). Keeps whole nodes free for future large containers.
class BestFitPolicy final : public SchedulingPolicy {
 public:
  const std::string& name() const override;
  std::vector<size_t> RankForAdmission(const PolicyContext& ctx) const override;
};

// Worst fit / interleave: maximize the nodes used (ties to the candidate
// leaving the most free threads on them, then id order) — the conservative
// operator who buys interference isolation with machine span.
class SpreadPolicy final : public SchedulingPolicy {
 public:
  const std::string& name() const override;
  std::vector<size_t> RankForAdmission(const PolicyContext& ctx) const override;
};

// Name -> factory registry (shared FactoryRegistry machinery: duplicate
// names CHECK-fail, unknown names CHECK-fail listing what is registered).
// The built-in policies above are pre-registered; plugins may Register
// additional names at startup.
class PolicyRegistry : public FactoryRegistry<SchedulingPolicy> {
 public:
  PolicyRegistry() : FactoryRegistry("scheduling policy") {}

  // The process-wide registry (built-ins registered on first use).
  static PolicyRegistry& Global();
};

// Shorthand for PolicyRegistry::Global().Make(name).
std::unique_ptr<SchedulingPolicy> MakePolicy(const std::string& name);

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_SCHEDULER_POLICY_H_
