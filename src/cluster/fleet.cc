#include "src/cluster/fleet.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "src/util/check.h"

namespace numaplace {

namespace {

// Cross-machine moves copy the container's memory (anon + page cache) over
// the network; seconds per GB on top of the §7 migration estimate.
constexpr double kNetworkSecondsPerGb = 0.5;
// A move's predicted throughput gain is credited over this horizon (the
// expected residual lifetime under the trace generator's exponential
// lifetimes) and must beat the ops lost while the move runs.
constexpr double kRebalanceHorizonSeconds = 600.0;
// Measurement noise of the per-machine simulators; machine m draws from
// kNoiseSeed + m, so identical boxes still measure like distinct hardware.
constexpr double kNoiseSigma = 0.01;
constexpr uint64_t kNoiseSeed = 5;

}  // namespace

FleetScheduler::FleetScheduler(std::vector<MachineSpec> specs, FleetConfig config)
    : FleetScheduler(std::move(specs), config, MakeDispatchPolicy(config.dispatch)) {}

FleetScheduler::FleetScheduler(std::vector<MachineSpec> specs, FleetConfig config,
                               std::unique_ptr<DispatchPolicy> dispatch)
    : config_(std::move(config)),
      dispatch_(std::move(dispatch)),
      fast_migrator_(),
      throttled_migrator_() {
  NP_CHECK(dispatch_ != nullptr);
  NP_CHECK_MSG(!specs.empty(), "a fleet needs at least one machine");
  NP_CHECK(config_.rebalance_min_gain >= 0.0);
  NP_CHECK_MSG(config_.fleet_probes >= 0,
               "fleet_probes cannot be negative (0 = the full scan)");
  NP_CHECK_MSG(config_.domain_racks >= 0,
               "domain_racks cannot be negative (0 = auto fan-out)");
  NP_CHECK_MSG(config_.domain_zones >= 0,
               "domain_zones cannot be negative (0 = auto fan-out)");
  NP_CHECK_MSG(config_.spread_weight >= 0.0, "spread_weight cannot be negative");
  NP_CHECK_MSG(config_.spread_max_per_rack >= 0,
               "spread_max_per_rack cannot be negative (0 = no cap)");
  NP_CHECK_MSG(config_.admission_defer_limit >= 0,
               "admission_defer_limit cannot be negative");
  if (!config_.admission.empty()) {
    admission_ = MakeAdmissionPolicy(config_.admission);
  }
  for (const auto& [group, tier_name] : config_.tier_overrides) {
    SloTier tier = SloTier::kStandard;
    NP_CHECK_MSG(ParseSloTier(tier_name, &tier),
                 "tier_overrides[" << group << "] = \"" << tier_name
                                   << "\" is not a tier (premium / standard / "
                                      "best-effort)");
    tier_map_[group] = tier;
  }
  machines_.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Machine machine;
    while (machine.group < groups_.size() &&
           groups_[machine.group].name != specs[i].topo.name()) {
      ++machine.group;
    }
    if (machine.group == groups_.size()) {
      Group group;
      group.name = specs[i].topo.name();
      group.registry = std::make_unique<ModelRegistry>();
      groups_.push_back(std::move(group));
    }
    Group& group = groups_[machine.group];
    group.machine_ids.push_back(static_cast<int>(i));
    machine.topo = std::make_unique<Topology>(std::move(specs[i].topo));
    machine.solo =
        std::make_unique<PerformanceModel>(*machine.topo, kNoiseSigma, kNoiseSeed + i);
    machine.multi =
        std::make_unique<MultiTenantModel>(*machine.topo, kNoiseSigma, kNoiseSeed + i);
    machine.scheduler = std::make_unique<MachineScheduler>(
        *machine.topo, *machine.solo, group.registry.get(), specs[i].scheduler);
    machines_.push_back(std::move(machine));
  }
  // The long-lived membership view for cell-aware dispatchers: built once
  // (heap-allocated, so the address the policy holds survives moving the
  // fleet) and kept current by SetAvailability.
  membership_ = std::make_unique<std::vector<MachineMembership>>();
  membership_->reserve(machines_.size());
  for (int m = 0; m < NumMachines(); ++m) {
    MachineMembership member;
    member.machine_id = m;
    member.hw_threads = machines_[static_cast<size_t>(m)].topo->NumHwThreads();
    member.scheduler = machines_[static_cast<size_t>(m)].scheduler.get();
    up_threads_ += member.hw_threads;  // every machine starts kUp
    membership_->push_back(member);
  }
  dispatch_->BindMembership(membership_.get());
  // The capacity index mirrors the sharded dispatcher's cell partition
  // when one is active, so "promising cell" means the same thing to
  // dispatch sampling and to rebalance/evacuation target searches; under a
  // flat dispatcher it builds the same modulo layout the dispatcher would
  // have.
  const auto* sharded = dynamic_cast<const ShardedDispatchPolicy*>(dispatch_.get());
  capacity_index_.Bind(membership_.get(), sharded != nullptr
                                              ? sharded->layout()
                                              : MakeInterleavedCells(NumMachines(), 0));
  // The failure-domain topology (uniform by default; ProvideDomains swaps in
  // an explicit layout before traffic) and its live occupancy view. Unlike
  // dispatch cells, domains are contiguous machine blocks — racks are
  // physical neighbors, not an interleaved spreading device.
  domains_ = std::make_unique<FailureDomainTopology>(FailureDomainTopology::Uniform(
      NumMachines(), config_.domain_racks, config_.domain_zones));
  domain_occupancy_.Bind(domains_.get());
}

void FleetScheduler::ProvideDomains(FailureDomainTopology domains) {
  NP_CHECK_MSG(domains.NumMachines() == NumMachines(),
               "explicit failure-domain layout covers " << domains.NumMachines()
                                                        << " machines, fleet has "
                                                        << NumMachines());
  NP_CHECK_MSG(machine_of_.empty() && unplaced_.empty(),
               "failure-domain layout must be fixed before any container is live");
  *domains_ = std::move(domains);
  // Re-bind to resize the occupancy vectors to the new rack/zone counts.
  domain_occupancy_.Bind(domains_.get());
}

std::map<std::string, int> FleetScheduler::DomainsToLoss(DomainScope scope) const {
  std::map<std::string, int> by_group;
  for (const std::string& group : domain_occupancy_.Groups()) {
    by_group[group] = domain_occupancy_.DomainsToLoss(group, scope);
  }
  return by_group;
}

int FleetScheduler::RackColocation(const ContainerRequest& request,
                                   int machine_id) const {
  return domain_occupancy_.CountIn(ServiceGroupOf(request.workload.name),
                                   DomainScope::kRack, domains_->RackOf(machine_id));
}

MachineScheduler& FleetScheduler::machine(int machine_id) {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  return *machines_[static_cast<size_t>(machine_id)].scheduler;
}

const MachineScheduler& FleetScheduler::machine(int machine_id) const {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  return *machines_[static_cast<size_t>(machine_id)].scheduler;
}

const Topology& FleetScheduler::topology(int machine_id) const {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  return *machines_[static_cast<size_t>(machine_id)].topo;
}

const MultiTenantModel& FleetScheduler::multi_model(int machine_id) const {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  return *machines_[static_cast<size_t>(machine_id)].multi;
}

MachineAvailability FleetScheduler::availability(int machine_id) const {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  return (*membership_)[static_cast<size_t>(machine_id)].availability;
}

std::vector<std::string> FleetScheduler::GroupNames() const {
  std::vector<std::string> names;
  for (const Group& group : groups_) {
    names.push_back(group.name);
  }
  return names;
}

FleetScheduler::Group& FleetScheduler::GroupNamed(const std::string& name) {
  for (Group& group : groups_) {
    if (group.name == name) {
      return group;
    }
  }
  NP_CHECK_MSG(false, "no machine of topology '" << name << "' in the fleet");
  __builtin_unreachable();
}

ModelRegistry& FleetScheduler::GroupRegistry(const std::string& group) {
  return *GroupNamed(group).registry;
}

void FleetScheduler::ProvidePlacements(const std::string& group,
                                       const ImportantPlacementSet& ips) {
  for (int m : GroupNamed(group).machine_ids) {
    machines_[static_cast<size_t>(m)].scheduler->ProvidePlacements(ips);
  }
}

void FleetScheduler::SyncClocks(double now) {
  if (now == last_synced_) {
    // Every machine clock already reads `now`; AdvanceClock with dt == 0
    // adds count * 0.0 to a non-negative accumulator and leaves the last
    // event time alone — a bitwise no-op, so skipping it is exact.
    return;
  }
  last_synced_ = now;
  for (Machine& machine : machines_) {
    machine.scheduler->SyncClock(now);
  }
}

const Migrator& FleetScheduler::MigratorFor(const ContainerRequest& request) const {
  return request.latency_sensitive ? static_cast<const Migrator&>(throttled_migrator_)
                                   : static_cast<const Migrator&>(fast_migrator_);
}

void FleetScheduler::EnsureGroupProbes(size_t group, const ContainerRequest& request) {
  for (int m : groups_[group].machine_ids) {
    // A failed or draining machine runs nothing, probes included.
    if (availability(m) != MachineAvailability::kUp) {
      continue;
    }
    MachineScheduler& scheduler = *machines_[static_cast<size_t>(m)].scheduler;
    if (!scheduler.policy().UsesModel()) {
      continue;
    }
    // The group's first model-using up machine probes on behalf of every
    // machine sharing the registry; a cached prediction makes this a no-op.
    const MachineScheduler::ProbeCharge charge = scheduler.EnsureProbes(request);
    if (charge.ran) {
      stats_.fleet_probe_runs += 2;
      stats_.fleet_probe_seconds += charge.seconds;
    }
    return;
  }
}

std::vector<MachineCandidate> FleetScheduler::BuildCandidates(
    const ContainerRequest& request, bool with_previews,
    const std::vector<int>* only) {
  // The machine ids under consideration, ascending (round-robin's cursor
  // relies on candidates arriving in machine-id order).
  std::vector<int> machine_ids;
  if (only != nullptr) {
    machine_ids = *only;
    std::sort(machine_ids.begin(), machine_ids.end());
    machine_ids.erase(std::unique(machine_ids.begin(), machine_ids.end()),
                      machine_ids.end());
    for (int m : machine_ids) {
      NP_CHECK_MSG(m >= 0 && m < NumMachines(), "dispatch policy '"
                                                    << dispatch_->name()
                                                    << "' preselected machine " << m
                                                    << " out of range");
    }
  } else {
    machine_ids.resize(static_cast<size_t>(NumMachines()));
    std::iota(machine_ids.begin(), machine_ids.end(), 0);
  }
  if (with_previews) {
    // Probe a group only when an up machine of it under consideration could
    // take the container — a preselection never probes groups outside it.
    std::vector<char> probed(groups_.size(), 0);
    for (int m : machine_ids) {
      const Machine& machine = machines_[static_cast<size_t>(m)];
      if (availability(m) == MachineAvailability::kUp &&
          request.vcpus <= machine.topo->NumHwThreads() && probed[machine.group] == 0) {
        probed[machine.group] = 1;
        EnsureGroupProbes(machine.group, request);
      }
    }
  }
  std::vector<MachineCandidate> candidates;
  candidates.reserve(machine_ids.size());
  bool fits_any_topology = false;
  for (int m : machine_ids) {
    Machine& machine = machines_[static_cast<size_t>(m)];
    if (request.vcpus > machine.topo->NumHwThreads()) {
      continue;  // a machine the container cannot fit on is never a candidate
    }
    fits_any_topology = true;
    if (availability(m) != MachineAvailability::kUp) {
      continue;  // failed/draining machines receive no dispatches
    }
    MachineCandidate candidate;
    candidate.machine_id = m;
    candidate.scheduler = machine.scheduler.get();
    candidate.utilization = machine.scheduler->occupancy().Utilization();
    candidate.free_threads = machine.scheduler->occupancy().FreeThreadCount();
    candidate.pending = static_cast<int>(machine.scheduler->PendingIds().size());
    if (with_previews) {
      // A pure read of this machine: every group was probed above.
      candidate.preview = machine.scheduler->PreviewAdmission(request);
      candidate.preview_valid = true;
      ++stats_.dispatch_previews;
    }
    candidates.push_back(std::move(candidate));
  }
  // Only a full build can prove a configuration error; a preselection that
  // fits nothing falls back to a full build in Dispatch.
  NP_CHECK_MSG(fits_any_topology || only != nullptr,
               "container " << request.id << " (" << request.vcpus
                            << " vCPUs) is larger than every machine in the fleet");
  return candidates;
}

int FleetScheduler::ChooseMachine(const ContainerRequest& request,
                                  std::vector<MachineCandidate>& candidates) {
  NP_CHECK(!candidates.empty());
  DispatchContext ctx;
  ctx.request = &request;
  ctx.machines = &candidates;
  const std::vector<size_t> order = dispatch_->Rank(ctx);
  NP_CHECK_MSG(!order.empty(),
               "dispatch policy '" << dispatch_->name() << "' ranked no machines");
  // A candidate's score is its rank position. The spread dimension adds a
  // rack co-location penalty — spread_weight * (group replicas already in
  // the candidate's rack), plus a dominating penalty past the
  // spread_max_per_rack cap. The policy still orders machines by its own
  // signal (load, predicted margin); spread only trades rank positions
  // against co-location, so it composes with any dispatcher, sharded
  // included. The cap is soft here — when every candidate's rack is capped
  // the least-bad one still takes the container (a placement always beats
  // stranding work; the hard cap lives in the fleet-op target searches,
  // where declining a move is safe). With spread off the score is the rank
  // position, so the choice is the first ranked machine that matches.
  constexpr double kCapPenalty = 1e9;
  const auto score_of = [&](size_t position, size_t idx) {
    double score = static_cast<double>(position);
    if (SpreadActive()) {
      const int colocated = RackColocation(request, candidates[idx].machine_id);
      score += config_.spread_weight * colocated;
      if (config_.spread_max_per_rack > 0 && colocated >= config_.spread_max_per_rack) {
        score += kCapPenalty;
      }
    }
    return score;
  };
  const auto best_by_score = [&](bool realizable_only) {
    size_t best = order.size();  // sentinel: none matched
    double best_score = 0.0;
    for (size_t position = 0; position < order.size(); ++position) {
      const size_t idx = order[position];
      NP_CHECK_MSG(idx < candidates.size(), "dispatch policy '"
                                                << dispatch_->name()
                                                << "' ranked machine index " << idx
                                                << " out of range");
      if (realizable_only && !candidates[idx].preview.realizable) {
        continue;
      }
      const double score = score_of(position, idx);
      if (best == order.size() || score < best_score) {
        best = idx;
        best_score = score;  // ties keep the earlier rank position
      }
    }
    return best;
  };
  // Prefer the best-scored machine that can admit right now over queueing
  // on the best-scored machine overall.
  size_t best = dispatch_->NeedsPreviews() ? best_by_score(/*realizable_only=*/true)
                                           : order.size();
  if (best == order.size()) {
    best = best_by_score(/*realizable_only=*/false);
  }
  return candidates[best].machine_id;
}

void FleetScheduler::RecordAdmission(const ScheduleOutcome& outcome, double now) {
  const auto waiting = waiting_.find(outcome.container_id);
  if (!outcome.admitted || waiting == waiting_.end()) {
    return;
  }
  stats_.queue_wait_seconds += now - waiting->second;
  ++stats_.queue_admissions;
  waiting_.erase(waiting);
}

void FleetScheduler::SetTier(int container_id, SloTier tier) {
  NP_CHECK_MSG(container_id >= 0, "container id " << container_id << " is negative");
  const size_t id = static_cast<size_t>(container_id);
  if (id >= tiers_.size()) {
    if (tier == SloTier::kStandard) {
      return;  // past the end already reads standard
    }
    tiers_.resize(id + 1, SloTier::kStandard);
  }
  tiers_[id] = tier;
}

const AdmissionPolicy& FleetScheduler::admission() const {
  NP_CHECK_MSG(admission_ != nullptr, "no admission policy is configured");
  return *admission_;
}

SloTier FleetScheduler::TierOf(const std::string& workload_name) const {
  const std::string group = ServiceGroupOf(workload_name);
  const auto pinned = tier_map_.find(group);
  if (pinned != tier_map_.end()) {
    return pinned->second;
  }
  return TierFromGroupName(group);
}

AdmissionContext FleetScheduler::BuildAdmissionContext(
    const ContainerRequest& request, SloTier tier) const {
  AdmissionContext ctx;
  ctx.vcpus = request.vcpus;
  ctx.tier = tier;
  ctx.defer_limit = config_.admission_defer_limit;
  ctx.waiting = static_cast<int>(waiting_.size());
  ctx.total_threads = up_threads_;
  // Saturation from the per-cell summaries: O(cells), never a machine walk.
  for (int c = 0; c < capacity_index_.NumCells(); ++c) {
    const CellCapacity& cell = capacity_index_.cell(c);
    ctx.free_threads += cell.free_threads;
    if (cell.max_free_threads >= request.vcpus) {
      ctx.fits_now = true;
    }
  }
  // A preemption victim exists when some waiting container is best-effort;
  // waiting_ is ordered by id, so the scan (early-exited) is deterministic.
  for (const auto& [id, since] : waiting_) {
    if (ContainerTier(id) == SloTier::kBestEffort) {
      ctx.queued_best_effort = true;
      break;
    }
  }
  return ctx;
}

void FleetScheduler::PreemptQueuedBestEffort(double now, EventObserver* observer) {
  int victim = kNoMachine;
  for (const auto& [id, since] : waiting_) {
    if (ContainerTier(id) == SloTier::kBestEffort) {
      victim = id;
      break;
    }
  }
  if (victim == kNoMachine) {
    return;
  }
  int victim_vcpus = 0;
  int victim_machine = kNoMachine;
  const auto unplaced = unplaced_.find(victim);
  if (unplaced != unplaced_.end()) {
    // Waiting fleet-wide: nothing is held anywhere.
    victim_vcpus = unplaced->second.vcpus;
    unplaced_.erase(unplaced);
  } else {
    // Queued on a machine: removed through the same machine-level Depart
    // primitive the evacuation path uses, with replace=false — shedding
    // must not backfill the queue slot it just freed. A queued container
    // has no state, so the shed itself is free.
    victim_machine = MachineOf(victim);
    NP_CHECK_MSG(victim_machine >= 0,
                 "preemption victim " << victim << " is neither unplaced nor queued");
    MachineScheduler& source = *machines_[static_cast<size_t>(victim_machine)].scheduler;
    const ManagedContainer* managed = source.Find(victim);
    NP_CHECK(managed != nullptr);
    victim_vcpus = managed->request.vcpus;
    source.Depart(victim, now, /*forget_probes=*/true, /*replace=*/false);
    capacity_index_.OnOccupancyChange(victim_machine);
    machine_of_.erase(victim);
    domain_occupancy_.Remove(victim);
  }
  waiting_.erase(victim);
  SetTier(victim, SloTier::kStandard);
  for (Group& group : groups_) {
    group.registry->Forget(victim);
  }
  // The victim counts as a best-effort rejection (preemption is how the
  // rejection happened), and its future trace departure becomes a no-op.
  rejected_.insert(victim);
  ++stats_.tier_rejected[static_cast<size_t>(SloTier::kBestEffort)];
  ++stats_.tier_preempted[static_cast<size_t>(SloTier::kBestEffort)];
  if (observer != nullptr) {
    observer->OnAdmissionDecision(victim, victim_vcpus, SloTier::kBestEffort,
                                  AdmissionDecision::kReject, now);
    observer->OnDeparture(victim_machine, victim, now);
  }
}

FleetOutcome FleetScheduler::Dispatch(const ContainerRequest& request, double now,
                                      EventObserver* observer) {
  ++stats_.dispatch_decisions;
  const int previews_before = stats_.dispatch_previews;
  const std::vector<int> preselected = dispatch_->Preselect(request);
  std::vector<MachineCandidate> candidates =
      BuildCandidates(request, dispatch_->NeedsPreviews(),
                      preselected.empty() ? nullptr : &preselected);
  if (candidates.empty() && !preselected.empty()) {
    // A preselection (e.g. sharded cells) that yields no candidate must not
    // park the container while a machine outside it could take it.
    candidates = BuildCandidates(request, dispatch_->NeedsPreviews());
  }
  if (observer != nullptr) {
    TargetSearchStats search;
    search.kind = TargetSearchStats::Kind::kDispatch;
    search.previews = stats_.dispatch_previews - previews_before;
    observer->OnTargetSearch(search, now);
  }
  if (candidates.empty()) {
    // Every machine that could hold the container is failed or draining:
    // wait fleet-wide until capacity returns (DrainUnplaced retries).
    unplaced_[request.id] = request;
    waiting_.emplace(request.id, now);
    // A new fleet-wide waiter is a rebalance candidate the occupancy
    // deltas cannot see.
    capacity_index_.MarkCapacityChanged();
    ScheduleOutcome outcome;
    outcome.container_id = request.id;
    if (observer != nullptr) {
      observer->OnQueued(kNoMachine, outcome, now);
    }
    return {kNoMachine, std::move(outcome)};
  }
  const int machine_id = ChooseMachine(request, candidates);

  // The container is routed: it holds its rack slot for the spread
  // dimension and is no longer unplaced.
  unplaced_.erase(request.id);
  machine_of_[request.id] = machine_id;
  domain_occupancy_.Add(request.id, ServiceGroupOf(request.workload.name), machine_id);

  ScheduleOutcome outcome =
      machines_[static_cast<size_t>(machine_id)].scheduler->Submit(request, now);
  capacity_index_.OnOccupancyChange(machine_id);
  if (outcome.admitted) {
    if (!outcome.meets_goal) {
      // A degraded admission creates a rebalance mover; free capacity
      // elsewhere may already hold a better placement for it.
      capacity_index_.MarkCapacityChanged();
    }
    RecordAdmission(outcome, now);
    if (observer != nullptr) {
      observer->OnAdmission(machine_id, outcome, now);
    }
  } else {
    waiting_.emplace(outcome.container_id, now);
    // Likewise a machine-queued waiter.
    capacity_index_.MarkCapacityChanged();
    if (observer != nullptr) {
      observer->OnQueued(machine_id, outcome, now);
    }
  }
  return {machine_id, std::move(outcome)};
}

FleetOutcome FleetScheduler::Submit(const ContainerRequest& request, double now,
                                    EventObserver* observer) {
  NP_CHECK_MSG(MachineOf(request.id) == kNoMachine && unplaced_.count(request.id) == 0,
               "container " << request.id << " is already live fleet-wide");
  SyncClocks(now);
  ++stats_.submitted;
  if (AdmissionActive()) {
    const SloTier tier = TierOf(request.workload.name);
    const size_t t = static_cast<size_t>(tier);
    ++stats_.tier_arrivals[t];
    const AdmissionContext ctx = BuildAdmissionContext(request, tier);
    AdmissionDecision decision = admission_->Decide(ctx);
    if (decision == AdmissionDecision::kPreempt && !ctx.queued_best_effort) {
      // Policy bug guard: preempting without a victim degrades to admit.
      decision = AdmissionDecision::kAdmit;
    }
    if (observer != nullptr) {
      observer->OnAdmissionDecision(request.id, request.vcpus, tier, decision, now);
    }
    switch (decision) {
      case AdmissionDecision::kReject:
        // Shed before any state is held: no wait-set entry, no dispatch —
        // only the rejected_ entry that makes the container's trace
        // departure a no-op.
        ++stats_.tier_rejected[t];
        rejected_.insert(request.id);
        {
          ScheduleOutcome outcome;
          outcome.container_id = request.id;
          return {kNoMachine, std::move(outcome)};
        }
      case AdmissionDecision::kDefer: {
        // Park fleet-wide without a dispatch decision; DrainUnplaced
        // retries it the next time capacity may have returned.
        ++stats_.tier_deferred[t];
        ++stats_.queued;
        SetTier(request.id, tier);
        unplaced_[request.id] = request;
        waiting_.emplace(request.id, now);
        capacity_index_.MarkCapacityChanged();
        ScheduleOutcome outcome;
        outcome.container_id = request.id;
        if (observer != nullptr) {
          observer->OnQueued(kNoMachine, outcome, now);
        }
        return {kNoMachine, std::move(outcome)};
      }
      case AdmissionDecision::kPreempt:
        PreemptQueuedBestEffort(now, observer);
        [[fallthrough]];
      case AdmissionDecision::kAdmit:
        ++stats_.tier_admitted[t];
        SetTier(request.id, tier);
        break;
    }
  }
  FleetOutcome dispatched = Dispatch(request, now, observer);
  ++(dispatched.outcome.admitted ? stats_.dispatched_immediately : stats_.queued);
  return dispatched;
}

void FleetScheduler::Depart(int container_id, double now, EventObserver* observer) {
  SyncClocks(now);
  if (rejected_.erase(container_id) > 0) {
    // The admission layer shed this container (arrival reject or preemption
    // victim): it was never live, so its trace departure is a no-op — no
    // observer callback, no stats. Always empty with admission off.
    return;
  }
  if (unplaced_.erase(container_id) > 0) {
    // Departed while waiting fleet-wide: nothing was held anywhere.
    waiting_.erase(container_id);
    SetTier(container_id, SloTier::kStandard);
    for (Group& group : groups_) {
      group.registry->Forget(container_id);
    }
    if (observer != nullptr) {
      observer->OnDeparture(kNoMachine, container_id, now);
    }
    return;
  }
  const int machine_id = MachineOf(container_id);
  NP_CHECK_MSG(machine_id >= 0,
               "container " << container_id << " is not live on any machine");

  std::vector<ScheduleOutcome> replaced =
      machines_[static_cast<size_t>(machine_id)].scheduler->Depart(container_id, now);
  capacity_index_.OnOccupancyChange(machine_id);
  if (!replaced.empty()) {
    // Queue admissions and upgrades can leave the free-thread count
    // unchanged while reshaping which threads are free (and which tenants
    // are degraded) — capacity-relevant facts the occupancy delta cannot
    // see.
    capacity_index_.MarkCapacityChanged();
  }
  // Dispatch previews may have cached probes in other topology groups too.
  for (Group& group : groups_) {
    group.registry->Forget(container_id);
  }
  machine_of_.erase(container_id);
  domain_occupancy_.Remove(container_id);
  waiting_.erase(container_id);
  SetTier(container_id, SloTier::kStandard);
  if (observer != nullptr) {
    observer->OnDeparture(machine_id, container_id, now);
  }

  for (const ScheduleOutcome& outcome : replaced) {
    RecordAdmission(outcome, now);
    if (observer != nullptr) {
      observer->OnAdmission(machine_id, outcome, now);
    }
  }
  if (config_.rebalance_on_departure) {
    RebalancePass(now, observer);
  }
}

void FleetScheduler::SetAvailability(int machine_id, MachineAvailability availability,
                                     double now, EventObserver* observer) {
  // up_threads_ moves only on real up<->down transitions (draining then
  // failing the same machine must not be subtracted twice).
  MachineMembership& member = (*membership_)[static_cast<size_t>(machine_id)];
  const bool was_up = member.availability == MachineAvailability::kUp;
  const bool is_up = availability == MachineAvailability::kUp;
  if (was_up != is_up) {
    up_threads_ += is_up ? member.hw_threads : -member.hw_threads;
  }
  // The membership view is the availability record: cell-aware dispatchers
  // read it in place instead of being rebuilt, so cell assignments survive
  // fail/drain/rejoin cycles.
  member.availability = availability;
  // Same for the capacity index: the machine moves into or out of its
  // cell's up-aggregates while keeping its cell for a later rejoin.
  capacity_index_.OnAvailabilityChange(machine_id);
  if (observer != nullptr) {
    observer->OnMachineAvailability(machine_id, availability, now);
  }
}

void FleetScheduler::Fail(int machine_id, double now, EventObserver* observer) {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  NP_CHECK_MSG(availability(machine_id) != MachineAvailability::kFailed,
               "machine " << machine_id << " already failed");
  SyncClocks(now);
  SetAvailability(machine_id, MachineAvailability::kFailed, now, observer);
  Evacuate(machine_id, /*graceful=*/false, now, observer);
}

void FleetScheduler::Drain(int machine_id, double now, EventObserver* observer) {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  NP_CHECK_MSG(availability(machine_id) == MachineAvailability::kUp,
               "only an up machine can drain — machine "
                   << machine_id << " is " << ToString(availability(machine_id)));
  SyncClocks(now);
  SetAvailability(machine_id, MachineAvailability::kDraining, now, observer);
  Evacuate(machine_id, /*graceful=*/true, now, observer);
}

void FleetScheduler::Rejoin(int machine_id, double now, EventObserver* observer) {
  NP_CHECK(machine_id >= 0 && machine_id < NumMachines());
  NP_CHECK_MSG(availability(machine_id) != MachineAvailability::kUp,
               "machine " << machine_id << " is already up");
  SyncClocks(now);
  SetAvailability(machine_id, MachineAvailability::kUp, now, observer);
  // The returned (empty) capacity immediately serves waiting work.
  RebalancePass(now, observer);
}

void FleetScheduler::Evacuate(int machine_id, bool graceful, double now,
                              EventObserver* observer) {
  MachineScheduler& source = *machines_[static_cast<size_t>(machine_id)].scheduler;

  struct Evacuee {
    ContainerRequest request;
    bool was_queued = false;
    double current_abs = 0.0;  // producing rate at evacuation time
    double goal_abs = 0.0;
  };
  // Running containers first: they hold progress and were producing, so
  // they get the survivors' last slots ahead of work that was already
  // waiting (which the later requeue keeps in FIFO order anyway).
  std::vector<Evacuee> evacuees;
  for (int id : source.RunningIds()) {
    const ManagedContainer* managed = source.Find(id);
    evacuees.push_back({managed->request, false, managed->predicted_abs_throughput,
                        managed->goal_abs_throughput});
  }
  for (int id : source.PendingIds()) {
    const ManagedContainer* managed = source.Find(id);
    evacuees.push_back({managed->request, true, 0.0, managed->goal_abs_throughput});
  }

  // Empty the machine first. No local re-placement pass — nothing may be
  // re-admitted onto a machine leaving service — and probes are kept: they
  // are group knowledge in the shared registry, not state on the machine.
  for (const Evacuee& evacuee : evacuees) {
    source.Depart(evacuee.request.id, now, /*forget_probes=*/false, /*replace=*/false);
    machine_of_.erase(evacuee.request.id);
    // Off the domain map until it lands again (below or through Dispatch).
    domain_occupancy_.Remove(evacuee.request.id);
  }
  // The machine left the up-aggregates at SetAvailability; this keeps the
  // index's cached free count current for its eventual rejoin.
  capacity_index_.OnOccupancyChange(machine_id);

  EvacuationReport report;
  report.machine_id = machine_id;
  report.reason =
      graceful ? MachineAvailability::kDraining : MachineAvailability::kFailed;
  report.start_seconds = now;
  report.containers = static_cast<int>(evacuees.size());

  for (const Evacuee& evacuee : evacuees) {
    const ContainerRequest& request = evacuee.request;
    // Best target through the shared sharded gain-over-cost search
    // (FindBestTarget — the same capacity-index-guided path rebalance
    // uses), but the counterfactual is not-running (the source is leaving
    // service), so the whole predicted rate is the gain, for live evacuees
    // too. A graceful move of a live container pays the §7 migration
    // estimate plus the network copy of its memory image; a failed
    // machine's container lost its state — nothing to migrate or copy and
    // nothing it was producing, so the restart itself is free and the
    // damage shows up as lost goal attainment and queueing.
    TargetSearch search;
    search.request = &request;
    search.exclude_machine = machine_id;
    search.current_abs = evacuee.current_abs;
    search.goal_abs = evacuee.goal_abs;
    search.improvement_only = false;
    search.pay_migration = graceful && !evacuee.was_queued;
    search.was_queued = evacuee.was_queued;
    search.reason = graceful ? RebalanceMove::Reason::kDrain
                             : RebalanceMove::Reason::kFailover;
    RebalanceMove best_move;
    if (FindBestTarget(search, now, observer, &best_move) >= 0) {
      domain_occupancy_.Add(request.id, ServiceGroupOf(request.workload.name),
                            best_move.to_machine);
      CommitMove(request, best_move, now, observer);
      ++stats_.evacuation_moves;
      ++(graceful ? stats_.drain_moves : stats_.failover_moves);
      ++report.rehomed;
      report.last_landing_seconds =
          std::max(report.last_landing_seconds, best_move.move_seconds);
      report.move_seconds_total += best_move.move_seconds;
      report.network_seconds_total += best_move.network_seconds;
    } else {
      // No target is worth a live migration (none realizable, or the copy
      // costs more than the horizon returns): stop the container — dropping
      // its memory image instead of copying it — and send it back through
      // dispatch, where it restarts from scratch or waits. A running
      // evacuee is not waiting, so any wait Dispatch starts runs from the
      // disruption; a queued one keeps its original wait start. Dispatch
      // adds it to waiting_ only if it actually queues, so an instant
      // restart never counts as a queue admission.
      const FleetOutcome redispatched = Dispatch(request, now, observer);
      if (redispatched.outcome.admitted) {
        ++report.rehomed;  // restarted on another machine, state lost
      } else {
        ++stats_.evacuation_requeues;
        ++report.requeued;
      }
    }
  }

  ++stats_.evacuations;
  evacuations_.push_back(report);
  if (observer != nullptr) {
    observer->OnEvacuation(report, now);
  }
}

void FleetScheduler::DrainUnplaced(double now, EventObserver* observer) {
  // UnplacedIds is oldest-submission-first — the FIFO the machine queues
  // honor locally.
  for (int id : UnplacedIds()) {
    const ContainerRequest request = unplaced_.at(id);
    // Dispatch moves the container onto a machine (even just its queue)
    // whenever one is available again; otherwise it stays unplaced.
    Dispatch(request, now, observer);
  }
}

std::vector<int> FleetScheduler::SelectFleetOpTargets(const ContainerRequest& request,
                                                      int exclude_machine) const {
  const auto eligible = [&](int m) {
    const Machine& machine = machines_[static_cast<size_t>(m)];
    // The free-thread filter is sound on the full-scan path too: every
    // important placement realizes on exactly vcpus free hardware threads,
    // so a machine with fewer free threads can never preview realizable —
    // skipping it changes no decision, only saves the preview.
    return m != exclude_machine && availability(m) == MachineAvailability::kUp &&
           request.vcpus <= machine.topo->NumHwThreads() &&
           machine.scheduler->occupancy().FreeThreadCount() >= request.vcpus;
  };
  std::vector<int> targets;
  if (config_.fleet_probes > 0) {
    const std::vector<int> cells =
        capacity_index_.PromisingCells(request.vcpus, config_.fleet_probes);
    if (!cells.empty()) {
      for (int c : cells) {
        for (int m : capacity_index_.layout().cells[static_cast<size_t>(c)]) {
          if (eligible(m)) {
            targets.push_back(m);
          }
        }
      }
      // Ascending ids, so cell sampling only narrows the set the full scan
      // would consider — it never reorders ties.
      std::sort(targets.begin(), targets.end());
      return targets;
    }
    // The index proved no cell can fit the request right now. Fall through
    // to the full walk as a safety net: with a correct index the
    // per-machine filter rejects every machine, so this costs a scan but
    // zero previews and the sublinear preview bound stands.
  }
  for (int m = 0; m < NumMachines(); ++m) {
    if (eligible(m)) {
      targets.push_back(m);
    }
  }
  return targets;
}

int FleetScheduler::FindBestTarget(const TargetSearch& search, double now,
                                   EventObserver* observer, RebalanceMove* best_move) {
  const auto search_start = std::chrono::steady_clock::now();
  const ContainerRequest& request = *search.request;
  const bool rebalance = search.reason == RebalanceMove::Reason::kRebalance;
  int previews = 0;
  int best_target = -1;
  double best_score = 0.0;  // spread-discounted surplus the ranking compares
  for (int t : SelectFleetOpTargets(request, search.exclude_machine)) {
    // Spread dimension, mirrored from dispatch: a rack already holding
    // replicas of the mover's service group is discounted, and hard-skipped
    // past the cap (declining a move is always safe here — the container
    // stays where it is or falls back through Dispatch, where the cap is
    // soft). Checked before the preview, so capped racks also cost nothing.
    // A rebalance mover still occupies its source rack, so in-rack targets
    // see its own replica — the spread dimension deliberately prefers
    // moving it out. Both branches run on the indexed and full-scan target
    // paths alike, preserving their byte-identical equivalence.
    int colocated = 0;
    if (SpreadActive()) {
      colocated = RackColocation(request, t);
      if (config_.spread_max_per_rack > 0 && colocated >= config_.spread_max_per_rack) {
        continue;
      }
    }
    const Machine& target = machines_[static_cast<size_t>(t)];
    EnsureGroupProbes(target.group, request);
    const MachineScheduler::AdmissionPreview preview =
        target.scheduler->PreviewAdmission(request);
    ++previews;
    if (!preview.realizable) {
      continue;
    }
    double gain_rate = 0.0;
    if (search.improvement_only) {
      // A live incumbent only moves for a modeled, clearly better rate.
      if (preview.predicted_abs <=
          search.current_abs * (1.0 + config_.rebalance_min_gain)) {
        continue;
      }
      gain_rate = preview.predicted_abs - search.current_abs;
    } else {
      // Running anywhere beats waiting (or a source leaving service).
      // Under a model-free target policy the preview predicts nothing;
      // credit the operator goal instead.
      gain_rate = preview.predicted_abs > 0.0 ? preview.predicted_abs : search.goal_abs;
    }
    if (gain_rate <= 0.0) {
      continue;
    }
    // A container without live state (queued, or restarting off a failed
    // machine) moves for free; a live one pays the §7 migration estimate
    // plus the network copy of its memory image, and loses
    // overhead_fraction of its current rate for the whole copy.
    double move_seconds = 0.0;
    double network_seconds = 0.0;
    double cost_ops = 0.0;
    if (search.pay_migration) {
      const MigrationEstimate estimate = MigratorFor(request).Migrate(request.workload);
      network_seconds = kNetworkSecondsPerGb * request.workload.TotalMemoryGb();
      move_seconds = estimate.seconds + network_seconds;
      cost_ops = move_seconds * estimate.overhead_fraction * search.current_abs;
    }
    const double gain_ops = gain_rate * kRebalanceHorizonSeconds;
    if (gain_ops <= cost_ops) {
      continue;
    }
    const double surplus = gain_ops - cost_ops;
    const double score = surplus / (1.0 + config_.spread_weight * colocated);
    if (best_target < 0 || score > best_score) {
      best_target = t;
      best_score = score;
      best_move->container_id = request.id;
      best_move->from_machine = search.exclude_machine;
      best_move->to_machine = t;
      best_move->was_queued = search.was_queued;
      best_move->reason = search.reason;
      best_move->predicted_gain_ops = gain_ops;
      best_move->modeled_cost_ops = cost_ops;
      best_move->move_seconds = move_seconds;
      best_move->network_seconds = network_seconds;
    }
  }
  const double search_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - search_start)
          .count();
  stats_.fleet_op_search_seconds += search_seconds;
  ++(rebalance ? stats_.rebalance_decisions : stats_.evac_decisions);
  (rebalance ? stats_.rebalance_previews : stats_.evac_previews) += previews;
  if (observer != nullptr) {
    TargetSearchStats search_stats;
    search_stats.kind = rebalance ? TargetSearchStats::Kind::kRebalance
                                  : TargetSearchStats::Kind::kEvacuation;
    search_stats.previews = previews;
    search_stats.host_seconds = search_seconds;
    observer->OnTargetSearch(search_stats, now);
  }
  return best_target;
}

void FleetScheduler::CommitMove(const ContainerRequest& request, const RebalanceMove& move,
                                double now, EventObserver* observer) {
  const int target = move.to_machine;
  ScheduleOutcome moved =
      machines_[static_cast<size_t>(target)].scheduler->Submit(request, now);
  NP_CHECK_MSG(moved.admitted, ToString(move.reason)
                                   << " preview promised admission of container "
                                   << request.id << " on machine " << target);
  machine_of_[request.id] = target;
  capacity_index_.OnOccupancyChange(target);
  if (!moved.meets_goal) {
    capacity_index_.MarkCapacityChanged();  // the landing is a new mover
  }
  RecordAdmission(moved, now);
  stats_.cross_machine_move_seconds += move.move_seconds;
  stats_.network_copy_seconds += move.network_seconds;
  rebalance_log_.push_back(move);
  if (observer != nullptr) {
    observer->OnAdmission(target, moved, now);
    observer->OnMove(move, now);
  }
}

void FleetScheduler::RebalancePass(double now, EventObserver* observer) {
  if (!capacity_index_.capacity_dirty()) {
    // Nothing capacity-relevant changed since the last pass: re-running it
    // would reproduce its decisions. Skip — zero previews, zero dispatches.
    ++stats_.rebalance_passes_skipped;
    return;
  }
  // Consume the flag up front: anything this pass itself changes (moves,
  // freed capacity, new waiters) re-sets it, so the next trigger runs
  // another pass, until a pass changes nothing.
  capacity_index_.ClearCapacityDirty();
  ++stats_.rebalance_passes;
  DrainUnplaced(now, observer);
  if (machines_.size() < 2) {
    return;
  }
  struct Mover {
    int id = 0;
    int from = 0;
    bool queued = false;
    double wait_start = 0.0;  // the sort key of a queued mover
  };
  // Queued containers first (longest waiting first, fleet-wide — the FIFO
  // the per-machine queues honor locally), then degraded incumbents.
  std::vector<Mover> movers;
  for (int m = 0; m < NumMachines(); ++m) {
    for (int id : machines_[static_cast<size_t>(m)].scheduler->PendingIds()) {
      movers.push_back({id, m, true, waiting_.at(id)});
    }
  }
  std::stable_sort(movers.begin(), movers.end(), [](const Mover& a, const Mover& b) {
    return a.wait_start < b.wait_start;
  });
  for (int m = 0; m < NumMachines(); ++m) {
    for (int id : machines_[static_cast<size_t>(m)].scheduler->RunningIds()) {
      const ManagedContainer* c = machines_[static_cast<size_t>(m)].scheduler->Find(id);
      if (!c->meets_goal && c->predicted_abs_throughput > 0.0) {
        movers.push_back({id, m, false, 0.0});
      }
    }
  }

  for (const Mover& mover : movers) {
    // Re-check: an earlier move's source re-placement pass may have already
    // admitted or upgraded this container.
    if (MachineOf(mover.id) != mover.from) {
      continue;
    }
    MachineScheduler& source = *machines_[static_cast<size_t>(mover.from)].scheduler;
    const ManagedContainer* managed = source.Find(mover.id);
    if (managed == nullptr ||
        (mover.queued ? managed->state != ContainerState::kPending
                      : managed->state != ContainerState::kRunning || managed->meets_goal)) {
      continue;
    }
    const ContainerRequest request = managed->request;
    const double current_abs = mover.queued ? 0.0 : managed->predicted_abs_throughput;

    // Best target through the shared sharded gain-over-cost search. A
    // queued mover never ran — no memory on the source, nothing it was
    // producing — so the move is free and any realizable placement gains;
    // a live incumbent is min-gain gated and pays the migration model.
    TargetSearch search;
    search.request = &request;
    search.exclude_machine = mover.from;
    search.current_abs = current_abs;
    search.goal_abs = managed->goal_abs_throughput;
    search.improvement_only = !mover.queued;
    search.pay_migration = !mover.queued;
    search.was_queued = mover.queued;
    search.reason = RebalanceMove::Reason::kRebalance;
    RebalanceMove best_move;
    if (FindBestTarget(search, now, observer, &best_move) < 0) {
      continue;
    }

    // Commit: free the container on the source (keeping its probes — they
    // travel with it when the target shares the topology group), then admit
    // it on the target the preview vouched for.
    std::vector<ScheduleOutcome> freed =
        source.Depart(mover.id, now, /*forget_probes=*/false);
    capacity_index_.OnOccupancyChange(mover.from);
    if (!freed.empty()) {
      capacity_index_.MarkCapacityChanged();
    }
    for (const ScheduleOutcome& outcome : freed) {
      RecordAdmission(outcome, now);
      if (observer != nullptr) {
        observer->OnAdmission(mover.from, outcome, now);
      }
    }
    domain_occupancy_.Move(mover.id, best_move.to_machine);
    CommitMove(request, best_move, now, observer);
    ++stats_.rebalance_moves;
  }
}

void FleetScheduler::Step(const FleetEvent& event, EventObserver* observer) {
  const double now = event.time_seconds;
  if (const ContainerArrival* arrival = event.arrival()) {
    Submit(RequestFromArrival(*arrival), now, observer);
    return;
  }
  if (const ContainerDeparture* departure = event.departure()) {
    Depart(departure->container_id, now, observer);
    return;
  }
  NP_CHECK_MSG(event.domain_scope() == DomainScope::kMachine,
               ToString(event.domain_scope())
                   << "-scoped " << ToString(event.kind()) << " at t=" << now
                   << " reached Step() unexpanded — inject it through "
                      "InjectMachineEvents(stream, events, fleet.domains())");
  switch (event.kind()) {
    case FleetEventKind::kMachineFail:
      Fail(event.machine_id(), now, observer);
      return;
    case FleetEventKind::kMachineDrain:
      Drain(event.machine_id(), now, observer);
      return;
    case FleetEventKind::kMachineRejoin:
      Rejoin(event.machine_id(), now, observer);
      return;
    default:
      NP_CHECK_MSG(false, "unhandled event kind " << ToString(event.kind()));
  }
}

void FleetScheduler::Replay(const EventStream& trace, EventObserver* observer) {
  for (const FleetEvent& event : trace) {
    Step(event, observer);
  }
}

int FleetScheduler::MachineOf(int container_id) const {
  const auto it = machine_of_.find(container_id);
  return it == machine_of_.end() ? kNoMachine : it->second;
}

std::vector<int> FleetScheduler::UnplacedIds() const {
  std::vector<int> ids;
  ids.reserve(unplaced_.size());
  for (const auto& [id, request] : unplaced_) {
    ids.push_back(id);
  }
  std::stable_sort(ids.begin(), ids.end(),
                   [&](int a, int b) { return waiting_.at(a) < waiting_.at(b); });
  return ids;
}

std::vector<double> FleetScheduler::TimeAveragedUtilizations() const {
  std::vector<double> utilizations;
  utilizations.reserve(machines_.size());
  for (const Machine& machine : machines_) {
    utilizations.push_back(machine.scheduler->TimeAveragedUtilization());
  }
  return utilizations;
}

FleetReport FleetScheduler::ReplayWithEvaluation(const EventStream& trace,
                                                 EventObserver* observer,
                                                 ReplaySampler* sampler) {
  FleetReport report;
  AdmissionCounter counter(observer);
  TenantSnapshotCache snapshots(machines_.size());
  double last_time = 0.0;
  double attainment_weight = 0.0;
  double at_goal_weight = 0.0;
  double container_seconds = 0.0;
  // Per-tier parallel accumulators (admission runs only): fed from the same
  // snapshots as the aggregate integrals but kept in separate variables, so
  // the aggregate's accumulation order — and an admission-off replay — is
  // arithmetically untouched.
  std::array<double, kNumSloTiers> tier_attainment{};
  std::array<double, kNumSloTiers> tier_seconds{};
  const auto tier_index = [this](int container_id) {
    return static_cast<size_t>(ContainerTier(container_id));
  };
  // Next snapshot instant; the first sample lands at one full interval.
  double next_sample = sampler != nullptr ? sampler->IntervalSeconds() : 0.0;

  for (const FleetEvent& event : trace) {
    const double dt = event.time_seconds - last_time;
    if (dt > 0.0) {
      // The tenant set is constant over (last_time, event.time], so the
      // integrals grow linearly across the interval. The sampler needs the
      // per-second rates to interpolate at snapshot instants; the report
      // integrals keep their original per-tenant accumulation order so a
      // sampler-free replay is arithmetically untouched.
      const double base_attainment = attainment_weight;
      const double base_at_goal = at_goal_weight;
      const double base_container = container_seconds;
      double ratio_rate = 0.0;
      double at_goal_rate = 0.0;
      double container_rate = 0.0;
      // Only machines whose tenants changed since the last interval are
      // re-evaluated; the fold still walks every tenant in machine order.
      for (size_t mi = 0; mi < machines_.size(); ++mi) {
        const Machine& machine = machines_[mi];
        for (const MachineScheduler::TenantSnapshot& snap :
             snapshots.Get(mi, *machine.scheduler, *machine.multi)) {
          const double ratio =
              snap.goal_abs_throughput > 0.0
                  ? std::min(1.0, snap.measured_abs_throughput / snap.goal_abs_throughput)
                  : 1.0;
          attainment_weight += ratio * dt;
          ratio_rate += ratio;
          if (ratio >= 0.999) {
            at_goal_weight += dt;
            at_goal_rate += 1.0;
          }
          container_seconds += dt;
          container_rate += 1.0;
          if (AdmissionActive()) {
            const size_t t = tier_index(snap.container_id);
            tier_attainment[t] += ratio * dt;
            tier_seconds[t] += dt;
          }
        }
        // A queued container attains nothing while it waits.
        const std::vector<int>& pending_ids = machine.scheduler->PendingIds();
        const double pending = static_cast<double>(pending_ids.size());
        container_seconds += pending * dt;
        container_rate += pending;
        if (AdmissionActive()) {
          for (const int id : pending_ids) {
            tier_seconds[tier_index(id)] += dt;
          }
        }
      }
      // Neither does one waiting fleet-wide for an available machine.
      container_seconds += static_cast<double>(unplaced_.size()) * dt;
      container_rate += static_cast<double>(unplaced_.size());
      if (AdmissionActive()) {
        for (const auto& [id, request] : unplaced_) {
          tier_seconds[tier_index(id)] += dt;
        }
      }

      // Snapshots due inside this interval see the fleet as it stood after
      // the previous event (a sample at exactly event time is pre-event).
      while (sampler != nullptr && next_sample <= event.time_seconds) {
        const double part = next_sample - last_time;
        const double cs = base_container + container_rate * part;
        sampler->Sample(next_sample,
                        cs > 0.0 ? (base_attainment + ratio_rate * part) / cs : 1.0,
                        cs > 0.0 ? (base_at_goal + at_goal_rate * part) / cs : 1.0);
        next_sample += sampler->IntervalSeconds();
      }
      last_time = event.time_seconds;
    }

    const auto start = std::chrono::steady_clock::now();
    Step(event, &counter);
    report.wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  report.decisions = counter.admissions;
  for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
    report.tier_container_seconds[t] = tier_seconds[t];
    report.tier_goal_attainment[t] =
        tier_seconds[t] > 0.0 ? tier_attainment[t] / tier_seconds[t] : 1.0;
  }
  report.goal_attainment =
      container_seconds > 0.0 ? attainment_weight / container_seconds : 1.0;
  report.container_seconds_at_goal =
      container_seconds > 0.0 ? at_goal_weight / container_seconds : 1.0;
  report.machine_utilizations = TimeAveragedUtilizations();
  double busy_weight = 0.0;
  double thread_weight = 0.0;
  report.utilization_min = 1.0;
  report.utilization_max = 0.0;
  for (size_t m = 0; m < machines_.size(); ++m) {
    const double threads = machines_[m].topo->NumHwThreads();
    busy_weight += report.machine_utilizations[m] * threads;
    thread_weight += threads;
    report.utilization_min = std::min(report.utilization_min, report.machine_utilizations[m]);
    report.utilization_max = std::max(report.utilization_max, report.machine_utilizations[m]);
  }
  report.mean_utilization = thread_weight > 0.0 ? busy_weight / thread_weight : 0.0;
  report.mean_queue_wait_seconds =
      stats_.queue_admissions > 0
          ? stats_.queue_wait_seconds / stats_.queue_admissions
          : 0.0;
  return report;
}

}  // namespace numaplace
