#include "src/scheduler/scheduler.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>

#include "src/util/check.h"

namespace numaplace {

namespace {

std::string DescribePlacement(const ImportantPlacement& ip) {
  std::ostringstream os;
  os << "placement #" << ip.id << " (" << ip.NodeCount() << " nodes, "
     << (ip.shares_l2 ? "shared L2" : "private L2") << ")";
  return os.str();
}

size_t IndexOf(const std::vector<int>& placement_ids, int id) {
  for (size_t i = 0; i < placement_ids.size(); ++i) {
    if (placement_ids[i] == id) {
      return i;
    }
  }
  NP_CHECK_MSG(false, "placement id " << id << " not in the model's output order");
  __builtin_unreachable();
}

// Position of placement `id` in ips.placements.
size_t PlacementIndex(const ImportantPlacementSet& ips, int id) {
  return static_cast<size_t>(&ips.ById(id) - ips.placements.data());
}

}  // namespace

ContainerRequest RequestFromArrival(const ContainerArrival& arrival) {
  ContainerRequest request;
  request.id = arrival.container_id;
  request.workload = arrival.workload;
  request.vcpus = arrival.vcpus;
  request.goal_fraction = arrival.goal_fraction;
  request.latency_sensitive = arrival.latency_sensitive;
  return request;
}

MachineScheduler::MachineScheduler(const Topology& topo, const PerformanceModel& solo_sim,
                                   ModelRegistry* registry, SchedulerConfig config)
    : MachineScheduler(topo, solo_sim, registry, config, MakePolicy(config.policy)) {}

MachineScheduler::MachineScheduler(const Topology& topo, const PerformanceModel& solo_sim,
                                   ModelRegistry* registry, SchedulerConfig config,
                                   std::unique_ptr<SchedulingPolicy> policy)
    : topo_(&topo),
      solo_sim_(&solo_sim),
      registry_(registry),
      config_(std::move(config)),
      policy_(std::move(policy)),
      occupancy_(topo),
      fast_migrator_(),
      throttled_migrator_() {
  NP_CHECK(registry_ != nullptr);
  NP_CHECK(policy_ != nullptr);
  NP_CHECK(config_.probe_seconds > 0.0);
  NP_CHECK(&solo_sim.topology() == &topo);
}

void MachineScheduler::ProvidePlacements(const ImportantPlacementSet& ips) {
  NP_CHECK(ips.vcpus > 0);
  sizes_.insert_or_assign(ips.vcpus, SizeState(ips));
}

MachineScheduler::SizeState& MachineScheduler::StateFor(int vcpus) const {
  const auto it = sizes_.find(vcpus);
  if (it != sizes_.end()) {
    return it->second;
  }
  return sizes_
      .emplace(vcpus, SizeState(GenerateImportantPlacements(
                          *topo_, vcpus, config_.use_interconnect_concern)))
      .first->second;
}

const ImportantPlacementSet& MachineScheduler::PlacementsFor(int vcpus) const {
  return StateFor(vcpus).ips;
}

const std::optional<Placement>& MachineScheduler::Realized(SizeState& size,
                                                           size_t index) const {
  SizeState::Slot& slot = size.realized.at(index);
  if (!slot.filled || slot.generation != occupancy_.Generation()) {
    slot.placement =
        RealizeAnywhereFree(size.ips.placements[index], *topo_, size.ips.vcpus, occupancy_);
    slot.generation = occupancy_.Generation();
    slot.filled = true;
  }
  return slot.placement;
}

const std::optional<Placement>& MachineScheduler::RealizedOnFreeThreads(
    int vcpus, int placement_id) const {
  SizeState& size = StateFor(vcpus);
  return Realized(size, PlacementIndex(size.ips, placement_id));
}

const TrainedPerfModel& MachineScheduler::ModelOf(SizeState& size) const {
  if (size.model == nullptr) {
    const TrainedPerfModel& model = registry_->Get(topo_->name(), size.ips.vcpus);
    size.model_index.clear();
    size.node_counts.clear();
    for (const int id : model.placement_ids) {
      const size_t index = PlacementIndex(size.ips, id);
      size.model_index.push_back(index);
      size.node_counts.push_back(size.ips.placements[index].NodeCount());
    }
    size.model = &model;
  }
  return *size.model;
}

const Migrator& MachineScheduler::MigratorFor(const ContainerRequest& request) const {
  return request.latency_sensitive ? static_cast<const Migrator&>(throttled_migrator_)
                                   : static_cast<const Migrator&>(fast_migrator_);
}

void MachineScheduler::AdvanceClock(double now) {
  NP_CHECK_MSG(now >= stats_.last_event_seconds - 1e-9,
               "events must be submitted in time order");
  const double dt = std::max(0.0, now - stats_.last_event_seconds);
  stats_.busy_thread_seconds += occupancy_.BusyThreadCount() * dt;
  stats_.last_event_seconds = std::max(stats_.last_event_seconds, now);
}

double MachineScheduler::BaselineAbsThroughput(const ContainerRequest& request) const {
  const ImportantPlacementSet& ips = PlacementsFor(request.vcpus);
  const ImportantPlacement& baseline = ips.ById(config_.baseline_id);
  const Placement realized = Realize(baseline, *topo_, request.vcpus);
  // Run 0: a fixed noise draw, so the goal is a stable per-workload constant.
  return solo_sim_->Evaluate(request.workload, realized, /*run=*/0).throughput_ops;
}

PolicyContext MachineScheduler::MakePolicyContext(
    const ImportantPlacementSet& ips, const OccupancyMap& occupancy, int vcpus,
    const std::vector<int>& placement_ids, const std::vector<double>& predicted_abs,
    double goal_abs) const {
  PolicyContext ctx;
  ctx.topo = topo_;
  ctx.ips = &ips;
  ctx.occupancy = &occupancy;
  ctx.vcpus = vcpus;
  ctx.placement_ids = &placement_ids;
  ctx.predicted_abs = &predicted_abs;
  ctx.goal_abs = goal_abs;
  ctx.fallback_slack = config_.fallback_slack;
  return ctx;
}

RankedView MachineScheduler::RankAfresh(const ContainerRequest& request, SizeState& size,
                                        const CachedPrediction& cached) const {
  const TrainedPerfModel& model = ModelOf(size);
  RankedView view;
  view.model = &model;
  view.baseline_id = config_.baseline_id;
  view.goal_fraction = request.goal_fraction;
  view.fallback_slack = config_.fallback_slack;
  view.node_counts = size.node_counts;
  view.placement_ids = model.placement_ids;
  const size_t index_a = IndexOf(view.placement_ids, cached.input_a);
  const size_t index_baseline = IndexOf(view.placement_ids, config_.baseline_id);
  NP_CHECK(cached.predicted_relative[index_a] > 0.0);
  const double abs_unit = cached.perf_a / cached.predicted_relative[index_a];
  view.predicted_abs.reserve(view.placement_ids.size());
  for (double rel : cached.predicted_relative) {
    view.predicted_abs.push_back(abs_unit * rel);
  }
  view.decision_goal = request.goal_fraction * abs_unit *
                       cached.predicted_relative[index_baseline];
  // A policy that uses the model ranks from the prediction alone (the
  // RankForAdmission contract): the occupancy RankInto hands over is never
  // read.
  RankInto(request, size, view);
  return view;
}

void MachineScheduler::RankInto(const ContainerRequest& request, const SizeState& size,
                                RankedView& view) const {
  view.order = policy_->RankForAdmission(
      MakePolicyContext(size.ips, occupancy_, request.vcpus, view.placement_ids,
                        view.predicted_abs, view.decision_goal));
  for (const size_t idx : view.order) {
    NP_CHECK_MSG(idx < view.placement_ids.size(),
                 "policy '" << policy_->name() << "' ranked candidate index " << idx
                            << " out of range");
  }
}

const RankedView& MachineScheduler::RankedViewOf(const ContainerRequest& request,
                                                 SizeState& size) const {
  ModelRegistry::Entry* entry = registry_->FindEntry(request.id);
  NP_CHECK_MSG(entry != nullptr, "container " << request.id
                                              << " has no cached probes under a model "
                                                 "policy — call EnsureProbes first");
  const TrainedPerfModel& model = ModelOf(size);
  RankedView& view = entry->view;
  if (view.model != &model || view.baseline_id != config_.baseline_id ||
      view.goal_fraction != request.goal_fraction ||
      view.fallback_slack != config_.fallback_slack || view.node_counts != size.node_counts) {
    view = RankAfresh(request, size, entry->prediction);
  }
  return view;
}

const RankedView& MachineScheduler::RankedViewFor(const ContainerRequest& request) const {
  NP_CHECK_MSG(policy_->UsesModel(), "policy '" << policy_->name() << "' has no ranked view");
  return RankedViewOf(request, StateFor(request.vcpus));
}

RankedView MachineScheduler::BuildRankedView(const ContainerRequest& request) const {
  NP_CHECK_MSG(policy_->UsesModel(), "policy '" << policy_->name() << "' has no ranked view");
  const CachedPrediction* cached = registry_->FindPrediction(request.id);
  NP_CHECK_MSG(cached != nullptr, "container " << request.id << " has no cached probes");
  return RankAfresh(request, StateFor(request.vcpus), *cached);
}

const RankedView& MachineScheduler::AdmissionCandidates(const ContainerRequest& request,
                                                        SizeState& size,
                                                        RankedView& scratch) const {
  if (policy_->UsesModel()) {
    return RankedViewOf(request, size);
  }
  ModelFreeCandidates(size.ips, scratch.placement_ids, scratch.predicted_abs);
  RankInto(request, size, scratch);
  return scratch;
}

size_t MachineScheduler::SetIndex(const SizeState& size, size_t candidate) const {
  // Model-free candidates are the whole set in set order.
  return policy_->UsesModel() ? size.model_index[candidate] : candidate;
}

std::optional<size_t> MachineScheduler::FirstRealizable(const ContainerRequest& request,
                                                        const RankedView& view,
                                                        SizeState& size) const {
  if (occupancy_.FreeThreadCount() < request.vcpus) {
    return std::nullopt;
  }
  for (const size_t idx : view.order) {
    if (Realized(size, SetIndex(size, idx)).has_value()) {
      return idx;
    }
  }
  return std::nullopt;
}

MachineScheduler::ProbeCharge MachineScheduler::EnsureProbes(
    const ContainerRequest& request) {
  ProbeCharge charge;
  if (!policy_->UsesModel() || registry_->FindPrediction(request.id) != nullptr) {
    return charge;
  }
  SizeState& size = StateFor(request.vcpus);
  const ImportantPlacementSet& ips = size.ips;
  const TrainedPerfModel& model = ModelOf(size);
  const auto add_event = [&](double duration, const std::string& what) {
    charge.timeline.push_back({charge.seconds, duration, what});
    charge.seconds += duration;
  };
  // Probe measurements are solo-machine properties of the workload — the
  // same quantities the training pipeline measured — so they are taken on
  // the canonical realization of the probe placements.
  const ImportantPlacement& ip_a = ips.ById(model.input_a);
  const ImportantPlacement& ip_b = ips.ById(model.input_b);
  add_event(config_.probe_seconds, "probe in " + DescribePlacement(ip_a));
  const double perf_a =
      solo_sim_->Evaluate(request.workload, Realize(ip_a, *topo_, request.vcpus),
                          /*run=*/41)
          .throughput_ops;
  if (ip_a.nodes != ip_b.nodes) {
    const MigrationEstimate m = MigratorFor(request).Migrate(request.workload);
    add_event(m.seconds, "migrate memory to " + DescribePlacement(ip_b) + " (" +
                             MigratorFor(request).name() + ")");
  }
  add_event(config_.probe_seconds, "probe in " + DescribePlacement(ip_b));
  const double perf_b =
      solo_sim_->Evaluate(request.workload, Realize(ip_b, *topo_, request.vcpus),
                          /*run=*/42)
          .throughput_ops;
  stats_.probe_runs += 2;
  registry_->Predict(request.id, topo_->name(), request.vcpus, perf_a, perf_b);
  charge.ran = true;
  charge.memory_nodes = ip_b.nodes;  // memory sits where probe B ran
  return charge;
}

MachineScheduler::AdmissionPreview MachineScheduler::PreviewAdmission(
    const ContainerRequest& request) const {
  NP_CHECK(request.vcpus > 0);
  SizeState& size = StateFor(request.vcpus);
  RankedView scratch;
  const RankedView& view = AdmissionCandidates(request, size, scratch);
  AdmissionPreview preview;
  preview.goal_abs = view.decision_goal;
  if (const std::optional<size_t> idx = FirstRealizable(request, view, size)) {
    preview.realizable = true;
    preview.placement_id = view.placement_ids[*idx];
    preview.predicted_abs = view.predicted_abs[*idx];
    preview.meets_goal = policy_->UsesModel() && view.predicted_abs[*idx] >= view.decision_goal;
  }
  return preview;
}

ScheduleOutcome MachineScheduler::TryPlace(ManagedContainer& container, double now) {
  NP_CHECK(container.state == ContainerState::kPending);
  const ContainerRequest& request = container.request;
  SizeState& size = StateFor(request.vcpus);
  const ImportantPlacementSet& ips = size.ips;

  ScheduleOutcome outcome;
  outcome.container_id = request.id;
  outcome.goal_abs_throughput = container.goal_abs_throughput;
  double clock = 0.0;
  const auto add_event = [&](double duration, const std::string& what) {
    outcome.timeline.push_back({clock, duration, what});
    clock += duration;
  };

  bool from_cache = false;
  if (policy_->UsesModel()) {
    if (registry_->FindPrediction(request.id) == nullptr) {
      const ProbeCharge charge = EnsureProbes(request);
      for (const TimelineEvent& event : charge.timeline) {
        outcome.timeline.push_back(
            {clock + event.start_seconds, event.duration_seconds, event.description});
      }
      clock += charge.seconds;
      container.memory_nodes = charge.memory_nodes;
      NP_CHECK(registry_->FindPrediction(request.id) != nullptr);
    } else {
      // Probes were paid earlier — an admission retry on this machine, or a
      // fleet dispatch/rebalance probe on a machine of the same topology
      // group sharing this registry. When the container never ran here,
      // memory_nodes stays empty: its memory lands wherever the first
      // placement puts it, with no intra-machine migration charge.
      from_cache = true;
    }
  }

  RankedView scratch;
  const RankedView& view = AdmissionCandidates(request, size, scratch);
  const std::optional<size_t> chosen = FirstRealizable(request, view, size);
  if (!chosen.has_value()) {
    // Nothing realizable under the current occupancy: the container stays
    // pending (its probes, if any, are cached for the admission retry).
    outcome.decision_seconds = clock;
    return outcome;
  }
  const size_t idx = *chosen;
  const size_t index = SetIndex(size, idx);
  const ImportantPlacement& ip = ips.placements[index];
  // The memo slot FirstRealizable just read. Acquire below makes it stale
  // but leaves its contents alone, so the reference stays good for the rest
  // of the commit.
  const std::optional<Placement>& realized = Realized(size, index);
  const double predicted_abs = view.predicted_abs[idx];

  const NodeSet new_nodes = realized->NodesUsed(*topo_);
  if (!container.memory_nodes.empty() && container.memory_nodes != new_nodes) {
    const MigrationEstimate m = MigratorFor(request).Migrate(request.workload);
    add_event(m.seconds, "migrate memory to final " + DescribePlacement(ip) + " (" +
                             MigratorFor(request).name() + ")");
  } else {
    add_event(0.0, "final " + DescribePlacement(ip) + " (no migration needed)");
  }

  occupancy_.Acquire(request.id, *realized);
  running_.insert(request.id);
  ++tenant_generation_;
  container.state = ContainerState::kRunning;
  container.placement_id = ip.id;
  container.placement = *realized;
  container.memory_nodes = new_nodes;
  container.predicted_abs_throughput = predicted_abs;
  container.meets_goal = policy_->UsesModel() && predicted_abs >= view.decision_goal;
  container.placed_seconds = now + clock;

  outcome.admitted = true;
  outcome.placement_id = ip.id;
  outcome.placement = *realized;
  outcome.predicted_abs_throughput = predicted_abs;
  outcome.meets_goal = container.meets_goal;
  outcome.decision_seconds = clock;
  // Only a committed decision counts as a cache hit; a failed admission
  // retry consumed nothing.
  outcome.reused_cached_probes = from_cache;
  if (from_cache) {
    ++stats_.cached_probe_reuses;
  }
  return outcome;
}

ScheduleOutcome MachineScheduler::Submit(const ContainerRequest& request, double now) {
  NP_CHECK(request.id >= 0);
  NP_CHECK(request.vcpus > 0);
  NP_CHECK_MSG(request.vcpus <= topo_->NumHwThreads(),
               "container larger than the machine");
  NP_CHECK(request.goal_fraction > 0.0);
  const auto it = containers_.find(request.id);
  NP_CHECK_MSG(it == containers_.end() || it->second.state == ContainerState::kDeparted,
               "container id " << request.id << " is already live");

  AdvanceClock(now);
  ++stats_.submitted;

  ManagedContainer container;
  container.request = request;
  container.submit_seconds = now;
  container.goal_abs_throughput = request.goal_fraction * BaselineAbsThroughput(request);
  ManagedContainer& stored = containers_.insert_or_assign(request.id, container).first->second;

  ScheduleOutcome outcome = TryPlace(stored, now);
  if (outcome.admitted) {
    ++stats_.admitted_immediately;
  } else {
    pending_.push_back(request.id);
    ++stats_.queued;
  }
  return outcome;
}

std::vector<ScheduleOutcome> MachineScheduler::Depart(int container_id, double now,
                                                      bool forget_probes, bool replace) {
  AdvanceClock(now);
  const auto it = containers_.find(container_id);
  NP_CHECK_MSG(it != containers_.end(), "unknown container " << container_id);
  ManagedContainer& container = it->second;
  NP_CHECK_MSG(container.state != ContainerState::kDeparted,
               "container " << container_id << " departed twice");

  if (container.state == ContainerState::kRunning) {
    occupancy_.Release(container_id);
    running_.erase(container_id);
    ++tenant_generation_;
  } else {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), container_id),
                   pending_.end());
  }
  container.state = ContainerState::kDeparted;
  ++stats_.departed;
  if (forget_probes) {
    registry_->Forget(container_id);
  }

  if (!replace) {
    return {};
  }
  return ReplacementPass(now);
}

std::vector<ScheduleOutcome> MachineScheduler::ReplacementPass(double now) {
  std::vector<ScheduleOutcome> outcomes;

  // Queue admission, FIFO by submit order.
  std::vector<int> still_pending;
  for (int id : pending_) {
    ManagedContainer& container = containers_.at(id);
    ScheduleOutcome outcome = TryPlace(container, now);
    if (outcome.admitted) {
      ++stats_.admitted_from_queue;
      outcomes.push_back(std::move(outcome));
    } else {
      still_pending.push_back(id);
    }
  }
  pending_ = std::move(still_pending);

  // Upgrade degraded incumbents. Policies that never upgrade (the default)
  // skip the per-incumbent search outright; upgrading policies without the
  // model see zero predictions and a zero goal, exactly as at admission.
  if (!policy_->Upgrades()) {
    return outcomes;
  }
  // An upgrade moves a running container without changing who runs, so the
  // live set is stable under this walk.
  for (const int id : running_) {
    ManagedContainer& container = containers_.at(id);
    if (container.meets_goal) {
      continue;
    }
    SizeState& size = StateFor(container.request.vcpus);
    const ImportantPlacementSet& ips = size.ips;
    RankedView model_free;
    if (!policy_->UsesModel()) {
      ModelFreeCandidates(ips, model_free.placement_ids, model_free.predicted_abs);
    }
    const RankedView& view =
        policy_->UsesModel() ? RankedViewOf(container.request, size) : model_free;
    const std::vector<int>& placement_ids = view.placement_ids;
    const std::vector<double>& predicted_abs = view.predicted_abs;
    const double decision_goal = view.decision_goal;

    // Search with the container's own threads treated as free: it can move
    // onto any mix of its current and newly freed threads.
    OccupancyMap scratch = occupancy_;
    scratch.Release(id);
    const PolicyContext ctx = MakePolicyContext(ips, scratch, container.request.vcpus,
                                                placement_ids, predicted_abs,
                                                decision_goal);
    UpgradeState incumbent;
    incumbent.current_placement_id = container.placement_id;
    incumbent.current_predicted_abs = container.predicted_abs_throughput;
    incumbent.meets_goal = container.meets_goal;
    incumbent.upgrade_margin = config_.upgrade_margin;
    const std::vector<size_t> proposals = policy_->ProposeUpgrades(ctx, incumbent);
    for (size_t idx : proposals) {
      NP_CHECK_MSG(idx < placement_ids.size(),
                   "policy '" << policy_->name() << "' proposed upgrade index " << idx
                              << " out of range");
      const ImportantPlacement& ip = ips.ById(placement_ids[idx]);
      // A proposal of the incumbent's own class is never an upgrade, whatever
      // the policy claims: committing it would re-realize the class on other
      // threads and charge a pointless migration.
      if (ip.id == container.placement_id) {
        continue;
      }
      const bool cand_meets =
          policy_->UsesModel() && predicted_abs[idx] >= decision_goal;
      const std::optional<Placement> realized =
          RealizeAnywhereFree(ip, *topo_, container.request.vcpus, scratch);
      if (!realized.has_value()) {
        continue;
      }

      ScheduleOutcome outcome;
      outcome.container_id = id;
      outcome.admitted = true;
      outcome.goal_abs_throughput = container.goal_abs_throughput;
      // A model-driven re-place is served from the prediction cache; a
      // structural one never probed.
      if (policy_->UsesModel()) {
        outcome.reused_cached_probes = true;
        ++stats_.cached_probe_reuses;
      }
      // Memory follows only when the node set changes; a same-node upgrade
      // (different cache-sharing class) is a cheap vCPU remap.
      const NodeSet new_nodes = realized->NodesUsed(*topo_);
      if (container.memory_nodes != new_nodes) {
        const MigrationEstimate m =
            MigratorFor(container.request).Migrate(container.request.workload);
        outcome.timeline.push_back({0.0, m.seconds,
                                    "re-place to " + DescribePlacement(ip) + " (" +
                                        MigratorFor(container.request).name() + ")"});
        outcome.decision_seconds = m.seconds;
      } else {
        outcome.timeline.push_back(
            {0.0, 0.0, "re-place to " + DescribePlacement(ip) + " (no migration needed)"});
      }

      occupancy_.Release(id);
      occupancy_.Acquire(id, *realized);
      ++tenant_generation_;
      container.placement_id = ip.id;
      container.placement = *realized;
      container.memory_nodes = new_nodes;
      container.predicted_abs_throughput = predicted_abs[idx];
      container.meets_goal = cand_meets;
      container.placed_seconds = now + outcome.decision_seconds;
      ++container.replacements;
      ++stats_.upgrades;

      outcome.placement_id = ip.id;
      outcome.placement = *realized;
      outcome.predicted_abs_throughput = predicted_abs[idx];
      outcome.meets_goal = cand_meets;
      outcomes.push_back(std::move(outcome));
      break;
    }
  }
  return outcomes;
}

void MachineScheduler::Step(const FleetEvent& event, EventObserver* observer) {
  if (const ContainerArrival* arrival = event.arrival()) {
    const ScheduleOutcome outcome =
        Submit(RequestFromArrival(*arrival), event.time_seconds);
    if (observer != nullptr) {
      if (outcome.admitted) {
        observer->OnAdmission(0, outcome, event.time_seconds);
      } else {
        observer->OnQueued(0, outcome, event.time_seconds);
      }
    }
    return;
  }
  if (const ContainerDeparture* departure = event.departure()) {
    const std::vector<ScheduleOutcome> replaced =
        Depart(departure->container_id, event.time_seconds);
    if (observer != nullptr) {
      observer->OnDeparture(0, departure->container_id, event.time_seconds);
      // Everything the re-placement pass reports is a committed placement or
      // upgrade.
      for (const ScheduleOutcome& outcome : replaced) {
        observer->OnAdmission(0, outcome, event.time_seconds);
      }
    }
    return;
  }
  NP_CHECK_MSG(false, ToString(event.kind())
                          << " event at t=" << event.time_seconds
                          << " addresses a fleet — a single MachineScheduler has "
                             "no machine namespace; route it through "
                             "FleetScheduler::Step");
}

void MachineScheduler::Replay(const EventStream& trace, EventObserver* observer) {
  for (const FleetEvent& event : trace) {
    Step(event, observer);
  }
}

const ManagedContainer* MachineScheduler::Find(int container_id) const {
  const auto it = containers_.find(container_id);
  return it == containers_.end() ? nullptr : &it->second;
}

std::vector<int> MachineScheduler::RunningIds() const {
  return std::vector<int>(running_.begin(), running_.end());
}

double MachineScheduler::TimeAveragedUtilization() const {
  if (stats_.last_event_seconds <= 0.0) {
    return occupancy_.Utilization();
  }
  return stats_.busy_thread_seconds /
         (static_cast<double>(topo_->NumHwThreads()) * stats_.last_event_seconds);
}

std::vector<MachineScheduler::TenantSnapshot> MachineScheduler::SnapshotPerformance(
    const MultiTenantModel& multi) const {
  if (running_.empty()) {
    return {};
  }
  std::vector<MultiTenantModel::Tenant> tenants;
  tenants.reserve(running_.size());
  for (const int id : running_) {
    const ManagedContainer& container = containers_.at(id);
    tenants.push_back({&container.request.workload, container.placement});
  }
  const std::vector<PerfResult> results = multi.Evaluate(tenants);
  std::vector<TenantSnapshot> out;
  out.reserve(running_.size());
  size_t i = 0;
  for (const int id : running_) {
    out.push_back({id, results[i++].throughput_ops, containers_.at(id).goal_abs_throughput});
  }
  return out;
}

const std::vector<MachineScheduler::TenantSnapshot>& TenantSnapshotCache::Get(
    size_t slot, const MachineScheduler& scheduler, const MultiTenantModel& multi) {
  NP_CHECK(slot < slots_.size());
  Slot& entry = slots_[slot];
  if (!entry.filled || entry.generation != scheduler.TenantGeneration()) {
    entry.snapshot = scheduler.SnapshotPerformance(multi);
    entry.generation = scheduler.TenantGeneration();
    entry.filled = true;
  }
  return entry.snapshot;
}

TenancyReport ReplayWithEvaluation(MachineScheduler& scheduler,
                                   const EventStream& trace,
                                   const MultiTenantModel& multi,
                                   EventObserver* observer) {
  TenancyReport report;
  AdmissionCounter counter(observer);
  TenantSnapshotCache snapshots(1);
  double last_time = 0.0;
  double attainment_weight = 0.0;
  double at_goal_weight = 0.0;
  double container_seconds = 0.0;

  for (const FleetEvent& event : trace) {
    const double dt = event.time_seconds - last_time;
    if (dt > 0.0) {
      for (const MachineScheduler::TenantSnapshot& snap :
           snapshots.Get(0, scheduler, multi)) {
        const double ratio =
            snap.goal_abs_throughput > 0.0
                ? std::min(1.0, snap.measured_abs_throughput / snap.goal_abs_throughput)
                : 1.0;
        attainment_weight += ratio * dt;
        if (ratio >= 0.999) {
          at_goal_weight += dt;
        }
        container_seconds += dt;
      }
      last_time = event.time_seconds;
    }

    const auto start = std::chrono::steady_clock::now();
    scheduler.Step(event, &counter);
    report.wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  report.decisions = counter.admissions;
  report.goal_attainment =
      container_seconds > 0.0 ? attainment_weight / container_seconds : 1.0;
  report.container_seconds_at_goal =
      container_seconds > 0.0 ? at_goal_weight / container_seconds : 1.0;
  report.mean_utilization = scheduler.TimeAveragedUtilization();
  return report;
}

}  // namespace numaplace
