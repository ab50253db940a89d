#include "src/cluster/dispatch.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/util/check.h"

namespace numaplace {

namespace {

const std::string kLeastLoadedName = "least-loaded";
const std::string kRoundRobinName = "round-robin";
const std::string kBestPredictedName = "best-predicted";
const std::string kShardedName = "sharded";

// Seed of the sharded dispatcher's cell-sampling stream: decisions are
// reproducible run-to-run for a fixed event sequence.
constexpr uint64_t kCellSamplingSeed = 17;

void ValidateContext(const DispatchContext& ctx) {
  NP_CHECK(ctx.request != nullptr);
  NP_CHECK(ctx.machines != nullptr);
  NP_CHECK(!ctx.machines->empty());
}

std::vector<size_t> IdentityOrder(size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

// The shared tie-breaker: emptier machines first so dispatch pressure
// spreads instead of piling onto machine 0.
bool LessLoaded(const MachineCandidate& a, const MachineCandidate& b) {
  if (a.utilization != b.utilization) {
    return a.utilization < b.utilization;
  }
  if (a.pending != b.pending) {
    return a.pending < b.pending;
  }
  if (a.free_threads != b.free_threads) {
    return a.free_threads > b.free_threads;
  }
  return a.machine_id < b.machine_id;
}

}  // namespace

CellLayout MakeInterleavedCells(int num_machines, int requested_cells) {
  NP_CHECK_MSG(num_machines >= 1, "a cell layout needs at least one machine");
  NP_CHECK_MSG(requested_cells >= 0, "cell count cannot be negative (0 = auto)");
  int num_cells = requested_cells;
  if (num_cells == 0) {
    num_cells =
        static_cast<int>(std::lround(std::sqrt(static_cast<double>(num_machines))));
  }
  num_cells = std::max(1, std::min(num_cells, num_machines));
  CellLayout layout;
  layout.cells.assign(static_cast<size_t>(num_cells), {});
  layout.cell_of.assign(static_cast<size_t>(num_machines), 0);
  for (int m = 0; m < num_machines; ++m) {
    const int cell = m % num_cells;
    layout.cells[static_cast<size_t>(cell)].push_back(m);
    layout.cell_of[static_cast<size_t>(m)] = cell;
  }
  return layout;
}

// --- least-loaded ---

const std::string& LeastLoadedDispatch::name() const { return kLeastLoadedName; }

std::vector<size_t> LeastLoadedDispatch::Rank(const DispatchContext& ctx) {
  ValidateContext(ctx);
  std::vector<size_t> order = IdentityOrder(ctx.machines->size());
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return LessLoaded((*ctx.machines)[a], (*ctx.machines)[b]);
  });
  return order;
}

// --- round-robin ---

const std::string& RoundRobinDispatch::name() const { return kRoundRobinName; }

std::vector<size_t> RoundRobinDispatch::Rank(const DispatchContext& ctx) {
  ValidateContext(ctx);
  // The cursor cycles stable machine ids, not candidate indices: the fleet
  // filters out machines a container cannot fit on, so index-based rotation
  // would skew whenever the candidate list shrinks. Candidates arrive in
  // ascending machine-id order; start from the first id at or past the
  // cursor, wrapping to the lowest.
  const size_t n = ctx.machines->size();
  size_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    if ((*ctx.machines)[i].machine_id >= next_machine_id_) {
      start = i;
      break;
    }
  }
  next_machine_id_ = (*ctx.machines)[start].machine_id + 1;
  std::vector<size_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    order.push_back((start + i) % n);
  }
  return order;
}

// --- best-predicted ---

const std::string& BestPredictedDispatch::name() const { return kBestPredictedName; }

std::vector<size_t> BestPredictedDispatch::Rank(const DispatchContext& ctx) {
  ValidateContext(ctx);
  // Margin of a machine's top candidate over the decision goal, saturated
  // at 1: the previews are solo predictions, so headroom beyond the goal
  // says nothing about multi-tenant interference — among machines predicted
  // to meet the goal the differentiator is load, and the tie-break below
  // routes to the emptiest of them. Machines with model-free policies
  // preview zero prediction and zero goal; they get margin 0, ranking after
  // any machine the model vouches for but before machines where nothing
  // fits at all (which would queue the container).
  const auto margin = [&](const MachineCandidate& m) {
    NP_CHECK_MSG(m.preview_valid, "best-predicted dispatch needs previews");
    if (!m.preview.realizable) {
      return -1.0;
    }
    if (m.preview.goal_abs <= 0.0) {
      return 0.0;
    }
    return std::min(1.0, m.preview.predicted_abs / m.preview.goal_abs);
  };
  std::vector<size_t> order = IdentityOrder(ctx.machines->size());
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double margin_a = margin((*ctx.machines)[a]);
    const double margin_b = margin((*ctx.machines)[b]);
    if (margin_a != margin_b) {
      return margin_a > margin_b;
    }
    return LessLoaded((*ctx.machines)[a], (*ctx.machines)[b]);
  });
  return order;
}

// --- sharded ---

ShardedDispatchPolicy::ShardedDispatchPolicy(ShardedDispatchConfig config)
    : config_(std::move(config)),
      inner_(MakeDispatchPolicy(config_.inner)),
      rng_(kCellSamplingSeed) {
  NP_CHECK_MSG(config_.cells >= 0,
               "sharded dispatch cell count cannot be negative (0 = auto)");
  NP_CHECK_MSG(config_.probes >= 1,
               "sharded dispatch samples at least one cell per decision");
  NP_CHECK_MSG(config_.inner != kShardedName,
               "sharded dispatch cannot nest itself as the inner ranking");
}

const std::string& ShardedDispatchPolicy::name() const { return kShardedName; }

bool ShardedDispatchPolicy::NeedsPreviews() const { return inner_->NeedsPreviews(); }

void ShardedDispatchPolicy::BindMembership(
    const std::vector<MachineMembership>* membership) {
  NP_CHECK(membership != nullptr);
  NP_CHECK_MSG(!membership->empty(), "sharded dispatch needs at least one machine");
  membership_ = membership;
  inner_->BindMembership(membership);

  const int n = static_cast<int>(membership->size());
  for (int m = 0; m < n; ++m) {
    NP_CHECK_MSG((*membership)[static_cast<size_t>(m)].machine_id == m,
                 "membership view must be in machine-id order");
  }
  layout_ = MakeInterleavedCells(n, config_.cells);
}

int ShardedDispatchPolicy::CellOf(int machine_id) const {
  NP_CHECK(machine_id >= 0 && machine_id < layout_.NumMachines());
  return layout_.cell_of[static_cast<size_t>(machine_id)];
}

std::vector<int> ShardedDispatchPolicy::Preselect(const ContainerRequest& request) {
  NP_CHECK_MSG(membership_ != nullptr,
               "sharded dispatch is fleet-owned: BindMembership must run before "
               "the first decision");
  // Level one, eligibility: cells that still hold an up machine the
  // container fits on.
  std::vector<int> eligible;
  for (int c = 0; c < NumCells(); ++c) {
    for (int m : layout_.cells[static_cast<size_t>(c)]) {
      const MachineMembership& member = (*membership_)[static_cast<size_t>(m)];
      if (member.availability == MachineAvailability::kUp &&
          request.vcpus <= member.hw_threads) {
        eligible.push_back(c);
        break;
      }
    }
  }
  last_sampled_.clear();
  if (eligible.empty()) {
    // Nothing is dispatchable anywhere: hand the decision back to the fleet
    // (full candidate build, which parks the container fleet-wide).
    return {};
  }
  // Sample d distinct eligible cells uniformly (partial Fisher-Yates) —
  // the power-of-d-choices step, one level up from machines. The "choice"
  // among the sampled cells is left to the inner dispatcher's per-machine
  // comparison over their union (load or predicted margin), a strictly
  // sharper signal than any cell-aggregate statistic.
  const size_t d = std::min(static_cast<size_t>(config_.probes), eligible.size());
  for (size_t i = 0; i < d; ++i) {
    const size_t j =
        i + static_cast<size_t>(rng_.NextBelow(static_cast<uint64_t>(eligible.size() - i)));
    std::swap(eligible[i], eligible[j]);
  }
  eligible.resize(d);
  std::vector<int> machines;
  for (int c : eligible) {
    last_sampled_.push_back(c);
    for (int m : layout_.cells[static_cast<size_t>(c)]) {
      machines.push_back(m);
    }
  }
  return machines;
}

std::vector<size_t> ShardedDispatchPolicy::Rank(const DispatchContext& ctx) {
  // Level two: the inner dispatcher picks the best machine within the union
  // of the sampled cells (the fleet built candidates only for them).
  return inner_->Rank(ctx);
}

// --- registry ---

DispatchRegistry& DispatchRegistry::Global() {
  static DispatchRegistry* registry = [] {
    auto* r = new DispatchRegistry();
    r->Register(kLeastLoadedName, [] { return std::make_unique<LeastLoadedDispatch>(); });
    r->Register(kRoundRobinName, [] { return std::make_unique<RoundRobinDispatch>(); });
    r->Register(kBestPredictedName,
                [] { return std::make_unique<BestPredictedDispatch>(); });
    r->Register(kShardedName, [] { return std::make_unique<ShardedDispatchPolicy>(); });
    return r;
  }();
  return *registry;
}

std::unique_ptr<DispatchPolicy> MakeDispatchPolicy(const std::string& name) {
  return DispatchRegistry::Global().Make(name);
}

}  // namespace numaplace
