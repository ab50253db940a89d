#include "src/sim/perf_model.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace numaplace {

namespace {

// Relative cost of an operation serviced at each level (1.0 = core-local).
constexpr double kL2HitCost = 1.3;
constexpr double kL3HitCost = 3.0;
constexpr double kDramCost = 9.0;
// Scale of the latency bonus when threads sit closer than one node apart.
constexpr double kProximityBonus = 0.3;
// Share of residual L3 misses that cooperative co-located threads absorb.
constexpr double kCoopEffect = 0.6;
// Effective bandwidth between nodes with no direct link, per node of the
// set, when traffic is routed through intermediate hops.
constexpr double kRoutedBandwidthFloorGbps = 1.0;

struct EngineTenant {
  const WorkloadProfile* profile;
  const Placement* placement;
};

// Combined throughput of `occupancy` threads sharing one L2 group, relative
// to a single thread running alone, linearly extrapolated from the pairwise
// smt_combined figure and capped at modest super-linearity.
double CombinedPipelineRate(double smt_combined, int occupancy) {
  if (occupancy <= 1) {
    return 1.0;
  }
  const double slope = smt_combined - 1.0;
  const double combined = 1.0 + slope * static_cast<double>(occupancy - 1);
  return std::min(combined, 1.15 * static_cast<double>(occupancy));
}

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

uint64_t NoiseStream(uint64_t seed, const WorkloadProfile& profile,
                     const Placement& placement, uint64_t run) {
  uint64_t h = seed;
  for (char ch : profile.name) {
    h = HashCombine(h, static_cast<uint64_t>(ch));
  }
  for (int t : placement.hw_threads) {
    h = HashCombine(h, static_cast<uint64_t>(t));
  }
  return HashCombine(h, run);
}

// The shared evaluation engine: handles one or many tenants, writing one
// result per tenant.
//
// Per-resource tallies are dense arrays indexed by hardware thread, L2
// group, L3 group or node, sized from the topology. Every floating-point sum
// into one of them adds its terms in a fixed order: tenant order, then each
// tenant's thread order, then the tenant's shared working set once per L3
// group it touches. Per-tenant sums run in thread order.
void EvaluateTenants(const Topology& topo, std::span<const EngineTenant> tenants,
                     std::span<PerfResult> results) {
  const size_t num_tenants = tenants.size();
  NP_CHECK(num_tenants >= 1);
  NP_CHECK(results.size() == num_tenants);

  struct TenantState {
    size_t first_thread = 0;     // into `where` and `threads`
    size_t num_threads = 0;
    size_t first_node = 0;       // into `nodes`, which lists each tenant's
    size_t num_nodes = 0;        // distinct nodes ascending
    double comm_factor = 1.0;
    double mean_latency = 0.0;
    double share_frac = 0.0;
    double ic_supply = 0.0;      // aggregate link bandwidth of its nodes
    double routed_supply = 0.0;  // the same, floored for routed traffic
    double dram_demand = 0.0;
    double ic_demand = 0.0;
    double dram_factor = 1.0;
    double ic_factor = 1.0;
  };
  struct ThreadState {
    int l3_peers = 0;        // the tenant's vCPUs on this thread's L3 group
    double pipeline = 1.0;   // L2-group sharing + hw-thread oversubscription
    double l2_hit = 0.0;
    double l3_hit = 0.0;
    double speed = 0.0;      // filled once the saturation penalty is known
  };

  std::vector<TenantState> state(num_tenants);
  size_t num_threads = 0;
  for (size_t c = 0; c < num_tenants; ++c) {
    const Placement& p = *tenants[c].placement;
    NP_CHECK(!p.hw_threads.empty());
    state[c].first_thread = num_threads;
    state[c].num_threads = p.hw_threads.size();
    num_threads += p.hw_threads.size();
  }
  std::vector<ThreadLocation> where(num_threads);
  std::vector<ThreadState> threads(num_threads);

  // --- Static occupancy across all tenants ---
  const auto num_nodes = static_cast<size_t>(topo.num_nodes());
  // vCPUs per hardware thread and per L2 group; MB of working set pressing
  // each L2 group and each L3 group.
  std::vector<int> hw_occupancy(static_cast<size_t>(topo.NumHwThreads()), 0);
  std::vector<int> group_occupancy(static_cast<size_t>(topo.NumL2Groups()), 0);
  std::vector<double> group_l2_demand(group_occupancy.size(), 0.0);
  std::vector<double> l3_group_demand(static_cast<size_t>(topo.NumL3Groups()), 0.0);
  // The current tenant's vCPUs per L3 group, which L3 groups still owe its
  // shared working set, and which nodes it uses; cleared after each tenant.
  std::vector<int> own_l3_threads(l3_group_demand.size(), 0);
  std::vector<char> l3_touched(l3_group_demand.size(), 0);
  std::vector<char> node_touched(num_nodes, 0);
  std::vector<int> nodes;
  nodes.reserve(num_tenants * num_nodes);

  for (size_t c = 0; c < num_tenants; ++c) {
    const WorkloadProfile& w = *tenants[c].profile;
    const Placement& p = *tenants[c].placement;
    TenantState& tenant = state[c];
    for (size_t i = 0; i < tenant.num_threads; ++i) {
      const ThreadLocation at = topo.LocationOf(p.hw_threads[i]);
      where[tenant.first_thread + i] = at;
      const auto l2 = static_cast<size_t>(at.l2_group);
      const auto l3 = static_cast<size_t>(at.l3_group);
      hw_occupancy[static_cast<size_t>(at.hw_thread)]++;
      group_occupancy[l2]++;
      l3_group_demand[l3] += w.ws_private_mb;
      group_l2_demand[l2] += w.ws_l2_mb;
      if (!l3_touched[l3]) {
        l3_touched[l3] = 1;
        own_l3_threads[l3] = 0;
      }
      own_l3_threads[l3]++;
      node_touched[static_cast<size_t>(at.node)] = 1;
    }
    // One copy of the shared working set per L3 cache the tenant spans,
    // added at the tenant's first thread on it. Per-L3-group thread counts
    // feed the cooperative-sharing bonus below.
    for (size_t i = tenant.first_thread; i < tenant.first_thread + tenant.num_threads; ++i) {
      const auto l3 = static_cast<size_t>(where[i].l3_group);
      threads[i].l3_peers = own_l3_threads[l3];
      if (l3_touched[l3]) {
        l3_touched[l3] = 0;
        l3_group_demand[l3] += w.ws_shared_mb;
      }
    }
    tenant.first_node = nodes.size();
    for (size_t n = 0; n < num_nodes; ++n) {
      if (node_touched[n]) {
        node_touched[n] = 0;
        nodes.push_back(static_cast<int>(n));
      }
    }
    tenant.num_nodes = nodes.size() - tenant.first_node;
  }
  const auto tenant_nodes = [&](const TenantState& tenant) {
    return std::span<const int>(nodes.data() + tenant.first_node, tenant.num_nodes);
  };
  const auto tenant_threads = [&](const TenantState& tenant) {
    return std::span<ThreadState>(threads.data() + tenant.first_thread, tenant.num_threads);
  };

  const PerfParams& perf = topo.perf();

  // --- Per-tenant, per-thread static factors ---
  for (size_t c = 0; c < num_tenants; ++c) {
    const WorkloadProfile& w = *tenants[c].profile;
    TenantState& tenant = state[c];
    const auto total_threads = static_cast<double>(tenant.num_threads);

    tenant.mean_latency = topo.MeanPairwiseLatencyNs(
        std::span<const ThreadLocation>(where.data() + tenant.first_thread, tenant.num_threads));
    const double l0 = perf.lat_same_node_ns;
    const double rel = tenant.mean_latency / l0;
    if (rel >= 1.0) {
      tenant.comm_factor = 1.0 / (1.0 + w.comm_intensity * (rel - 1.0));
    } else {
      tenant.comm_factor = 1.0 + w.comm_intensity * kProximityBonus * (1.0 - rel);
    }

    const double footprint = w.ws_shared_mb + total_threads * w.ws_private_mb;
    tenant.share_frac = footprint > 0.0 ? w.ws_shared_mb / footprint : 0.0;

    // Node pairs without a direct link still exchange data through
    // intermediate hops; routed traffic shares the intermediate links, so
    // the effective floor is well below a direct link but not zero.
    tenant.ic_supply = topo.AggregateBandwidth(tenant_nodes(tenant));
    tenant.routed_supply = tenant.ic_supply;
    if (tenant.num_nodes > 1) {
      tenant.routed_supply =
          std::max(tenant.ic_supply,
                   kRoutedBandwidthFloorGbps * (static_cast<double>(tenant.num_nodes) - 1.0));
    }

    for (size_t i = tenant.first_thread; i < tenant.first_thread + tenant.num_threads; ++i) {
      ThreadState& s = threads[i];
      const auto l2 = static_cast<size_t>(where[i].l2_group);
      const int occ = group_occupancy[l2];
      s.pipeline = CombinedPipelineRate(w.smt_combined, occ) / static_cast<double>(occ) /
                   static_cast<double>(hw_occupancy[static_cast<size_t>(where[i].hw_thread)]);
      // Fraction of accesses served by the L2: accesses to the hot set, when
      // the group's combined hot sets fit the cache.
      const double l2_demand = group_l2_demand[l2];
      const double l2_fit =
          l2_demand > 0.0 ? std::min(1.0, perf.l2_size_mb / l2_demand) : 1.0;
      s.l2_hit = w.l2_locality * l2_fit;
      const double l3_demand = l3_group_demand[static_cast<size_t>(where[i].l3_group)];
      double l3_hit = l3_demand > 0.0 ? std::min(1.0, perf.l3_size_mb / l3_demand) : 1.0;
      // Cooperative sharing: co-located threads prefetch shared data for each
      // other; the effect scales with the fraction of the container's threads
      // sharing this L3.
      const double colocation = static_cast<double>(s.l3_peers) / total_threads;
      l3_hit += w.cache_coop * colocation * kCoopEffect * (1.0 - l3_hit);
      s.l3_hit = std::min(1.0, l3_hit);
    }
  }

  // Tenants whose node sets overlap compete for the same links.
  std::vector<char> overlaps(num_tenants * num_tenants, 0);
  for (size_t c = 0; c < num_tenants; ++c) {
    const std::span<const int> mine = tenant_nodes(state[c]);
    for (size_t o = 0; o < num_tenants; ++o) {
      const std::span<const int> theirs = tenant_nodes(state[o]);
      overlaps[c * num_tenants + o] =
          std::find_first_of(theirs.begin(), theirs.end(), mine.begin(), mine.end()) !=
          theirs.end();
    }
  }

  // --- Bandwidth saturation ---
  // Traffic each thread generates at its natural memory-bound pace:
  // bw_per_thread filtered by the caches. Demand deliberately does not scale
  // with the achieved speed; saturation acts only through the DRAM-cost
  // penalty on speed, matching how memory-bound applications pile requests
  // onto a saturated controller. Demand reads no speed, so one pass each
  // gives the demands, the saturation penalty and the speeds.
  std::vector<double> node_dram_demand(num_nodes, 0.0);  // GB/s per node
  for (size_t c = 0; c < num_tenants; ++c) {
    const WorkloadProfile& w = *tenants[c].profile;
    TenantState& tenant = state[c];
    double total_traffic = 0.0;
    for (const ThreadState& s : tenant_threads(tenant)) {
      total_traffic += w.bw_per_thread_gbps * (1.0 - s.l2_hit) * (1.0 - s.l3_hit);
    }
    tenant.dram_demand = total_traffic;
    const auto num_tenant_nodes = static_cast<double>(tenant.num_nodes);
    for (int n : tenant_nodes(tenant)) {
      node_dram_demand[static_cast<size_t>(n)] += total_traffic / num_tenant_nodes;
    }
    tenant.ic_demand =
        total_traffic * tenant.share_frac * (num_tenant_nodes - 1.0) / num_tenant_nodes;
  }

  // Per-tenant saturation factors.
  for (size_t c = 0; c < num_tenants; ++c) {
    TenantState& tenant = state[c];
    double dram_f = 1.0;
    for (int n : tenant_nodes(tenant)) {
      const double demand = node_dram_demand[static_cast<size_t>(n)];
      if (demand > perf.dram_gbps_per_node) {
        dram_f = std::min(dram_f, perf.dram_gbps_per_node / demand);
      }
    }
    tenant.dram_factor = dram_f;

    double ic_f = 1.0;
    double competing = 0.0;
    for (size_t o = 0; o < num_tenants; ++o) {
      if (overlaps[c * num_tenants + o]) {
        competing += state[o].ic_demand;
      }
    }
    if (competing > 0.0) {
      ic_f = tenant.routed_supply > 0.0 ? std::min(1.0, tenant.routed_supply / competing)
                                        : 0.05;
    }
    tenant.ic_factor = ic_f;
  }

  // Thread speeds under the saturation penalty.
  for (size_t c = 0; c < num_tenants; ++c) {
    const WorkloadProfile& w = *tenants[c].profile;
    const TenantState& tenant = state[c];
    const double factor = std::min(tenant.dram_factor, tenant.ic_factor);
    const double bw_penalty = 1.0 / std::max(factor, 0.02);  // >= 1
    const double dram_cost = kDramCost * bw_penalty;
    for (ThreadState& s : tenant_threads(tenant)) {
      const double cost =
          (1.0 - w.mem_intensity) +
          w.mem_intensity *
              (s.l2_hit * kL2HitCost +
               (1.0 - s.l2_hit) * (s.l3_hit * kL3HitCost + (1.0 - s.l3_hit) * dram_cost));
      s.speed = s.pipeline * tenant.comm_factor / cost;
    }
  }

  // --- Aggregate per tenant ---
  for (size_t c = 0; c < num_tenants; ++c) {
    const WorkloadProfile& w = *tenants[c].profile;
    const TenantState& tenant = state[c];
    double sum_speed = 0.0;
    double min_speed = threads[tenant.first_thread].speed;
    double sum_l2 = 0.0;
    double sum_l3 = 0.0;
    double sum_pipe = 0.0;
    for (const ThreadState& s : tenant_threads(tenant)) {
      sum_speed += s.speed;
      min_speed = std::min(min_speed, s.speed);
      sum_l2 += s.l2_hit;
      sum_l3 += s.l3_hit;
      sum_pipe += s.pipeline;
    }
    const auto n_threads = static_cast<double>(tenant.num_threads);
    // Barrier-synchronized work is gated on the slowest thread.
    const double effective =
        (1.0 - w.barrier_sensitivity) * sum_speed +
        w.barrier_sensitivity * n_threads * min_speed;

    PerfResult& r = results[c];
    r.throughput_ops = perf.base_ops_per_thread * effective;
    r.breakdown.l2_hit = sum_l2 / n_threads;
    r.breakdown.l3_hit = sum_l3 / n_threads;
    r.breakdown.pipeline_factor = sum_pipe / n_threads;
    r.breakdown.comm_factor = tenant.comm_factor;
    r.breakdown.bandwidth_factor = std::min(tenant.dram_factor, tenant.ic_factor);
    r.breakdown.dram_demand_gbps = tenant.dram_demand;
    r.breakdown.dram_supply_gbps =
        perf.dram_gbps_per_node * static_cast<double>(tenant.num_nodes);
    r.breakdown.ic_demand_gbps = tenant.ic_demand;
    r.breakdown.ic_supply_gbps = tenant.ic_supply;
    r.breakdown.mean_latency_ns = tenant.mean_latency;
    r.breakdown.cost_per_op =
        effective > 0.0 ? n_threads * tenant.comm_factor / (sum_speed / n_threads) : 0.0;
  }
}

double ApplyNoise(double value, double sigma, uint64_t stream) {
  if (sigma <= 0.0) {
    return value;
  }
  Rng rng(stream);
  return value * std::exp(rng.NextGaussian(0.0, sigma));
}

}  // namespace

PerformanceModel::PerformanceModel(const Topology& topo, double noise_sigma,
                                   uint64_t noise_seed)
    : topo_(&topo), noise_sigma_(noise_sigma), noise_seed_(noise_seed) {
  NP_CHECK(noise_sigma >= 0.0);
}

PerfResult PerformanceModel::EvaluateDeterministic(const WorkloadProfile& profile,
                                                   const Placement& placement) const {
  const EngineTenant tenant = {&profile, &placement};
  PerfResult result;
  EvaluateTenants(*topo_, {&tenant, 1}, {&result, 1});
  return result;
}

PerfResult PerformanceModel::Evaluate(const WorkloadProfile& profile,
                                      const Placement& placement) const {
  return Evaluate(profile, placement, 0);
}

PerfResult PerformanceModel::Evaluate(const WorkloadProfile& profile,
                                      const Placement& placement, uint64_t run) const {
  PerfResult r = EvaluateDeterministic(profile, placement);
  r.throughput_ops = ApplyNoise(r.throughput_ops, noise_sigma_,
                                NoiseStream(noise_seed_, profile, placement, run));
  return r;
}

MultiTenantModel::MultiTenantModel(const Topology& topo, double noise_sigma,
                                   uint64_t noise_seed)
    : topo_(&topo), noise_sigma_(noise_sigma), noise_seed_(noise_seed) {
  NP_CHECK(noise_sigma >= 0.0);
}

std::vector<PerfResult> MultiTenantModel::Evaluate(const std::vector<Tenant>& tenants) const {
  NP_CHECK(!tenants.empty());
  std::vector<EngineTenant> engine_tenants;
  engine_tenants.reserve(tenants.size());
  for (const Tenant& t : tenants) {
    NP_CHECK(t.profile != nullptr);
    engine_tenants.push_back({t.profile, &t.placement});
  }
  std::vector<PerfResult> results(engine_tenants.size());
  EvaluateTenants(*topo_, engine_tenants, results);
  for (size_t c = 0; c < results.size(); ++c) {
    results[c].throughput_ops = ApplyNoise(
        results[c].throughput_ops, noise_sigma_,
        NoiseStream(noise_seed_ + c, *tenants[c].profile, tenants[c].placement, 0));
  }
  return results;
}

}  // namespace numaplace
