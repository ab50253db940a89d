// Analytic shared-resource performance simulator.
//
// Replaces the paper's physical NUMA testbeds (see DESIGN.md §2). Given a
// workload profile and a concrete placement, the model derives throughput
// from the same physical effects the paper attributes performance
// differences to (§1):
//   * pipeline sharing inside an L2 group (SMT siblings / CMT module cores),
//     contentious or cooperative depending on the workload;
//   * L2 and L3 capacity pressure from the threads mapped to each cache,
//     including per-L3 replication of the shared working set and the
//     cooperative-sharing bonus of co-located threads;
//   * DRAM bandwidth saturation per node and interconnect bandwidth
//     saturation for the remote share of the traffic;
//   * cross-thread communication latency determined by how far apart the
//     vCPUs sit in the topology;
//   * straggler effects for barrier-synchronized workloads under unbalanced
//     mappings.
// Throughput follows an average-memory-access-time cost model. Bandwidth
// demand is each thread's cache-filtered traffic at its natural pace, so it
// does not depend on the achieved speed; saturation of that demand raises
// the DRAM cost and thereby slows the threads down.
// A seeded lognormal noise term models run-to-run measurement variance.
#ifndef NUMAPLACE_SRC_SIM_PERF_MODEL_H_
#define NUMAPLACE_SRC_SIM_PERF_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/core/placement.h"
#include "src/topology/topology.h"
#include "src/workloads/profile.h"

namespace numaplace {

// Simulator internals for one evaluation, exposed for the synthetic HPE
// sampler and for tests.
struct PerfBreakdown {
  double l2_hit = 0.0;             // hit fraction in the thread's L2 group
  double l3_hit = 0.0;             // hit fraction in the node's L3
  double pipeline_factor = 0.0;    // per-thread rate from L2-group sharing
  double comm_factor = 0.0;        // latency slowdown/bonus factor
  double bandwidth_factor = 0.0;   // DRAM+interconnect saturation factor
  double dram_demand_gbps = 0.0;   // post-cache traffic demanded
  double dram_supply_gbps = 0.0;
  double ic_demand_gbps = 0.0;     // remote share of traffic
  double ic_supply_gbps = 0.0;
  double mean_latency_ns = 0.0;
  double cost_per_op = 0.0;        // average op cost (1.0 = cache-resident)
};

struct PerfResult {
  double throughput_ops = 0.0;     // aggregate ops/sec for the container
  PerfBreakdown breakdown;
};

class PerformanceModel {
 public:
  // `noise_sigma` is the lognormal sigma of the measurement noise; 0 gives
  // the deterministic mean behaviour.
  explicit PerformanceModel(const Topology& topo, double noise_sigma = 0.0,
                            uint64_t noise_seed = 0);

  // Evaluates one container running alone on the machine. `placement` may be
  // unbalanced (vCPUs stacked unevenly); balance is not assumed.
  PerfResult Evaluate(const WorkloadProfile& profile, const Placement& placement) const;

  // Same, with an explicit run index: measurements of the same (workload,
  // placement) pair differ run to run by the lognormal noise, reproducibly.
  PerfResult Evaluate(const WorkloadProfile& profile, const Placement& placement,
                      uint64_t run) const;

  const Topology& topology() const { return *topo_; }
  double noise_sigma() const { return noise_sigma_; }

 private:
  friend class MultiTenantModel;

  // Deterministic core of Evaluate, before measurement noise.
  PerfResult EvaluateDeterministic(const WorkloadProfile& profile,
                                   const Placement& placement) const;

  const Topology* topo_;
  double noise_sigma_;
  uint64_t noise_seed_;
};

// Several containers co-running on one machine: bandwidth demands add up on
// shared nodes and links, caches are partitioned proportionally to demand,
// and threads from different containers sharing an L2 group contend for its
// pipeline. This drives the §7 packing experiments where the Aggressive
// policies let containers share NUMA nodes.
class MultiTenantModel {
 public:
  explicit MultiTenantModel(const Topology& topo, double noise_sigma = 0.0,
                            uint64_t noise_seed = 0);

  struct Tenant {
    const WorkloadProfile* profile;
    Placement placement;
  };

  // Per-tenant throughput under interference.
  std::vector<PerfResult> Evaluate(const std::vector<Tenant>& tenants) const;

 private:
  const Topology* topo_;
  double noise_sigma_;
  uint64_t noise_seed_;
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_SIM_PERF_MODEL_H_
