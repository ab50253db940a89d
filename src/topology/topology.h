// Machine topology substrate.
//
// A Topology describes the shared-resource hierarchy of a NUMA multicore: NUMA
// nodes (one L3 cache + memory controller each), cores, SMT hardware threads,
// L2 sharing groups, and the inter-node interconnect as a weighted link graph.
// This is the "simple abstract specification of the shared resources present
// on the target hardware" that Step 1 of the paper asks the user for; the
// scheduling concerns (src/core) and the performance simulator (src/sim) both
// consume it.
//
// Hardware thread layout is regular by construction:
//   core id      = node * cores_per_node + core_in_node
//   hw thread id = core * smt_per_core + sibling
//   L2 group id  = core / cores_per_l2_group
//   L3 group id  = core / cores_per_l3_group
// which covers SMT sharing (Intel: 1 core per L2 group, 2 SMT threads), AMD
// CMT modules (2 cores per L2 group, 1 thread per core), and — per the
// paper's §8 outlook — architectures like AMD Zen where the L3 cache is
// shared at a finer granularity (the CCX) than the memory controller: set
// cores_per_l3_group below cores_per_node and each node carries several L3
// groups. Classic machines leave cores_per_l3_group == cores_per_node (one
// L3 per node), which every paper experiment uses.
#ifndef NUMAPLACE_SRC_TOPOLOGY_TOPOLOGY_H_
#define NUMAPLACE_SRC_TOPOLOGY_TOPOLOGY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace numaplace {

// An undirected interconnect link between two NUMA nodes with its measured
// aggregate bandwidth (GB/s), as obtained with a stream-like benchmark.
struct Link {
  int node_a = 0;
  int node_b = 0;
  double bandwidth_gbps = 0.0;
};

// Physical parameters consumed by the performance simulator (not by the
// placement algorithms, which are deliberately independent of them).
struct PerfParams {
  double l2_size_mb = 2.0;          // per L2 group
  double l3_size_mb = 8.0;          // per L3 group (== per node classically)
  double dram_gbps_per_node = 12.0; // local memory bandwidth per node
  // Cross-thread communication latencies, nanoseconds.
  double lat_same_core_ns = 20.0;
  double lat_same_l2_ns = 25.0;
  // Within one L3 group; 0 means "same as lat_same_node_ns" (the classic
  // one-L3-per-node case).
  double lat_same_l3_ns = 0.0;
  double lat_same_node_ns = 45.0;
  double lat_one_hop_ns = 130.0;
  double lat_extra_hop_ns = 90.0;   // added per hop beyond the first
  // Single-thread execution rate in abstract ops/sec used to anchor absolute
  // throughput numbers in reports.
  double base_ops_per_thread = 100000.0;
};

// Where one hardware thread sits in the hierarchy. Resolving it once lets a
// caller that compares many threads pairwise skip the per-lookup range check.
struct ThreadLocation {
  int hw_thread = 0;
  int core = 0;
  int l2_group = 0;
  int l3_group = 0;
  int node = 0;
};

class Topology {
 public:
  // `cores_per_l2_group` must divide `cores_per_l3_group`, which must divide
  // `cores_per_node`. `cores_per_l3_group` of 0 means one L3 group per node.
  // Links must reference valid nodes, carry positive bandwidth, and contain
  // no duplicates.
  Topology(std::string name, int num_nodes, int cores_per_node, int smt_per_core,
           int cores_per_l2_group, std::vector<Link> links, PerfParams perf,
           int cores_per_l3_group = 0);

  const std::string& name() const { return name_; }
  int num_nodes() const { return num_nodes_; }
  int cores_per_node() const { return cores_per_node_; }
  int smt_per_core() const { return smt_per_core_; }
  int cores_per_l2_group() const { return cores_per_l2_group_; }
  const PerfParams& perf() const { return perf_; }
  const std::vector<Link>& links() const { return links_; }

  int cores_per_l3_group() const { return cores_per_l3_group_; }

  int NumCores() const { return num_nodes_ * cores_per_node_; }
  int NumHwThreads() const { return NumCores() * smt_per_core_; }
  int NumL2Groups() const { return NumCores() / cores_per_l2_group_; }
  int NumL3Groups() const { return NumCores() / cores_per_l3_group_; }
  // Hardware threads per L2 group (the L2/SMT concern's Capacity).
  int L2GroupCapacity() const { return cores_per_l2_group_ * smt_per_core_; }
  // Hardware threads per L3 group (the L3 concern's Capacity).
  int L3GroupCapacity() const { return cores_per_l3_group_ * smt_per_core_; }
  // Hardware threads per node (the memory-controller concern's Capacity).
  int NodeCapacity() const { return cores_per_node_ * smt_per_core_; }
  int L2GroupsPerNode() const { return cores_per_node_ / cores_per_l2_group_; }
  int L3GroupsPerNode() const { return cores_per_node_ / cores_per_l3_group_; }
  int L2GroupsPerL3Group() const { return cores_per_l3_group_ / cores_per_l2_group_; }
  // True when the L3 is shared at finer granularity than the memory
  // controller (the paper's Zen case, §8).
  bool HasSplitL3() const { return cores_per_l3_group_ != cores_per_node_; }

  // Layout accessors for a hardware thread id in [0, NumHwThreads()).
  int CoreOf(int hw_thread) const;
  int NodeOf(int hw_thread) const;
  int L2GroupOf(int hw_thread) const;
  int L3GroupOf(int hw_thread) const;
  int SmtSiblingIndexOf(int hw_thread) const;
  // The thread's core, L2 group, L3 group and node, with one range check.
  ThreadLocation LocationOf(int hw_thread) const;

  // All hardware thread ids on the given node, ascending.
  std::vector<int> HwThreadsOnNode(int node) const;

  // Structural enumeration used by occupancy-aware placement realization
  // (src/core/occupancy.h): the hardware threads belonging to one L2 group,
  // and the group ids nested inside a coarser resource. All ascending.
  std::vector<int> HwThreadsInL2Group(int l2_group) const;
  std::vector<int> L3GroupsOnNode(int node) const;
  std::vector<int> L2GroupsInL3Group(int l3_group) const;

  // Direct-link bandwidth between two distinct nodes; 0.0 when not adjacent.
  double LinkBandwidth(int node_a, int node_b) const;

  // Minimal hop count between nodes (0 for a==b). Nodes with no path get a
  // large sentinel (NumHwThreads()+num_nodes), but catalog machines are all
  // connected.
  int HopDistance(int node_a, int node_b) const;

  // The interconnect score of §4: total bandwidth of all links whose both
  // endpoints lie in `nodes`. This is what the Interconnect concern reports
  // and what the Pareto filter of Algorithm 3 ranks on.
  double AggregateBandwidth(std::span<const int> nodes) const;

  // Cross-thread communication latency between two hardware threads (ns),
  // derived from their topological relationship.
  double CommunicationLatencyNs(int hw_thread_a, int hw_thread_b) const;
  // Mean of the same latency over every pair i < j of locations from
  // LocationOf, summed in (i, j) order; 0 for fewer than two threads.
  double MeanPairwiseLatencyNs(std::span<const ThreadLocation> threads) const;

 private:
  // The latency rule both of the above apply, on locations from LocationOf.
  double CommunicationLatencyNs(const ThreadLocation& a, const ThreadLocation& b) const;

  std::string name_;
  int num_nodes_;
  int cores_per_node_;
  int smt_per_core_;
  int cores_per_l2_group_;
  int cores_per_l3_group_;
  std::vector<Link> links_;
  PerfParams perf_;
  std::vector<double> link_bw_;   // dense num_nodes x num_nodes matrix
  std::vector<int> hop_;          // dense num_nodes x num_nodes matrix
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_TOPOLOGY_TOPOLOGY_H_
