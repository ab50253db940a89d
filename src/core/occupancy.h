// Hardware-thread occupancy of a multi-tenant machine, and occupancy-aware
// realization of important placements.
//
// The paper's pipeline (§4) realizes a placement class on an otherwise empty
// machine. A datacenter machine is never empty: containers arrive and depart
// over time, and each new placement must be carved out of the hardware
// threads the incumbents left free. The OccupancyMap tracks which container
// owns which hardware thread; RealizeOnFreeThreads/RealizeAnywhereFree
// re-run the §4 realization rules (spread over nodes, then L3 groups, then
// L2 groups) restricted to free threads, so a realized placement keeps the
// score vector of its class — co-runner interference aside, the trained
// model's prediction for the class still applies.
#ifndef NUMAPLACE_SRC_CORE_OCCUPANCY_H_
#define NUMAPLACE_SRC_CORE_OCCUPANCY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/important.h"
#include "src/core/placement.h"
#include "src/topology/topology.h"

namespace numaplace {

class OccupancyMap {
 public:
  // Marks an unowned hardware thread.
  static constexpr int kFree = -1;

  explicit OccupancyMap(const Topology& topo);

  const Topology& topology() const { return *topo_; }

  // Owner container id of a hardware thread, or kFree.
  int OwnerOf(int hw_thread) const;
  bool IsFree(int hw_thread) const { return OwnerOf(hw_thread) == kFree; }

  // Claims every thread of `placement` for `container_id` (>= 0). CHECK-fails
  // if any thread is already owned (including by `container_id` itself —
  // re-placement must Release first).
  void Acquire(int container_id, const Placement& placement);

  // Frees every thread owned by `container_id`; returns how many were freed
  // (0 when the container owns nothing).
  int Release(int container_id);

  // Moves on every change of the owner vector: each Acquire, and each
  // Release that frees at least one thread. The queries below and the
  // realizations that read them depend on nothing else the map holds, so
  // an unchanged generation means unchanged answers. A copy starts at its
  // source's generation.
  uint64_t Generation() const { return generation_; }

  // All threads currently owned by `container_id`, ascending.
  std::vector<int> ThreadsOf(int container_id) const;

  // Free-capacity queries, the occupancy-side complement of the Topology
  // structural enumeration.
  int FreeThreadCount() const { return free_count_; }
  int BusyThreadCount() const { return topo_->NumHwThreads() - free_count_; }
  double Utilization() const;  // busy / total, in [0, 1]
  int FreeThreadsOnNode(int node) const;
  int FreeThreadsInL2Group(int l2_group) const;
  // Nodes with no owned thread at all, ascending.
  std::vector<int> FullyFreeNodes() const;
  // Distinct containers currently owning at least one thread.
  int NumContainers() const;

 private:
  const Topology* topo_;
  std::vector<int> owner_;  // per hw thread
  int free_count_;
  uint64_t generation_ = 0;
};

// Realizes `ip`'s placement class on the node set `nodes` using only
// hardware threads free in `occ`: per node, l3_score/NodeCount free L3
// groups are chosen, each contributing l2_score/l3_score L2 groups that
// still have vcpus/l2_score free threads (lowest ids first). Returns
// std::nullopt when the node set lacks the free cache structure. Does not
// modify `occ`; callers Acquire() the result to commit.
std::optional<Placement> RealizeOnFreeThreads(const ImportantPlacement& ip,
                                              const NodeSet& nodes, const Topology& topo,
                                              int vcpus, const OccupancyMap& occ);

// Searches all node sets of size ip.NodeCount() for one where the class can
// be realized on free threads. Candidate sets whose aggregate interconnect
// bandwidth matches the class score are preferred (realizing on a different
// bandwidth would change the class identity on asymmetric machines), then
// higher bandwidth, then lexicographic order for determinism.
std::optional<Placement> RealizeAnywhereFree(const ImportantPlacement& ip,
                                             const Topology& topo, int vcpus,
                                             const OccupancyMap& occ);

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_CORE_OCCUPANCY_H_
