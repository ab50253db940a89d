#include "src/core/occupancy.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace numaplace {

OccupancyMap::OccupancyMap(const Topology& topo)
    : topo_(&topo),
      owner_(static_cast<size_t>(topo.NumHwThreads()), kFree),
      free_count_(topo.NumHwThreads()) {}

int OccupancyMap::OwnerOf(int hw_thread) const {
  NP_CHECK(hw_thread >= 0 && hw_thread < topo_->NumHwThreads());
  return owner_[static_cast<size_t>(hw_thread)];
}

void OccupancyMap::Acquire(int container_id, const Placement& placement) {
  NP_CHECK_MSG(container_id >= 0, "container ids must be non-negative");
  // Validate the whole claim before mutating anything, so a failed Acquire
  // leaves the map unchanged.
  for (int t : placement.hw_threads) {
    NP_CHECK_MSG(IsFree(t), "hardware thread " << t << " already owned by container "
                                               << OwnerOf(t));
  }
  for (int t : placement.hw_threads) {
    owner_[static_cast<size_t>(t)] = container_id;
  }
  free_count_ -= static_cast<int>(placement.hw_threads.size());
  ++generation_;
}

int OccupancyMap::Release(int container_id) {
  NP_CHECK(container_id >= 0);
  int released = 0;
  for (int& o : owner_) {
    if (o == container_id) {
      o = kFree;
      ++released;
    }
  }
  free_count_ += released;
  if (released > 0) {
    ++generation_;
  }
  return released;
}

std::vector<int> OccupancyMap::ThreadsOf(int container_id) const {
  std::vector<int> out;
  for (int t = 0; t < topo_->NumHwThreads(); ++t) {
    if (owner_[static_cast<size_t>(t)] == container_id) {
      out.push_back(t);
    }
  }
  return out;
}

double OccupancyMap::Utilization() const {
  return static_cast<double>(BusyThreadCount()) / topo_->NumHwThreads();
}

namespace {

int CountFree(const OccupancyMap& occ, const std::vector<int>& threads) {
  int free = 0;
  for (int t : threads) {
    if (occ.IsFree(t)) {
      ++free;
    }
  }
  return free;
}

}  // namespace

int OccupancyMap::FreeThreadsOnNode(int node) const {
  return CountFree(*this, topo_->HwThreadsOnNode(node));
}

int OccupancyMap::FreeThreadsInL2Group(int l2_group) const {
  return CountFree(*this, topo_->HwThreadsInL2Group(l2_group));
}

std::vector<int> OccupancyMap::FullyFreeNodes() const {
  std::vector<int> out;
  for (int node = 0; node < topo_->num_nodes(); ++node) {
    if (FreeThreadsOnNode(node) == topo_->NodeCapacity()) {
      out.push_back(node);
    }
  }
  return out;
}

int OccupancyMap::NumContainers() const {
  std::vector<int> ids;
  for (int o : owner_) {
    if (o != kFree) {
      ids.push_back(o);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return static_cast<int>(ids.size());
}

std::optional<Placement> RealizeOnFreeThreads(const ImportantPlacement& ip,
                                              const NodeSet& nodes, const Topology& topo,
                                              int vcpus, const OccupancyMap& occ) {
  const int node_count = static_cast<int>(nodes.size());
  NP_CHECK(node_count == ip.NodeCount());
  NP_CHECK_MSG(vcpus % node_count == 0, "unbalanced: vcpus not divisible by node count");
  NP_CHECK_MSG(ip.l3_score % node_count == 0, "unbalanced: L3 groups not even per node");
  NP_CHECK_MSG(ip.l2_score % ip.l3_score == 0,
               "unbalanced: L2 groups not even per L3 group");
  const int l3_per_node = ip.l3_score / node_count;
  const int l2_per_l3 = ip.l2_score / ip.l3_score;
  const int threads_per_l2 = vcpus / ip.l2_score;
  NP_CHECK(l3_per_node <= topo.L3GroupsPerNode());
  NP_CHECK(l2_per_l3 <= topo.L2GroupsPerL3Group());
  NP_CHECK(threads_per_l2 <= topo.L2GroupCapacity());

  Placement placement;
  placement.hw_threads.reserve(static_cast<size_t>(vcpus));
  for (int node : nodes) {
    NP_CHECK(node >= 0 && node < topo.num_nodes());
    // An L3 group qualifies when it still has l2_per_l3 L2 groups with
    // threads_per_l2 free threads each; first-fit in id order keeps the
    // result deterministic and packs low ids first, mirroring Realize().
    int l3_taken = 0;
    for (int l3_group : topo.L3GroupsOnNode(node)) {
      if (l3_taken == l3_per_node) {
        break;
      }
      std::vector<int> usable_l2;
      for (int l2_group : topo.L2GroupsInL3Group(l3_group)) {
        if (occ.FreeThreadsInL2Group(l2_group) >= threads_per_l2) {
          usable_l2.push_back(l2_group);
          if (static_cast<int>(usable_l2.size()) == l2_per_l3) {
            break;
          }
        }
      }
      if (static_cast<int>(usable_l2.size()) < l2_per_l3) {
        continue;
      }
      for (int l2_group : usable_l2) {
        int taken = 0;
        for (int t : topo.HwThreadsInL2Group(l2_group)) {
          if (taken == threads_per_l2) {
            break;
          }
          if (occ.IsFree(t)) {
            placement.hw_threads.push_back(t);
            ++taken;
          }
        }
        NP_CHECK(taken == threads_per_l2);
      }
      ++l3_taken;
    }
    if (l3_taken < l3_per_node) {
      return std::nullopt;
    }
  }
  NP_CHECK(static_cast<int>(placement.hw_threads.size()) == vcpus);
  return placement;
}

namespace {

// All node subsets of the given size, lexicographic.
void EnumerateNodeSets(int num_nodes, int size, NodeSet& prefix,
                       std::vector<NodeSet>& out) {
  if (static_cast<int>(prefix.size()) == size) {
    out.push_back(prefix);
    return;
  }
  const int start = prefix.empty() ? 0 : prefix.back() + 1;
  for (int node = start; node <= num_nodes - (size - static_cast<int>(prefix.size()));
       ++node) {
    prefix.push_back(node);
    EnumerateNodeSets(num_nodes, size, prefix, out);
    prefix.pop_back();
  }
}

}  // namespace

std::optional<Placement> RealizeAnywhereFree(const ImportantPlacement& ip,
                                             const Topology& topo, int vcpus,
                                             const OccupancyMap& occ) {
  // A balanced request needs vcpus / NodeCount free threads on each of its
  // nodes, hence at least vcpus free overall, or no node set passes the
  // pre-filter below. Unbalanced requests still go through it, so the
  // balance checks in RealizeOnFreeThreads keep firing.
  if (occ.FreeThreadCount() < vcpus && vcpus % ip.NodeCount() == 0) {
    return std::nullopt;
  }
  std::vector<NodeSet> candidates;
  NodeSet prefix;
  EnumerateNodeSets(topo.num_nodes(), ip.NodeCount(), prefix, candidates);

  struct Ranked {
    int busy_nodes = 0;
    double bandwidth = 0.0;
    bool class_exact = false;
    const NodeSet* nodes = nullptr;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(candidates.size());
  const int threads_per_node = vcpus / ip.NodeCount();
  for (const NodeSet& nodes : candidates) {
    // Cheap pre-filter: every node needs at least threads_per_node free.
    bool enough = true;
    int busy_nodes = 0;
    for (int node : nodes) {
      const int free = occ.FreeThreadsOnNode(node);
      if (free < threads_per_node) {
        enough = false;
        break;
      }
      if (free < topo.NodeCapacity()) {
        ++busy_nodes;
      }
    }
    if (!enough) {
      continue;
    }
    const double bw = topo.AggregateBandwidth(nodes);
    ranked.push_back(
        {busy_nodes, bw, BandwidthNearlyEqual(bw, ip.interconnect_gbps), &nodes});
  }
  // Prefer node sets sharing the fewest nodes with incumbent containers
  // (co-tenancy on a node means contending for its memory controller), then
  // ones preserving the class's interconnect score, then higher bandwidth;
  // stable sort keeps lexicographic order within ties.
  std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.busy_nodes != b.busy_nodes) {
      return a.busy_nodes < b.busy_nodes;
    }
    if (a.class_exact != b.class_exact) {
      return a.class_exact;
    }
    return a.bandwidth > b.bandwidth;
  });

  for (const Ranked& candidate : ranked) {
    std::optional<Placement> placement =
        RealizeOnFreeThreads(ip, *candidate.nodes, topo, vcpus, occ);
    if (placement.has_value()) {
      return placement;
    }
  }
  return std::nullopt;
}

}  // namespace numaplace
