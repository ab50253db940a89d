#include "src/topology/topology.h"

#include <algorithm>
#include <deque>

#include "src/util/check.h"

namespace numaplace {

namespace {

// Ids in [first, first + count), ascending — the layout formulas make every
// resource's threads and subgroups a contiguous id range.
std::vector<int> ContiguousRange(int first, int count) {
  std::vector<int> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(first + i);
  }
  return out;
}

}  // namespace

Topology::Topology(std::string name, int num_nodes, int cores_per_node, int smt_per_core,
                   int cores_per_l2_group, std::vector<Link> links, PerfParams perf,
                   int cores_per_l3_group)
    : name_(std::move(name)),
      num_nodes_(num_nodes),
      cores_per_node_(cores_per_node),
      smt_per_core_(smt_per_core),
      cores_per_l2_group_(cores_per_l2_group),
      cores_per_l3_group_(cores_per_l3_group == 0 ? cores_per_node : cores_per_l3_group),
      links_(std::move(links)),
      perf_(perf) {
  NP_CHECK(num_nodes_ > 0);
  NP_CHECK(cores_per_node_ > 0);
  NP_CHECK(smt_per_core_ > 0);
  NP_CHECK(cores_per_l2_group_ > 0);
  NP_CHECK(cores_per_l3_group_ > 0);
  NP_CHECK_MSG(cores_per_node_ % cores_per_l3_group_ == 0,
               "L3 groups must not straddle nodes: " << cores_per_node_ << " cores/node, "
                                                     << cores_per_l3_group_ << " cores/L3");
  NP_CHECK_MSG(cores_per_l3_group_ % cores_per_l2_group_ == 0,
               "L2 groups must not straddle L3 groups: " << cores_per_l3_group_
                                                         << " cores/L3, "
                                                         << cores_per_l2_group_
                                                         << " cores/L2");

  link_bw_.assign(static_cast<size_t>(num_nodes_) * num_nodes_, 0.0);
  for (const Link& link : links_) {
    NP_CHECK(link.node_a >= 0 && link.node_a < num_nodes_);
    NP_CHECK(link.node_b >= 0 && link.node_b < num_nodes_);
    NP_CHECK_MSG(link.node_a != link.node_b, "self-link on node " << link.node_a);
    NP_CHECK_MSG(link.bandwidth_gbps > 0.0, "non-positive link bandwidth");
    double& fwd = link_bw_[static_cast<size_t>(link.node_a) * num_nodes_ + link.node_b];
    NP_CHECK_MSG(fwd == 0.0, "duplicate link " << link.node_a << "-" << link.node_b);
    fwd = link.bandwidth_gbps;
    link_bw_[static_cast<size_t>(link.node_b) * num_nodes_ + link.node_a] =
        link.bandwidth_gbps;
  }

  // All-pairs hop distances by BFS from each node (graphs here are tiny).
  const int kUnreachable = NumHwThreads() + num_nodes_;
  hop_.assign(static_cast<size_t>(num_nodes_) * num_nodes_, kUnreachable);
  for (int src = 0; src < num_nodes_; ++src) {
    std::deque<int> queue;
    hop_[static_cast<size_t>(src) * num_nodes_ + src] = 0;
    queue.push_back(src);
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      const int cur_d = hop_[static_cast<size_t>(src) * num_nodes_ + cur];
      for (int next = 0; next < num_nodes_; ++next) {
        if (link_bw_[static_cast<size_t>(cur) * num_nodes_ + next] > 0.0 &&
            hop_[static_cast<size_t>(src) * num_nodes_ + next] == kUnreachable) {
          hop_[static_cast<size_t>(src) * num_nodes_ + next] = cur_d + 1;
          queue.push_back(next);
        }
      }
    }
  }
}

int Topology::CoreOf(int hw_thread) const {
  NP_CHECK(hw_thread >= 0 && hw_thread < NumHwThreads());
  return hw_thread / smt_per_core_;
}

int Topology::NodeOf(int hw_thread) const { return CoreOf(hw_thread) / cores_per_node_; }

int Topology::L2GroupOf(int hw_thread) const { return CoreOf(hw_thread) / cores_per_l2_group_; }

int Topology::L3GroupOf(int hw_thread) const { return CoreOf(hw_thread) / cores_per_l3_group_; }

int Topology::SmtSiblingIndexOf(int hw_thread) const {
  NP_CHECK(hw_thread >= 0 && hw_thread < NumHwThreads());
  return hw_thread % smt_per_core_;
}

ThreadLocation Topology::LocationOf(int hw_thread) const {
  const int core = CoreOf(hw_thread);
  return {hw_thread, core, core / cores_per_l2_group_, core / cores_per_l3_group_,
          core / cores_per_node_};
}

std::vector<int> Topology::HwThreadsOnNode(int node) const {
  NP_CHECK(node >= 0 && node < num_nodes_);
  return ContiguousRange(node * NodeCapacity(), NodeCapacity());
}

std::vector<int> Topology::HwThreadsInL2Group(int l2_group) const {
  NP_CHECK(l2_group >= 0 && l2_group < NumL2Groups());
  return ContiguousRange(l2_group * L2GroupCapacity(), L2GroupCapacity());
}

std::vector<int> Topology::L3GroupsOnNode(int node) const {
  NP_CHECK(node >= 0 && node < num_nodes_);
  return ContiguousRange(node * L3GroupsPerNode(), L3GroupsPerNode());
}

std::vector<int> Topology::L2GroupsInL3Group(int l3_group) const {
  NP_CHECK(l3_group >= 0 && l3_group < NumL3Groups());
  return ContiguousRange(l3_group * L2GroupsPerL3Group(), L2GroupsPerL3Group());
}

double Topology::LinkBandwidth(int node_a, int node_b) const {
  NP_CHECK(node_a >= 0 && node_a < num_nodes_);
  NP_CHECK(node_b >= 0 && node_b < num_nodes_);
  if (node_a == node_b) {
    return 0.0;
  }
  return link_bw_[static_cast<size_t>(node_a) * num_nodes_ + node_b];
}

int Topology::HopDistance(int node_a, int node_b) const {
  NP_CHECK(node_a >= 0 && node_a < num_nodes_);
  NP_CHECK(node_b >= 0 && node_b < num_nodes_);
  return hop_[static_cast<size_t>(node_a) * num_nodes_ + node_b];
}

double Topology::AggregateBandwidth(std::span<const int> nodes) const {
  double total = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      total += LinkBandwidth(nodes[i], nodes[j]);
    }
  }
  return total;
}

double Topology::CommunicationLatencyNs(int hw_thread_a, int hw_thread_b) const {
  return CommunicationLatencyNs(LocationOf(hw_thread_a), LocationOf(hw_thread_b));
}

double Topology::CommunicationLatencyNs(const ThreadLocation& a,
                                        const ThreadLocation& b) const {
  if (a.hw_thread == b.hw_thread) {
    return 0.0;
  }
  if (a.core == b.core) {
    return perf_.lat_same_core_ns;
  }
  if (a.l2_group == b.l2_group) {
    return perf_.lat_same_l2_ns;
  }
  if (a.l3_group == b.l3_group) {
    return perf_.lat_same_l3_ns > 0.0 ? perf_.lat_same_l3_ns : perf_.lat_same_node_ns;
  }
  if (a.node == b.node) {
    return perf_.lat_same_node_ns;
  }
  const int hops = hop_[static_cast<size_t>(a.node) * num_nodes_ + b.node];
  return perf_.lat_one_hop_ns + perf_.lat_extra_hop_ns * static_cast<double>(hops - 1);
}

double Topology::MeanPairwiseLatencyNs(std::span<const ThreadLocation> threads) const {
  const size_t n = threads.size();
  if (n < 2) {
    return 0.0;
  }
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      total += CommunicationLatencyNs(threads[i], threads[j]);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

}  // namespace numaplace
