#include "src/core/placement.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/util/check.h"

namespace numaplace {

namespace {

// The distinct ids `mapper` gives the threads, ascending.
std::vector<int> DistinctMapped(const std::vector<int>& hw_threads, const Topology& topo,
                                int (Topology::*mapper)(int) const) {
  std::vector<int> distinct;
  distinct.reserve(hw_threads.size());
  for (int t : hw_threads) {
    distinct.push_back((topo.*mapper)(t));
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  return distinct;
}

}  // namespace

NodeSet Placement::NodesUsed(const Topology& topo) const {
  return DistinctMapped(hw_threads, topo, &Topology::NodeOf);
}

std::vector<int> Placement::L3GroupsUsed(const Topology& topo) const {
  return DistinctMapped(hw_threads, topo, &Topology::L3GroupOf);
}

std::vector<int> Placement::L2GroupsUsed(const Topology& topo) const {
  return DistinctMapped(hw_threads, topo, &Topology::L2GroupOf);
}

std::vector<int> Placement::CoresUsed(const Topology& topo) const {
  return DistinctMapped(hw_threads, topo, &Topology::CoreOf);
}

bool Placement::IsOneVcpuPerHwThread() const {
  std::set<int> distinct(hw_threads.begin(), hw_threads.end());
  return distinct.size() == hw_threads.size();
}

double Placement::MeanPairwiseLatencyNs(const Topology& topo) const {
  if (hw_threads.size() < 2) {
    return 0.0;
  }
  std::vector<ThreadLocation> where;
  where.reserve(hw_threads.size());
  for (int t : hw_threads) {
    where.push_back(topo.LocationOf(t));
  }
  return topo.MeanPairwiseLatencyNs(where);
}

std::string Placement::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < hw_threads.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << hw_threads[i];
  }
  os << "]";
  return os.str();
}

std::string ScoreVector::ToString() const {
  std::ostringstream os;
  os << "[L2=" << l2_score << ", L3=" << l3_score;
  if (mem_score != l3_score) {
    os << ", MemCtl=" << mem_score;
  }
  os << ", IC=" << interconnect_gbps << "]";
  return os.str();
}

ScoreVector ScoreOf(const Placement& placement, const Topology& topo) {
  NP_CHECK(!placement.hw_threads.empty());
  ScoreVector score;
  score.l2_score = static_cast<int>(placement.L2GroupsUsed(topo).size());
  score.l3_score = static_cast<int>(placement.L3GroupsUsed(topo).size());
  const NodeSet nodes = placement.NodesUsed(topo);
  score.mem_score = static_cast<int>(nodes.size());
  score.interconnect_gbps = topo.AggregateBandwidth(nodes);
  return score;
}

}  // namespace numaplace
