#include "src/core/important.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "src/util/check.h"

namespace numaplace {

namespace {

// Bandwidths come from a fixed measured table, so exact comparison is almost
// right; quantization guards against accumulation-order noise in sums.
int64_t QuantizeBw(double gbps) { return static_cast<int64_t>(std::llround(gbps * 1e6)); }

// Sorted multiset of (part size, quantized interconnect score): the identity
// of a packing with respect to resource sharing.
using PackingKey = std::vector<std::pair<int, int64_t>>;

PackingKey KeyOf(const Packing& packing, const Topology& topo, bool use_ic) {
  PackingKey key;
  key.reserve(packing.size());
  for (const NodeSet& part : packing) {
    const int64_t ic = use_ic ? QuantizeBw(topo.AggregateBandwidth(part)) : 0;
    key.emplace_back(static_cast<int>(part.size()), ic);
  }
  std::sort(key.begin(), key.end());
  return key;
}

// Sorted multiset of part sizes only (the L3-score multiset).
std::vector<int> SizesOf(const PackingKey& key) {
  std::vector<int> sizes;
  sizes.reserve(key.size());
  for (const auto& [size, ic] : key) {
    sizes.push_back(size);
  }
  return sizes;  // already sorted: key is sorted with size as primary
}

// True when every element of a's sorted IC vector is <= b's and at least one
// is strictly smaller. Both keys must have the same L3-score multiset and
// therefore the same length.
bool StrictlyDominated(const PackingKey& a, const PackingKey& b) {
  NP_CHECK(a.size() == b.size());
  bool any_strict = false;
  for (size_t i = 0; i < a.size(); ++i) {
    NP_CHECK(a[i].first == b[i].first);
    if (a[i].second > b[i].second) {
      return false;
    }
    if (a[i].second < b[i].second) {
      any_strict = true;
    }
  }
  return any_strict;
}

}  // namespace

std::string ImportantPlacement::ToString() const {
  std::ostringstream os;
  os << "#" << id << " nodes={";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << nodes[i];
  }
  os << "} L3=" << l3_score << " L2=" << l2_score << (shares_l2 ? " (shared L2)" : "")
     << " IC=" << interconnect_gbps;
  if (l3_score != NodeCount()) {
    os << " (split L3: " << NodeCount() << " memory controllers)";
  }
  return os.str();
}

const ImportantPlacement& ImportantPlacementSet::ById(int id) const {
  for (const ImportantPlacement& p : placements) {
    if (p.id == id) {
      return p;
    }
  }
  NP_CHECK_MSG(false, "no important placement with id " << id);
  __builtin_unreachable();
}

std::vector<ImportantPlacement> ImportantPlacementSet::WithL3Score(int l3_score) const {
  std::vector<ImportantPlacement> out;
  for (const ImportantPlacement& p : placements) {
    if (p.l3_score == l3_score) {
      out.push_back(p);
    }
  }
  return out;
}

ImportantPlacementSet GenerateImportantPlacements(const Topology& topo, int vcpus,
                                                  bool use_interconnect_concern) {
  NP_CHECK(vcpus > 0);
  NP_CHECK_MSG(vcpus <= topo.NumHwThreads(),
               "container has more vCPUs than the machine has hardware threads");

  // Algorithm 1: balanced + feasible scores per countable concern. The node
  // (memory-controller) scores size the packings, because the NUMA node is
  // the unit of resource allocation (§3); on the paper's machines the L3
  // concern coincides with it, on split-L3 machines (Zen, §8) the L3 scores
  // become an extra expansion dimension like the L2 scores.
  const std::vector<int> mem_scores =
      GenerateScores(vcpus, topo.num_nodes(), topo.NodeCapacity());
  const std::vector<int> l3_scores =
      GenerateScores(vcpus, topo.NumL3Groups(), topo.L3GroupCapacity());
  const std::vector<int> l2_scores =
      GenerateScores(vcpus, topo.NumL2Groups(), topo.L2GroupCapacity());
  NP_CHECK_MSG(!mem_scores.empty(),
               "no feasible balanced node count for " << vcpus << " vCPUs");
  NP_CHECK_MSG(!l3_scores.empty(), "no feasible balanced L3 score for " << vcpus << " vCPUs");
  NP_CHECK_MSG(!l2_scores.empty(), "no feasible balanced L2 score for " << vcpus << " vCPUs");

  // Algorithm 2: all packings of the nodes into node-score-sized parts.
  const std::vector<Packing> all_packings = GeneratePackings(mem_scores, topo.num_nodes());

  // Duplicate removal: keep one representative packing per score-multiset.
  std::map<PackingKey, Packing> unique;
  for (const Packing& packing : all_packings) {
    unique.try_emplace(KeyOf(packing, topo, use_interconnect_concern), packing);
  }

  // Algorithm 3, Pareto phase: within each group of packings with identical
  // L3-score multisets, drop the ones strictly dominated on the sorted
  // interconnect-score vector. (The interconnect concern does not affect cost
  // and can never have an inverse relationship with performance; the L2 and
  // L3 concerns can, so no filtering happens on them.) Strict domination is
  // irreflexive and transitive, so filtering against the full group is safe:
  // a dominator always survives or is itself dominated by a survivor.
  std::vector<std::pair<PackingKey, Packing>> survivors;
  if (use_interconnect_concern) {
    for (const auto& [key, packing] : unique) {
      bool dominated = false;
      const std::vector<int> sizes = SizesOf(key);
      for (const auto& [other_key, other] : unique) {
        if (&other == &packing || SizesOf(other_key) != sizes) {
          continue;
        }
        if (StrictlyDominated(key, other_key)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        survivors.emplace_back(key, packing);
      }
    }
  } else {
    survivors.assign(unique.begin(), unique.end());
  }

  // Collect distinct placement classes (l3 score, interconnect score) with a
  // representative node set from the surviving packings.
  std::map<std::pair<int, int64_t>, NodeSet> classes;
  for (const auto& [key, packing] : survivors) {
    for (const NodeSet& part : packing) {
      const int64_t ic =
          use_interconnect_concern ? QuantizeBw(topo.AggregateBandwidth(part)) : 0;
      classes.try_emplace({static_cast<int>(part.size()), ic}, part);
    }
  }

  // Algorithm 3, cache expansion: each node-set class is paired with every
  // compatible L3 score (split-L3 machines only; degenerate otherwise) and
  // every compatible L2 score. Compatibility keeps the placement balanced:
  // the finer level's score must divide evenly over the coarser level's
  // instances, and the chosen instances must physically exist underneath.
  ImportantPlacementSet result;
  result.vcpus = vcpus;
  const int l3_groups_per_node = topo.L3GroupsPerNode();
  const int l2_groups_per_l3 = topo.L2GroupsPerL3Group();
  for (const auto& [class_key, nodes] : classes) {
    const int node_count = class_key.first;
    for (int l3s : l3_scores) {
      if (l3s % node_count != 0 || l3s / node_count > l3_groups_per_node) {
        continue;
      }
      for (int l2s : l2_scores) {
        if (l2s % l3s != 0 || l2s / l3s > l2_groups_per_l3) {
          continue;
        }
        ImportantPlacement ip;
        ip.nodes = nodes;
        ip.l3_score = l3s;
        ip.l2_score = l2s;
        ip.interconnect_gbps = topo.AggregateBandwidth(nodes);
        ip.shares_l2 = vcpus / l2s > 1;
        result.placements.push_back(std::move(ip));
      }
    }
  }

  // Deterministic numbering: by node count, then L3 score, then L2 score,
  // then decreasing interconnect bandwidth. Placement #1 is thus the
  // fewest-node, most-shared configuration (the AMD baseline in the paper).
  std::sort(result.placements.begin(), result.placements.end(),
            [](const ImportantPlacement& a, const ImportantPlacement& b) {
              if (a.NodeCount() != b.NodeCount()) {
                return a.NodeCount() < b.NodeCount();
              }
              if (a.l3_score != b.l3_score) {
                return a.l3_score < b.l3_score;
              }
              if (a.l2_score != b.l2_score) {
                return a.l2_score < b.l2_score;
              }
              return a.interconnect_gbps > b.interconnect_gbps;
            });
  for (size_t i = 0; i < result.placements.size(); ++i) {
    result.placements[i].id = static_cast<int>(i) + 1;
  }

  for (auto& [key, packing] : survivors) {
    result.pareto_packings.push_back(std::move(packing));
  }
  return result;
}

Placement RealizeOnNodes(const ImportantPlacement& ip, const NodeSet& nodes,
                         const Topology& topo, int vcpus) {
  const int node_count = static_cast<int>(nodes.size());
  NP_CHECK(node_count == ip.NodeCount());
  NP_CHECK_MSG(vcpus % node_count == 0, "unbalanced: vcpus not divisible by node count");
  NP_CHECK_MSG(ip.l3_score % node_count == 0, "unbalanced: L3 groups not even per node");
  NP_CHECK_MSG(ip.l2_score % ip.l3_score == 0,
               "unbalanced: L2 groups not even per L3 group");
  const int threads_per_node = vcpus / node_count;
  const int l3_per_node = ip.l3_score / node_count;
  const int l2_per_l3 = ip.l2_score / ip.l3_score;
  const int threads_per_l2 = vcpus / ip.l2_score;
  NP_CHECK(l3_per_node <= topo.L3GroupsPerNode());
  NP_CHECK(l2_per_l3 <= topo.L2GroupsPerL3Group());
  NP_CHECK(threads_per_l2 <= topo.L2GroupCapacity());
  NP_CHECK(threads_per_node <= topo.NodeCapacity());

  Placement placement;
  placement.hw_threads.reserve(static_cast<size_t>(vcpus));
  for (int node : nodes) {
    NP_CHECK(node >= 0 && node < topo.num_nodes());
    const int first_core = node * topo.cores_per_node();
    for (int g3 = 0; g3 < l3_per_node; ++g3) {
      const int l3_first_core = first_core + g3 * topo.cores_per_l3_group();
      for (int g2 = 0; g2 < l2_per_l3; ++g2) {
        // First hardware thread of the g2-th L2 group in this L3 group.
        const int group_first_thread =
            (l3_first_core + g2 * topo.cores_per_l2_group()) * topo.smt_per_core();
        for (int t = 0; t < threads_per_l2; ++t) {
          placement.hw_threads.push_back(group_first_thread + t);
        }
      }
    }
  }
  NP_CHECK(static_cast<int>(placement.hw_threads.size()) == vcpus);
  return placement;
}

Placement Realize(const ImportantPlacement& ip, const Topology& topo, int vcpus) {
  return RealizeOnNodes(ip, ip.nodes, topo, vcpus);
}

}  // namespace numaplace
