// Algorithm 3 (§4): filter the packings down to the Pareto-efficient set and
// expand the surviving placement classes with their compatible L2 scores,
// producing the machine's important placements for a given vCPU count.
#ifndef NUMAPLACE_SRC_CORE_IMPORTANT_H_
#define NUMAPLACE_SRC_CORE_IMPORTANT_H_

#include <string>
#include <vector>

#include "src/core/enumerate.h"
#include "src/core/placement.h"
#include "src/topology/topology.h"

namespace numaplace {

// One important placement: a placement class (identified by its score
// vector) together with a representative node set it can be realized on.
struct ImportantPlacement {
  int id = 0;               // 1-based; stable deterministic ordering
  NodeSet nodes;            // representative node set
  int l3_score = 0;         // L3 caches in use (== nodes.size() classically)
  int l2_score = 0;         // L2 groups in use
  double interconnect_gbps = 0.0;
  bool shares_l2 = false;   // more than one vCPU per L2 group

  // NUMA nodes in use — the resource-allocation unit (§3). On machines with
  // one L3 per node this equals l3_score.
  int NodeCount() const { return static_cast<int>(nodes.size()); }

  ScoreVector Score() const {
    return {l2_score, l3_score, NodeCount(), interconnect_gbps};
  }
  std::string ToString() const;
};

struct ImportantPlacementSet {
  int vcpus = 0;
  std::vector<ImportantPlacement> placements;
  // The Pareto-efficient packings that produced them; the packing policies
  // use these to co-locate several containers without interference.
  std::vector<Packing> pareto_packings;

  const ImportantPlacement& ById(int id) const;
  // Placements whose L3 score is exactly `l3_score`.
  std::vector<ImportantPlacement> WithL3Score(int l3_score) const;
};

// Runs the full §4 pipeline: Algorithm 1 (scores), Algorithm 2 (packings),
// duplicate removal, the interconnect Pareto filter, and L2 expansion.
//
// `use_interconnect_concern` should be true on machines with an asymmetric
// interconnect (see InterconnectIsAsymmetric); with it false, packings are
// deduplicated purely by their L3-score multiset, which is what the paper
// does on the Intel system.
//
// Deviation from the paper's pseudocode, documented in DESIGN.md: packings
// with identical sorted score vectors would remove each other under the
// printed permutation loop; we deduplicate by score first and then remove
// only strictly dominated packings.
ImportantPlacementSet GenerateImportantPlacements(const Topology& topo, int vcpus,
                                                  bool use_interconnect_concern);

// Realizes an important placement as a concrete vCPU -> hardware-thread
// assignment on its representative nodes: vCPUs are spread evenly over the
// nodes, then over l3_score/NodeCount L3 groups per node, then over
// l2_score/l3_score L2 groups per L3 group (lowest hardware-thread ids
// first).
Placement Realize(const ImportantPlacement& ip, const Topology& topo, int vcpus);

// Realizes the same placement class on a different node set of equal size
// (used when packing multiple containers).
Placement RealizeOnNodes(const ImportantPlacement& ip, const NodeSet& nodes,
                         const Topology& topo, int vcpus);

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_CORE_IMPORTANT_H_
