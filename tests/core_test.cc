// Unit and property tests for the core placement machinery: Algorithm 1
// (score generation), Algorithm 2 (packings), concerns, score vectors,
// placement realization and the occupancy generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/core/concern.h"
#include "src/core/enumerate.h"
#include "src/core/important.h"
#include "src/core/occupancy.h"
#include "src/core/placement.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"

namespace numaplace {
namespace {

TEST(Algorithm1, AmdPaperScores) {
  const Topology amd = AmdOpteron6272();
  // L3: 16 vCPUs over nodes of capacity 8: s in {2,4,8} (s=1 infeasible).
  L3Concern l3;
  EXPECT_EQ(GenerateScores(16, l3, amd), (std::vector<int>{2, 4, 8}));
  // L2: capacity 2, count 32: s in {8, 16}.
  L2SmtConcern l2;
  EXPECT_EQ(GenerateScores(16, l2, amd), (std::vector<int>{8, 16}));
}

TEST(Algorithm1, IntelPaperScores) {
  const Topology intel = IntelXeonE74830v3();
  L3Concern l3;
  EXPECT_EQ(GenerateScores(24, l3, intel), (std::vector<int>{1, 2, 3, 4}));
  L2SmtConcern l2;
  EXPECT_EQ(GenerateScores(24, l2, intel), (std::vector<int>{12, 24}));
}

TEST(Algorithm1, BalanceAndFeasibilityProperties) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int vcpus = 1 + static_cast<int>(rng.NextBelow(64));
    const int count = 1 + static_cast<int>(rng.NextBelow(64));
    const int capacity = 1 + static_cast<int>(rng.NextBelow(16));
    const std::vector<int> scores = GenerateScores(vcpus, count, capacity);
    for (int s : scores) {
      EXPECT_EQ(vcpus % s, 0);
      EXPECT_LE(vcpus / s, capacity);
      EXPECT_GE(s, 1);
      EXPECT_LE(s, count);
    }
    // Completeness: any score not in the list violates a constraint.
    std::set<int> listed(scores.begin(), scores.end());
    for (int s = 1; s <= count; ++s) {
      if (!listed.count(s)) {
        EXPECT_TRUE(vcpus % s != 0 || vcpus / s > capacity);
      }
    }
  }
}

TEST(Algorithm2, PartitionCountsForEightNodes) {
  // Partitions of 8 nodes into parts of sizes {2,4,8}:
  //   [8]: 1, [4,4]: C(8,4)/2 = 35, [4,2,2]: C(8,4)*3 = 210, [2^4]: 105.
  const std::vector<Packing> packings = GeneratePackings({2, 4, 8}, 8);
  EXPECT_EQ(packings.size(), 1u + 35u + 210u + 105u);

  std::map<std::vector<int>, int> by_shape;
  for (const Packing& p : packings) {
    std::vector<int> shape;
    for (const NodeSet& part : p) {
      shape.push_back(static_cast<int>(part.size()));
    }
    std::sort(shape.begin(), shape.end());
    by_shape[shape]++;
  }
  EXPECT_EQ(by_shape[{8}], 1);
  EXPECT_EQ((by_shape[{4, 4}]), 35);
  EXPECT_EQ((by_shape[{2, 2, 4}]), 210);
  EXPECT_EQ((by_shape[{2, 2, 2, 2}]), 105);
}

TEST(Algorithm2, PackingsAreExactPartitions) {
  const std::vector<Packing> packings = GeneratePackings({1, 2, 4}, 4);
  for (const Packing& p : packings) {
    std::set<int> covered;
    size_t total = 0;
    for (const NodeSet& part : p) {
      EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
      covered.insert(part.begin(), part.end());
      total += part.size();
    }
    EXPECT_EQ(covered.size(), 4u);   // covers all nodes
    EXPECT_EQ(total, 4u);            // no overlaps
    EXPECT_EQ(*covered.begin(), 0);
    EXPECT_EQ(*covered.rbegin(), 3);
  }
}

TEST(Algorithm2, NoDuplicatePackings) {
  const std::vector<Packing> packings = GeneratePackings({2, 4}, 6);
  std::set<std::vector<NodeSet>> seen;
  for (Packing p : packings) {
    std::sort(p.begin(), p.end());
    EXPECT_TRUE(seen.insert(p).second) << "duplicate packing";
  }
}

TEST(Concerns, Table1Flags) {
  const Topology amd = AmdOpteron6272();
  const auto concerns = ConcernsFor(amd, true);
  ASSERT_EQ(concerns.size(), 3u);
  EXPECT_EQ(concerns[0]->name(), "L2/SMT");
  EXPECT_TRUE(concerns[0]->AffectsCost());
  EXPECT_TRUE(concerns[0]->InversePerfPossible());
  EXPECT_EQ(concerns[1]->name(), "L3");
  EXPECT_TRUE(concerns[1]->AffectsCost());
  EXPECT_TRUE(concerns[1]->InversePerfPossible());
  EXPECT_EQ(concerns[2]->name(), "Interconnect");
  EXPECT_FALSE(concerns[2]->AffectsCost());
  EXPECT_FALSE(concerns[2]->InversePerfPossible());

  const auto intel_concerns = ConcernsFor(IntelXeonE74830v3(), false);
  EXPECT_EQ(intel_concerns.size(), 2u);
}

TEST(Concerns, AsymmetryDetection) {
  EXPECT_TRUE(InterconnectIsAsymmetric(AmdOpteron6272()));
  EXPECT_FALSE(InterconnectIsAsymmetric(IntelXeonE74830v3()));
  EXPECT_TRUE(InterconnectIsAsymmetric(HaswellClusterOnDie()));
  EXPECT_FALSE(InterconnectIsAsymmetric(SymmetricMachine(4, 4, 1, 1, 5.0)));
}

TEST(Placement, ScoreVectorCountsDistinctResources) {
  const Topology amd = AmdOpteron6272();
  // Two vCPUs on one CMT module: 1 L2 group, 1 node, IC 0.
  Placement p1{{0, 1}};
  const ScoreVector s1 = ScoreOf(p1, amd);
  EXPECT_EQ(s1.l2_score, 1);
  EXPECT_EQ(s1.l3_score, 1);
  EXPECT_DOUBLE_EQ(s1.interconnect_gbps, 0.0);

  // Two vCPUs on separate modules of nodes 0 and 1: 2 L2 groups, 2 nodes,
  // IC = the 0-1 die link.
  Placement p2{{0, 8}};
  const ScoreVector s2 = ScoreOf(p2, amd);
  EXPECT_EQ(s2.l2_score, 2);
  EXPECT_EQ(s2.l3_score, 2);
  EXPECT_NEAR(s2.interconnect_gbps, 3.50, 1e-9);
}

TEST(Placement, ScoreVectorComparisonToleratesRoundingNoise) {
  const ScoreVector a = {4, 2, 2, 10.0};
  // Same class, interconnect perturbed by accumulation-order noise.
  const ScoreVector b = {4, 2, 2, 10.0 + 1e-9};
  EXPECT_TRUE(a == b);
  // A genuinely different bandwidth is still a different class.
  const ScoreVector c = {4, 2, 2, 10.5};
  EXPECT_FALSE(a == c);
  // Integer scores always compare exactly.
  const ScoreVector d = {4, 2, 3, 10.0};
  EXPECT_FALSE(a == d);
}

TEST(Placement, DetectsOversubscription) {
  Placement balanced{{0, 1, 2}};
  EXPECT_TRUE(balanced.IsOneVcpuPerHwThread());
  Placement doubled{{0, 0, 2}};
  EXPECT_FALSE(doubled.IsOneVcpuPerHwThread());
}

TEST(Placement, MeanPairwiseLatencyGrowsWithSpread) {
  const Topology amd = AmdOpteron6272();
  Placement one_node{{0, 1, 2, 3}};
  Placement two_nodes{{0, 1, 8, 9}};
  EXPECT_LT(one_node.MeanPairwiseLatencyNs(amd), two_nodes.MeanPairwiseLatencyNs(amd));
  Placement single{{0}};
  EXPECT_DOUBLE_EQ(single.MeanPairwiseLatencyNs(amd), 0.0);
}

TEST(Realize, FillsL2GroupsAccordingToSharing) {
  const Topology amd = AmdOpteron6272();
  const ImportantPlacementSet set = GenerateImportantPlacements(amd, 16, true);
  for (const auto& ip : set.placements) {
    const Placement p = Realize(ip, amd, 16);
    // Threads per L2 group must be exactly vcpus / l2_score.
    std::map<int, int> group_counts;
    for (int t : p.hw_threads) {
      group_counts[amd.L2GroupOf(t)]++;
    }
    EXPECT_EQ(group_counts.size(), static_cast<size_t>(ip.l2_score));
    for (const auto& [group, count] : group_counts) {
      EXPECT_EQ(count, 16 / ip.l2_score);
    }
    // Threads per node must be exactly vcpus / l3_score.
    std::map<int, int> node_counts;
    for (int t : p.hw_threads) {
      node_counts[amd.NodeOf(t)]++;
    }
    EXPECT_EQ(node_counts.size(), static_cast<size_t>(ip.l3_score));
    for (const auto& [node, count] : node_counts) {
      EXPECT_EQ(count, 16 / ip.l3_score);
    }
  }
}

TEST(Realize, WorksOnAlternativeNodeSets) {
  const Topology amd = AmdOpteron6272();
  const ImportantPlacementSet set = GenerateImportantPlacements(amd, 16, true);
  const auto two_node = set.WithL3Score(2);
  ASSERT_FALSE(two_node.empty());
  const NodeSet other = {6, 7};
  const Placement p = RealizeOnNodes(two_node[0], other, amd, 16);
  EXPECT_EQ(p.NodesUsed(amd), other);
}

TEST(Realize, RejectsMismatchedNodeCount) {
  const Topology amd = AmdOpteron6272();
  const ImportantPlacementSet set = GenerateImportantPlacements(amd, 16, true);
  const auto two_node = set.WithL3Score(2);
  ASSERT_FALSE(two_node.empty());
  EXPECT_THROW(RealizeOnNodes(two_node[0], {0, 1, 2}, amd, 16), std::logic_error);
}

// Property: on randomized symmetric machines, every important placement is
// balanced, feasible, and scores match realization.
TEST(ImportantPlacementsProperty, RandomSymmetricMachines) {
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const int nodes = 2 << rng.NextBelow(3);              // 2, 4, 8
    const int cores = 2 * (1 + static_cast<int>(rng.NextBelow(6)));  // 2..12
    const int smt = 1 + static_cast<int>(rng.NextBelow(2));          // 1..2
    const int cores_per_l2 = (cores % 2 == 0 && rng.NextBelow(2) == 0) ? 2 : 1;
    const Topology topo = SymmetricMachine(nodes, cores, smt, cores_per_l2, 8.0);
    // Pick a vCPU count that has at least one feasible balanced score.
    const int vcpus = nodes * ((topo.NodeCapacity() >= 4) ? 4 : topo.NodeCapacity());
    if (vcpus > topo.NumHwThreads()) {
      continue;
    }
    const ImportantPlacementSet set = GenerateImportantPlacements(topo, vcpus, false);
    EXPECT_FALSE(set.placements.empty());
    for (const auto& ip : set.placements) {
      EXPECT_EQ(vcpus % ip.l3_score, 0);
      EXPECT_LE(vcpus / ip.l3_score, topo.NodeCapacity());
      EXPECT_EQ(vcpus % ip.l2_score, 0);
      EXPECT_LE(vcpus / ip.l2_score, topo.L2GroupCapacity());
      const Placement realized = Realize(ip, topo, vcpus);
      EXPECT_TRUE(realized.IsOneVcpuPerHwThread());
      const ScoreVector score = ScoreOf(realized, topo);
      EXPECT_EQ(score.l2_score, ip.l2_score);
      EXPECT_EQ(score.l3_score, ip.l3_score);
    }
    // Ids are 1..N and unique.
    std::set<int> ids;
    for (const auto& ip : set.placements) {
      ids.insert(ip.id);
    }
    EXPECT_EQ(ids.size(), set.placements.size());
    EXPECT_EQ(*ids.begin(), 1);
    EXPECT_EQ(*ids.rbegin(), static_cast<int>(set.placements.size()));
  }
}

TEST(ImportantPlacements, ParetoNeverRemovesUndominated) {
  // On the AMD machine, every Pareto-surviving packing must not be strictly
  // dominated by any other survivor with the same shape.
  const Topology amd = AmdOpteron6272();
  const ImportantPlacementSet set = GenerateImportantPlacements(amd, 16, true);
  auto key = [&](const Packing& p) {
    std::vector<std::pair<int, double>> k;
    for (const NodeSet& part : p) {
      k.emplace_back(static_cast<int>(part.size()), amd.AggregateBandwidth(part));
    }
    std::sort(k.begin(), k.end());
    return k;
  };
  for (const Packing& a : set.pareto_packings) {
    const auto ka = key(a);
    for (const Packing& b : set.pareto_packings) {
      if (&a == &b) {
        continue;
      }
      const auto kb = key(b);
      if (ka.size() != kb.size()) {
        continue;
      }
      bool same_shape = true;
      for (size_t i = 0; i < ka.size(); ++i) {
        same_shape &= ka[i].first == kb[i].first;
      }
      if (!same_shape) {
        continue;
      }
      bool dominated = true;
      bool strict = false;
      for (size_t i = 0; i < ka.size(); ++i) {
        if (ka[i].second > kb[i].second + 1e-9) {
          dominated = false;
        }
        if (ka[i].second < kb[i].second - 1e-9) {
          strict = true;
        }
      }
      EXPECT_FALSE(dominated && strict) << "survivor dominated by another survivor";
    }
  }
}

TEST(ImportantPlacements, RejectsOversizedContainer) {
  const Topology amd = AmdOpteron6272();
  EXPECT_THROW(GenerateImportantPlacements(amd, 65, true), std::logic_error);
  EXPECT_THROW(GenerateImportantPlacements(amd, 0, true), std::logic_error);
}

TEST(OccupancyMap, GenerationMovesOnEveryOwnerChange) {
  const Topology amd = AmdOpteron6272();
  OccupancyMap occ(amd);
  Placement p;
  p.hw_threads = amd.HwThreadsOnNode(2);

  uint64_t generation = occ.Generation();
  occ.Acquire(7, p);
  EXPECT_NE(occ.Generation(), generation) << "Acquire";

  // A copy starts where its source is and moves on its own.
  OccupancyMap scratch = occ;
  EXPECT_EQ(scratch.Generation(), occ.Generation());
  generation = occ.Generation();
  scratch.Release(7);
  EXPECT_NE(scratch.Generation(), generation);
  EXPECT_EQ(occ.Generation(), generation);

  // Neither a rejected Acquire nor a Release that frees nothing changes an
  // owner, so neither moves the generation.
  Placement overlap;
  overlap.hw_threads = {p.hw_threads[0]};
  EXPECT_THROW(occ.Acquire(8, overlap), std::logic_error);
  EXPECT_EQ(occ.Generation(), generation) << "rejected Acquire";
  EXPECT_EQ(occ.Release(9), 0);
  EXPECT_EQ(occ.Generation(), generation) << "Release of an id owning nothing";

  EXPECT_EQ(occ.Release(7), amd.NodeCapacity());
  EXPECT_NE(occ.Generation(), generation) << "freeing Release";
  generation = occ.Generation();
  EXPECT_EQ(occ.Release(7), 0);
  EXPECT_EQ(occ.Generation(), generation) << "second Release";
}

}  // namespace
}  // namespace numaplace
