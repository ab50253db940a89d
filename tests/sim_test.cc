// Tests for the performance simulator: directional physics checks, Fig. 1
// qualitative shapes, multi-tenant interference, HPE sampler, Linux mapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/concern.h"
#include "src/core/important.h"
#include "src/sim/hpe.h"
#include "src/sim/linux_mapper.h"
#include "src/sim/perf_model.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/profile.h"
#include "src/workloads/synth.h"

namespace numaplace {
namespace {

Placement PlaceOn(const Topology& topo, const NodeSet& nodes, int vcpus, bool share_l2) {
  ImportantPlacement ip;
  ip.nodes = nodes;
  ip.l3_score = static_cast<int>(nodes.size());
  ip.l2_score = share_l2 ? vcpus / 2 : vcpus;
  return RealizeOnNodes(ip, nodes, topo, vcpus);
}

TEST(PerfModel, Fig1IntelShape) {
  // "On the Intel system, the application performs significantly better when
  //  all of its threads run on a single node."
  const Topology intel = IntelXeonE74830v3();
  PerformanceModel sim(intel);
  const WorkloadProfile wt = PaperWorkload("WTbtree");
  const double one = sim.Evaluate(wt, PlaceOn(intel, {0}, 16, true)).throughput_ops;
  const double two = sim.Evaluate(wt, PlaceOn(intel, {0, 1}, 16, false)).throughput_ops;
  const double four = sim.Evaluate(wt, PlaceOn(intel, {0, 1, 2, 3}, 16, false)).throughput_ops;
  EXPECT_GT(one, two);
  EXPECT_GT(two, four);
}

TEST(PerfModel, Fig1AmdShape) {
  // "On the AMD system, four nodes are better than two, only if we do not
  //  use SMT, but using eight nodes does not buy you better performance."
  const Topology amd = AmdOpteron6272();
  PerformanceModel sim(amd);
  const WorkloadProfile wt = PaperWorkload("WTbtree");
  const double two_smt = sim.Evaluate(wt, PlaceOn(amd, {0, 1}, 16, true)).throughput_ops;
  const double four_no = sim.Evaluate(wt, PlaceOn(amd, {2, 3, 4, 5}, 16, false)).throughput_ops;
  const double four_smt = sim.Evaluate(wt, PlaceOn(amd, {2, 3, 4, 5}, 16, true)).throughput_ops;
  const double eight_no =
      sim.Evaluate(wt, PlaceOn(amd, {0, 1, 2, 3, 4, 5, 6, 7}, 16, false)).throughput_ops;
  EXPECT_GT(four_no, two_smt);          // 4 nodes beat 2...
  EXPECT_GT(four_no, four_smt);         // ...only without SMT
  EXPECT_LT(eight_no, 1.1 * four_no);   // 8 nodes buy nothing
}

TEST(PerfModel, CommunicationLatencyHurtsCommHeavyOnly) {
  const Topology amd = AmdOpteron6272();
  PerformanceModel sim(amd);
  WorkloadProfile chatty = PaperWorkload("WTbtree");      // comm 0.8
  WorkloadProfile silent = PaperWorkload("gcc");          // comm 0.0
  const Placement near = PlaceOn(amd, {0, 1}, 16, true);
  const Placement far = PlaceOn(amd, {0, 7}, 16, true);   // no direct link
  const double chatty_drop =
      sim.Evaluate(chatty, far).throughput_ops / sim.Evaluate(chatty, near).throughput_ops;
  const double silent_drop =
      sim.Evaluate(silent, far).throughput_ops / sim.Evaluate(silent, near).throughput_ops;
  EXPECT_LT(chatty_drop, 0.9);
  EXPECT_GT(silent_drop, 0.95);
}

TEST(PerfModel, BandwidthBoundWorkloadScalesWithNodes) {
  const Topology amd = AmdOpteron6272();
  PerformanceModel sim(amd);
  const WorkloadProfile sc = PaperWorkload("streamcluster");
  const double two = sim.Evaluate(sc, PlaceOn(amd, {0, 1}, 16, true)).throughput_ops;
  const double eight =
      sim.Evaluate(sc, PlaceOn(amd, {0, 1, 2, 3, 4, 5, 6, 7}, 16, false)).throughput_ops;
  EXPECT_GT(eight, 1.3 * two);
}

TEST(PerfModel, SmtFriendlyWorkloadPrefersSharing) {
  // kmeans was "the only benchmark in our training set that preferred SMT".
  const Topology amd = AmdOpteron6272();
  PerformanceModel sim(amd);
  const WorkloadProfile km = PaperWorkload("kmeans");
  const double shared = sim.Evaluate(km, PlaceOn(amd, {2, 3, 4, 5}, 16, true)).throughput_ops;
  const double spread = sim.Evaluate(km, PlaceOn(amd, {2, 3, 4, 5}, 16, false)).throughput_ops;
  EXPECT_GT(shared, 0.98 * spread);
}

TEST(PerfModel, ComputeBoundWorkloadIsPlacementInsensitive) {
  const Topology amd = AmdOpteron6272();
  PerformanceModel sim(amd);
  const WorkloadProfile sw = PaperWorkload("swaptions");
  std::vector<double> values;
  values.push_back(sim.Evaluate(sw, PlaceOn(amd, {0, 1}, 16, true)).throughput_ops);
  values.push_back(sim.Evaluate(sw, PlaceOn(amd, {2, 3, 4, 5}, 16, false)).throughput_ops);
  values.push_back(
      sim.Evaluate(sw, PlaceOn(amd, {0, 1, 2, 3, 4, 5, 6, 7}, 16, false)).throughput_ops);
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  EXPECT_LT((hi - lo) / hi, 0.15);
}

TEST(PerfModel, UnbalancedSmtStackingCreatesStragglers) {
  // Unpinned Linux sometimes stacks some vCPUs on SMT siblings while whole
  // cores idle ("Linux may map vCPUs unevenly to shared resources"). For a
  // barrier-synchronized workload, the stacked stragglers gate everyone.
  const Topology intel = IntelXeonE74830v3();
  PerformanceModel sim(intel);
  WorkloadProfile barrier = PaperWorkload("streamcluster");  // barrier 0.6
  const Placement balanced = PlaceOn(intel, {0, 1}, 16, false);  // 16 own cores
  Placement stacked;
  for (int c = 0; c < 4; ++c) {
    stacked.hw_threads.push_back(2 * c);      // cores 0..3 doubly loaded
    stacked.hw_threads.push_back(2 * c + 1);  // (both SMT siblings)
  }
  for (int c = 12; c < 20; ++c) {
    stacked.hw_threads.push_back(2 * c);      // 8 vCPUs on their own node-1 cores
  }
  const double bal = sim.Evaluate(barrier, balanced).throughput_ops;
  const double skew = sim.Evaluate(barrier, stacked).throughput_ops;
  EXPECT_LT(skew, 0.9 * bal);
}

TEST(PerfModel, NoiseIsBoundedAndSeedStable) {
  const Topology amd = AmdOpteron6272();
  PerformanceModel noisy(amd, 0.02, 7);
  const WorkloadProfile w = PaperWorkload("gcc");
  const Placement p = PlaceOn(amd, {0, 1}, 16, true);
  const double a = noisy.Evaluate(w, p, 1).throughput_ops;
  const double b = noisy.Evaluate(w, p, 1).throughput_ops;
  EXPECT_DOUBLE_EQ(a, b);  // same run index -> same measurement
  const double c = noisy.Evaluate(w, p, 2).throughput_ops;
  EXPECT_NE(a, c);         // different run -> different noise
  EXPECT_NEAR(a / c, 1.0, 0.2);
  PerformanceModel clean(amd);
  const double det = clean.Evaluate(w, p).throughput_ops;
  EXPECT_NEAR(a / det, 1.0, 0.1);
}

TEST(MultiTenant, NodeSharingInterferesDisjointDoesNot) {
  const Topology amd = AmdOpteron6272();
  PerformanceModel solo(amd);
  MultiTenantModel multi(amd);
  const WorkloadProfile sc = PaperWorkload("streamcluster");

  const Placement p01 = PlaceOn(amd, {0, 1}, 16, true);
  const Placement p23 = PlaceOn(amd, {2, 3}, 16, true);
  const double alone = solo.Evaluate(sc, p01).throughput_ops;

  // Disjoint co-location: both tenants keep ~solo throughput.
  {
    const auto results = multi.Evaluate({{&sc, p01}, {&sc, p23}});
    EXPECT_NEAR(results[0].throughput_ops / alone, 1.0, 0.05);
    EXPECT_NEAR(results[1].throughput_ops / alone, 1.0, 0.05);
  }
  // Same-node co-location (SMT halves of the same cores are already taken,
  // so stack a second tenant on nodes {0,1} using the other module cores):
  // bandwidth and cache are shared -> both lose throughput.
  {
    Placement other_half;
    for (int t : p01.hw_threads) {
      other_half.hw_threads.push_back(t + 1);  // the sibling core in the module
    }
    const auto results = multi.Evaluate({{&sc, p01}, {&sc, other_half}});
    EXPECT_LT(results[0].throughput_ops, 0.8 * alone);
    EXPECT_LT(results[1].throughput_ops, 0.8 * alone);
  }
}

TEST(Hpe, CounterCountAndNames) {
  const Topology intel = IntelXeonE74830v3();
  PerformanceModel sim(intel);
  HpeSampler sampler(sim, 41, 5);
  EXPECT_EQ(sampler.CounterNames().size(), 41u);
  EXPECT_EQ(sampler.CounterNames()[0], "ipc");
  const WorkloadProfile w = PaperWorkload("canneal");
  const Placement p = PlaceOn(intel, {0}, 24, true);
  const std::vector<double> v = sampler.Sample(w, p);
  EXPECT_EQ(v.size(), 41u);
  for (double x : v) {
    EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(Hpe, InformativeCountersTrackPlacement) {
  const Topology amd = AmdOpteron6272();
  PerformanceModel sim(amd);
  HpeSampler sampler(sim, 25, 5);
  const WorkloadProfile sc = PaperWorkload("streamcluster");
  const auto few = sampler.Sample(sc, PlaceOn(amd, {0, 1}, 16, true));
  const auto many = sampler.Sample(sc, PlaceOn(amd, {0, 1, 2, 3, 4, 5, 6, 7}, 16, false));
  // L3 miss rate (index 2) falls with more cache; remote fraction (5) rises.
  EXPECT_GT(few[2], many[2] * 0.99);
  EXPECT_LT(few[5], many[5]);
}

TEST(Hpe, NoiseCountersCarryNoPlacementSignal) {
  const Topology amd = AmdOpteron6272();
  PerformanceModel sim(amd);
  HpeSampler sampler(sim, 25, 5);
  const WorkloadProfile w = PaperWorkload("gcc");
  const auto a = sampler.Sample(w, PlaceOn(amd, {0, 1}, 16, true));
  const auto b = sampler.Sample(w, PlaceOn(amd, {2, 3, 4, 5}, 16, false));
  // The trailing noise counters differ only by measurement noise (3%).
  for (size_t i = HpeSampler::kNumInformativeCounters; i < a.size(); ++i) {
    EXPECT_NEAR(a[i] / b[i], 1.0, 0.2) << "counter " << i;
  }
}

TEST(LinuxMapper, ProducesValidPlacements) {
  const Topology intel = IntelXeonE74830v3();
  LinuxMapper mapper(intel);
  Rng rng(71);
  for (int trial = 0; trial < 50; ++trial) {
    const Placement p = mapper.Map(24, rng);
    EXPECT_EQ(p.NumVcpus(), 24);
    EXPECT_TRUE(p.IsOneVcpuPerHwThread());
    for (int t : p.hw_threads) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, intel.NumHwThreads());
    }
  }
}

TEST(LinuxMapper, RespectsOccupiedThreadsAndAllowedNodes) {
  const Topology amd = AmdOpteron6272();
  LinuxMapper mapper(amd);
  Rng rng(72);
  const NodeSet allowed = {2, 3};
  std::vector<int> occupied;
  for (int t : amd.HwThreadsOnNode(2)) {
    occupied.push_back(t);
  }
  const Placement p = mapper.Map(8, allowed, occupied, rng);
  for (int t : p.hw_threads) {
    EXPECT_EQ(amd.NodeOf(t), 3);  // node 2 fully occupied
  }
  EXPECT_THROW(mapper.Map(9, allowed, occupied, rng), std::logic_error);
}

TEST(LinuxMapper, ImbalanceProducesNodeSkewSometimes) {
  const Topology amd = AmdOpteron6272();
  LinuxMapper mapper(amd, 0.4);
  Rng rng(73);
  int skewed_trials = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const Placement p = mapper.Map(16, rng);
    std::map<int, int> per_node;
    for (int t : p.hw_threads) {
      per_node[amd.NodeOf(t)]++;
    }
    int max_count = 0;
    for (const auto& [node, count] : per_node) {
      max_count = std::max(max_count, count);
    }
    if (max_count >= 4) {
      ++skewed_trials;  // 16 threads over 8 nodes balanced would be 2 each
    }
  }
  EXPECT_GT(skewed_trials, 5);
}

TEST(Synth, ArchetypesProduceDistinctBehaviours) {
  const Topology intel = IntelXeonE74830v3();
  PerformanceModel sim(intel);
  Rng rng(74);
  const WorkloadProfile latency =
      SampleWorkload(WorkloadArchetype::kLatencySensitive, rng);
  const WorkloadProfile compute = SampleWorkload(WorkloadArchetype::kComputeBound, rng);
  const Placement one = PlaceOn(intel, {0}, 24, true);
  const Placement four = PlaceOn(intel, {0, 1, 2, 3}, 24, false);
  const double lat_ratio =
      sim.Evaluate(latency, one).throughput_ops / sim.Evaluate(latency, four).throughput_ops;
  const double cpu_ratio =
      sim.Evaluate(compute, one).throughput_ops / sim.Evaluate(compute, four).throughput_ops;
  EXPECT_GT(lat_ratio, 1.1);            // latency-bound prefers one node
  EXPECT_NEAR(cpu_ratio, 1.0, 0.35);    // compute-bound roughly indifferent
}

TEST(Synth, DeterministicPerSeedAndValidRanges) {
  Rng rng1(75);
  Rng rng2(75);
  const auto a = SampleTrainingWorkloads(30, rng1);
  const auto b = SampleTrainingWorkloads(30, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].mem_intensity, b[i].mem_intensity);
    EXPECT_GE(a[i].mem_intensity, 0.0);
    EXPECT_LE(a[i].mem_intensity, 1.0);
    EXPECT_GT(a[i].smt_combined, 1.0);
    EXPECT_GE(a[i].comm_intensity, 0.0);
    EXPECT_LE(a[i].comm_intensity, 1.0);
    EXPECT_GE(a[i].l2_locality, 0.0);
    EXPECT_LE(a[i].l2_locality, 1.0);
  }
}

// Exact-output pins. Each test renders a seeded corpus of simulator
// outputs as `%.17g` text, which round-trips every double, and compares the
// text's FNV-1a with the value the map-based engine produced. A change to
// the engine that moves any bit of any field fails here.

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendDouble(std::string* text, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g ", value);
  *text += buffer;
}

void AppendInts(std::string* text, const std::vector<int>& values) {
  for (int v : values) {
    *text += std::to_string(v) + ",";
  }
  *text += " ";
}

// Throughput and all 11 breakdown fields.
void AppendResult(std::string* text, const PerfResult& r) {
  const PerfBreakdown& b = r.breakdown;
  for (double v : {r.throughput_ops, b.l2_hit, b.l3_hit, b.pipeline_factor, b.comm_factor,
                   b.bandwidth_factor, b.dram_demand_gbps, b.dram_supply_gbps,
                   b.ic_demand_gbps, b.ic_supply_gbps, b.mean_latency_ns, b.cost_per_op}) {
    AppendDouble(text, v);
  }
  *text += "\n";
}

// The placement's latency mean and the four distinct-id sets.
void AppendShape(std::string* text, const Placement& p, const Topology& topo) {
  AppendInts(text, p.hw_threads);
  AppendDouble(text, p.MeanPairwiseLatencyNs(topo));
  AppendInts(text, p.NodesUsed(topo));
  AppendInts(text, p.L3GroupsUsed(topo));
  AppendInts(text, p.L2GroupsUsed(topo));
  AppendInts(text, p.CoresUsed(topo));
  *text += "\n";
}

std::vector<Topology> PinMachines() {
  return {AmdOpteron6272(), IntelXeonE74830v3(), AmdZenLike(), HaswellClusterOnDie()};
}

std::vector<WorkloadProfile> PinWorkloads() {
  std::vector<WorkloadProfile> workloads = PaperWorkloads();
  Rng rng(2020);
  for (WorkloadProfile& w : SampleTrainingWorkloads(8, rng)) {
    workloads.push_back(std::move(w));
  }
  return workloads;
}

TEST(SimulatorPin, SoloImportantPlacements) {
  const std::vector<WorkloadProfile> workloads = PinWorkloads();
  std::string text;
  for (const Topology& topo : PinMachines()) {
    const PerformanceModel sim(topo, 0.015, 11);
    for (int vcpus : {8, 16}) {
      const ImportantPlacementSet ips =
          GenerateImportantPlacements(topo, vcpus, InterconnectIsAsymmetric(topo));
      for (const ImportantPlacement& ip : ips.placements) {
        const Placement p = Realize(ip, topo, vcpus);
        AppendShape(&text, p, topo);
        for (const WorkloadProfile& w : workloads) {
          for (uint64_t run : {0, 41, 42}) {
            AppendResult(&text, sim.Evaluate(w, p, run));
          }
        }
      }
    }
  }
  EXPECT_EQ(Fnv1a(text), 0x01f6233b5e871419ULL);
}

TEST(SimulatorPin, UnbalancedAndStackedPlacements) {
  // The simulated Linux mapper skews vCPUs across nodes and L2 groups; the
  // stacked copies put two vCPUs on one hardware thread.
  const std::vector<WorkloadProfile> workloads = PinWorkloads();
  std::string text;
  Rng rng(31);
  for (const Topology& topo : PinMachines()) {
    const PerformanceModel sim(topo, 0.015, 12);
    const LinuxMapper mapper(topo, 0.6);
    for (int trial = 0; trial < 8; ++trial) {
      const int vcpus = 2 + 2 * static_cast<int>(rng.NextBelow(8));
      const Placement mapped = mapper.Map(vcpus, rng);
      Placement stacked = mapped;
      for (size_t i = 1; i < stacked.hw_threads.size(); i += 3) {
        stacked.hw_threads[i] = stacked.hw_threads[i - 1];
      }
      for (const Placement& p : {mapped, stacked}) {
        AppendShape(&text, p, topo);
        for (const WorkloadProfile& w : workloads) {
          for (uint64_t run : {0, 41, 42}) {
            AppendResult(&text, sim.Evaluate(w, p, run));
          }
        }
      }
    }
  }
  EXPECT_EQ(Fnv1a(text), 0xe5a3f794417890abULL);
}

TEST(SimulatorPin, MultiTenantMixes) {
  // 1-6 co-running tenants. Representative realizations of important
  // placements share their low node ids, and mapper placements land on
  // random node subsets, so node sets (and threads) overlap.
  const std::vector<WorkloadProfile> workloads = PinWorkloads();
  std::string text;
  Rng rng(32);
  for (const Topology& topo : PinMachines()) {
    const MultiTenantModel multi(topo, 0.015, 13);
    const LinuxMapper mapper(topo, 0.3);
    std::vector<Placement> important;
    for (int vcpus : {8, 16}) {
      const ImportantPlacementSet ips =
          GenerateImportantPlacements(topo, vcpus, InterconnectIsAsymmetric(topo));
      for (const ImportantPlacement& ip : ips.placements) {
        important.push_back(Realize(ip, topo, vcpus));
      }
    }
    for (int mix = 0; mix < 24; ++mix) {
      std::vector<MultiTenantModel::Tenant> tenants;
      const int count = 1 + mix % 6;
      for (int c = 0; c < count; ++c) {
        const WorkloadProfile* w = &workloads[rng.NextBelow(workloads.size())];
        if (rng.NextDouble() < 0.5) {
          tenants.push_back({w, important[rng.NextBelow(important.size())]});
          continue;
        }
        NodeSet nodes(static_cast<size_t>(topo.num_nodes()));
        for (int n = 0; n < topo.num_nodes(); ++n) {
          nodes[static_cast<size_t>(n)] = n;
        }
        rng.Shuffle(nodes);
        nodes.resize(1 + rng.NextBelow(nodes.size()));
        std::sort(nodes.begin(), nodes.end());
        const int room = static_cast<int>(nodes.size()) * topo.NodeCapacity();
        const int vcpus = 1 + static_cast<int>(rng.NextBelow(std::min(room, 16)));
        tenants.push_back({w, mapper.Map(vcpus, nodes, {}, rng)});
      }
      for (const PerfResult& r : multi.Evaluate(tenants)) {
        AppendResult(&text, r);
      }
    }
  }
  EXPECT_EQ(Fnv1a(text), 0x788c8605efd2b13aULL);
}

TEST(SimulatorPin, PairwiseLatencyOverEveryThreadPair) {
  std::string text;
  for (const Topology& topo : PinMachines()) {
    for (int a = 0; a < topo.NumHwThreads(); ++a) {
      for (int b = 0; b < topo.NumHwThreads(); ++b) {
        AppendDouble(&text, topo.CommunicationLatencyNs(a, b));
      }
      text += "\n";
    }
  }
  EXPECT_EQ(Fnv1a(text), 0x126a3c678d4d2cb3ULL);
}

}  // namespace
}  // namespace numaplace
