// Tests for the per-cell capacity index (src/cluster/capacity_index.h):
// the shared cell layout, the promising-cell ranking, and the central
// property that the incrementally maintained summaries equal a from-scratch
// recomputation after any sequence of fleet events — arrivals, departures,
// fail, drain and rejoin in randomized order. The fleets here run
// model-free machine policies (first-fit) so the index is exercised without
// paying for model training.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/capacity_index.h"
#include "src/cluster/fleet.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/synth.h"

namespace numaplace {
namespace {

MachineSpec FirstFitAmdSpec() {
  MachineSpec spec(AmdOpteron6272());
  spec.scheduler.policy = "first-fit";
  spec.scheduler.baseline_id = 1;
  return spec;
}

FleetScheduler MakeFirstFitFleet(int num_machines, FleetConfig config) {
  std::vector<MachineSpec> specs(static_cast<size_t>(num_machines), FirstFitAmdSpec());
  return FleetScheduler(std::move(specs), config);
}

ContainerRequest MakeRequest(int id, int vcpus) {
  ContainerRequest request;
  request.id = id;
  request.workload = PaperWorkload("gcc");
  request.workload.name += "#" + std::to_string(id);
  request.vcpus = vcpus;
  request.goal_fraction = 0.5;
  return request;
}

// The property oracle: every incrementally maintained cell summary equals
// the from-scratch recomputation over the live membership view.
void ExpectIndexMatchesScratch(const FleetScheduler& fleet, const std::string& where) {
  const CapacityIndex& index = fleet.capacity_index();
  const std::vector<CellCapacity> scratch = index.RecomputeFromScratch();
  ASSERT_EQ(static_cast<int>(scratch.size()), index.NumCells()) << where;
  for (int c = 0; c < index.NumCells(); ++c) {
    const CellCapacity& live = index.cell(c);
    EXPECT_EQ(live.up_machines, scratch[static_cast<size_t>(c)].up_machines)
        << where << " cell " << c;
    EXPECT_EQ(live.free_threads, scratch[static_cast<size_t>(c)].free_threads)
        << where << " cell " << c;
    EXPECT_EQ(live.min_free_threads, scratch[static_cast<size_t>(c)].min_free_threads)
        << where << " cell " << c;
    EXPECT_EQ(live.max_free_threads, scratch[static_cast<size_t>(c)].max_free_threads)
        << where << " cell " << c;
  }
}

TEST(CellLayout, ModuloInterleavesAndAutoPicksSqrtCells) {
  // 9 machines, auto: round(sqrt(9)) = 3 cells, machine m in cell m % 3.
  const CellLayout layout = MakeInterleavedCells(9, 0);
  ASSERT_EQ(layout.NumCells(), 3);
  ASSERT_EQ(layout.NumMachines(), 9);
  EXPECT_EQ(layout.cells[0], (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(layout.cells[1], (std::vector<int>{1, 4, 7}));
  EXPECT_EQ(layout.cells[2], (std::vector<int>{2, 5, 8}));
  for (int m = 0; m < 9; ++m) {
    EXPECT_EQ(layout.cell_of[static_cast<size_t>(m)], m % 3);
  }
  // Every machine lands in exactly one cell.
  std::set<int> seen;
  for (const std::vector<int>& cell : layout.cells) {
    for (int m : cell) {
      EXPECT_TRUE(seen.insert(m).second) << m;
    }
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(CellLayout, CellCountClampsToMachineCount) {
  EXPECT_EQ(MakeInterleavedCells(3, 100).NumCells(), 3);
  EXPECT_EQ(MakeInterleavedCells(1, 0).NumCells(), 1);
  // 2 machines, auto: round(sqrt(2)) = 1 cell holding both.
  const CellLayout two = MakeInterleavedCells(2, 0);
  EXPECT_EQ(two.NumCells(), 1);
  EXPECT_EQ(two.cells[0], (std::vector<int>{0, 1}));
}

TEST(CapacityIndex, BindComputesInitialSummariesAndStartsDirty) {
  FleetScheduler fleet = MakeFirstFitFleet(4, FleetConfig());  // round(sqrt(4)) = 2 cells
  const CapacityIndex& index = fleet.capacity_index();
  ASSERT_TRUE(index.bound());
  ASSERT_EQ(index.NumCells(), 2);
  // All machines up and empty: each cell holds 2 machines x 64 threads.
  const int threads = fleet.topology(0).NumHwThreads();
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(index.cell(c).up_machines, 2);
    EXPECT_EQ(index.cell(c).free_threads, 2 * threads);
    EXPECT_EQ(index.cell(c).min_free_threads, threads);
    EXPECT_EQ(index.cell(c).max_free_threads, threads);
  }
  EXPECT_TRUE(index.capacity_dirty());
  ExpectIndexMatchesScratch(fleet, "after bind");
}

TEST(CapacityIndex, SummariesTrackAdmissionsAndFailRejoinCycles) {
  // The automatic layout: round(sqrt(4)) = 2 cells, {0, 2} and {1, 3}.
  FleetScheduler fleet = MakeFirstFitFleet(4, FleetConfig());
  const CapacityIndex& index = fleet.capacity_index();
  const int threads = fleet.topology(0).NumHwThreads();

  // Least-loaded dispatch lands the first container on machine 0 (all
  // equal, lowest id): cell 0 loses 16 free threads.
  fleet.Submit(MakeRequest(1, 16), 1.0);
  EXPECT_EQ(index.cell(0).free_threads, 2 * threads - 16);
  EXPECT_EQ(index.cell(0).min_free_threads, threads - 16);
  EXPECT_EQ(index.cell(0).max_free_threads, threads);
  ExpectIndexMatchesScratch(fleet, "after admission");

  // Fail machine 0: its free threads leave cell 0's up-aggregates and the
  // evacuated container restarts elsewhere; the cell keeps machine 2.
  fleet.Fail(0, 2.0);
  EXPECT_EQ(index.cell(0).up_machines, 1);
  ExpectIndexMatchesScratch(fleet, "after fail");

  // Rejoin restores the machine to the same cell, empty.
  fleet.Rejoin(0, 3.0);
  EXPECT_EQ(index.cell(0).up_machines, 2);
  EXPECT_EQ(index.cell(0).max_free_threads, threads);
  ExpectIndexMatchesScratch(fleet, "after rejoin");
  EXPECT_TRUE(index.capacity_dirty() || fleet.config().rebalance_on_departure);
}

TEST(CapacityIndex, PromisingCellsRanksByHeadroomAndHonorsLimit) {
  FleetConfig config;  // 2 automatic cells, {0, 2} and {1, 3}
  config.dispatch = "round-robin";  // deterministic fill: m0, m1, m2, m3, ...
  config.rebalance_on_departure = false;
  FleetScheduler fleet = MakeFirstFitFleet(4, config);
  const CapacityIndex& index = fleet.capacity_index();
  const int threads = fleet.topology(0).NumHwThreads();

  // Round-robin five 16-vCPU containers: machines 0..3 hold one each, then
  // machine 0 a second — cell 0 (machines 0, 2) now has less headroom.
  for (int id = 1; id <= 5; ++id) {
    ASSERT_TRUE(fleet.Submit(MakeRequest(id, 16), id * 1.0).outcome.admitted);
  }
  EXPECT_EQ(index.cell(0).max_free_threads, threads - 16);
  EXPECT_EQ(index.cell(1).max_free_threads, threads - 16);
  EXPECT_EQ(index.cell(0).free_threads, 2 * threads - 48);
  EXPECT_EQ(index.cell(1).free_threads, 2 * threads - 32);

  // Equal max headroom: total free breaks the tie toward cell 1.
  const std::vector<int> ranked = index.PromisingCells(16, 0);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], 1);
  EXPECT_EQ(ranked[1], 0);
  // The limit keeps only the most promising cells.
  EXPECT_EQ(index.PromisingCells(16, 1), (std::vector<int>{1}));
  // No cell can hold a request wider than the best headroom.
  EXPECT_TRUE(index.PromisingCells(threads, 0).empty());
  ExpectIndexMatchesScratch(fleet, "after ranked fill");
}

// The tentpole property: replay a randomized mix of arrivals, departures,
// fails, drains and rejoins through the fleet API and re-derive every cell
// summary from scratch after each event. Any missed update point in the
// fleet (admit, depart, availability flip, rebalance move, evacuation)
// shows up as a divergence here.
TEST(CapacityIndex, IncrementalIndexEqualsScratchRecomputeUnderRandomEvents) {
  FleetConfig config;
  config.dispatch = "least-loaded";
  config.rebalance_on_departure = true;
  FleetScheduler fleet = MakeFirstFitFleet(9, config);  // 3 cells of 3
  ASSERT_EQ(fleet.capacity_index().NumCells(), 3);

  Rng rng(2026);
  std::vector<int> live;  // submitted containers still in the system
  int next_id = 1;
  double now = 0.0;
  int departs = 0;
  int machine_events = 0;
  for (int step = 0; step < 220; ++step) {
    now += 1.0;
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 45 || live.empty()) {
      // Arrival; vary width so free-thread counts take many values.
      const int vcpus = (rng.NextBelow(2) == 0) ? 8 : 16;
      const int id = next_id++;
      fleet.Submit(MakeRequest(id, vcpus), now);
      live.push_back(id);
    } else if (roll < 75) {
      const size_t pick = static_cast<size_t>(rng.NextBelow(live.size()));
      const int id = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      fleet.Depart(id, now);
      ++departs;
    } else {
      const int m = static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(fleet.NumMachines())));
      const MachineAvailability state = fleet.availability(m);
      if (state == MachineAvailability::kUp) {
        if (rng.NextBelow(2) == 0) {
          fleet.Fail(m, now);
        } else {
          fleet.Drain(m, now);
        }
      } else {
        fleet.Rejoin(m, now);
      }
      ++machine_events;
    }
    ExpectIndexMatchesScratch(fleet, "step " + std::to_string(step));
    if (HasFailure()) {
      return;  // one divergence is enough; don't drown the log
    }
  }
  // The sequence actually exercised every event family.
  EXPECT_GT(departs, 20);
  EXPECT_GT(machine_events, 20);
}

}  // namespace
}  // namespace numaplace
