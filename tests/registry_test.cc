// Tests for the ModelRegistry: (machine, vcpus) keyed model lookup and the
// per-container prediction cache.
#include <gtest/gtest.h>

#include "src/core/important.h"
#include "src/model/pipeline.h"
#include "src/model/registry.h"
#include "src/sim/perf_model.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/synth.h"

namespace numaplace {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : topo_(AmdOpteron6272()),
        ips_(GenerateImportantPlacements(topo_, 16, true)),
        sim_(topo_, 0.01, 3),
        pipeline_(ips_, sim_, /*baseline_id=*/1, /*seed=*/23) {
    PerfModelConfig config;
    config.forest.num_trees = 40;
    config.runs_per_workload = 2;
    Rng rng(7);
    model_ = pipeline_.TrainPerf(SampleTrainingWorkloads(24, rng), 1, 8, config);
  }

  Topology topo_;
  ImportantPlacementSet ips_;
  PerformanceModel sim_;
  ModelPipeline pipeline_;
  TrainedPerfModel model_;
};

TEST_F(RegistryTest, RegisterAndLookup) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Has(topo_.name(), 16));
  registry.Register(topo_.name(), 16, model_);
  EXPECT_TRUE(registry.Has(topo_.name(), 16));
  EXPECT_FALSE(registry.Has(topo_.name(), 24));
  EXPECT_FALSE(registry.Has("other-machine", 16));
  EXPECT_EQ(registry.NumModels(), 1u);
  const TrainedPerfModel& stored = registry.Get(topo_.name(), 16);
  EXPECT_EQ(stored.input_a, model_.input_a);
  EXPECT_EQ(stored.input_b, model_.input_b);
  EXPECT_THROW(registry.Get(topo_.name(), 24), std::logic_error);
}

TEST_F(RegistryTest, DuplicateRegistrationIsRejected) {
  ModelRegistry registry;
  registry.Register(topo_.name(), 16, model_);
  EXPECT_THROW(registry.Register(topo_.name(), 16, model_), std::logic_error);
  // A different size is a different key.
  registry.Register(topo_.name(), 32, model_);
  EXPECT_EQ(registry.NumModels(), 2u);
}

TEST_F(RegistryTest, PredictionCacheStoresAndForgets) {
  ModelRegistry registry;
  registry.Register(topo_.name(), 16, model_);
  EXPECT_EQ(registry.FindPrediction(7), nullptr);

  const CachedPrediction& entry = registry.Predict(7, topo_.name(), 16, 1.5e6, 1.8e6);
  EXPECT_DOUBLE_EQ(entry.perf_a, 1.5e6);
  EXPECT_DOUBLE_EQ(entry.perf_b, 1.8e6);
  EXPECT_EQ(entry.input_a, model_.input_a);
  EXPECT_EQ(entry.input_b, model_.input_b);
  EXPECT_EQ(entry.predicted_relative, model_.Predict(1.5e6, 1.8e6));
  EXPECT_EQ(registry.NumCachedPredictions(), 1u);

  const CachedPrediction* found = registry.FindPrediction(7);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->predicted_relative, entry.predicted_relative);

  // Probes are paid once per container: double caching is a bug.
  EXPECT_THROW(registry.Predict(7, topo_.name(), 16, 1.5e6, 1.8e6), std::logic_error);

  registry.Forget(7);
  EXPECT_EQ(registry.FindPrediction(7), nullptr);
  EXPECT_NO_THROW(registry.Predict(7, topo_.name(), 16, 1.5e6, 1.8e6));
}

TEST_F(RegistryTest, PredictWithoutModelIsRejected) {
  ModelRegistry registry;
  EXPECT_THROW(registry.Predict(1, topo_.name(), 16, 1.0, 1.0), std::logic_error);
}

// Satellite guard: the measurement cache in the pipeline is keyed by
// workload name, so dataset building must reject duplicates outright.
TEST_F(RegistryTest, DatasetBuildingRejectsDuplicateWorkloadNames) {
  Rng rng(3);
  std::vector<WorkloadProfile> workloads = SampleTrainingWorkloads(6, rng);
  PerfModelConfig config;
  config.runs_per_workload = 1;
  EXPECT_NO_THROW(pipeline_.BuildPerfDataset(workloads, 1, 8, config));
  workloads[3].name = workloads[0].name;  // same name, different profile
  EXPECT_THROW(pipeline_.BuildPerfDataset(workloads, 1, 8, config), std::logic_error);
}

}  // namespace
}  // namespace numaplace
