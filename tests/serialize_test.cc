// Round-trip tests for model persistence: trees, forests and the full
// TrainedPerfModel (train offline, load in the scheduler).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/important.h"
#include "src/ml/forest.h"
#include "src/ml/tree.h"
#include "src/model/pipeline.h"
#include "src/sim/perf_model.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/synth.h"

namespace numaplace {
namespace {

Dataset MakeData(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextDouble(0.0, 10.0);
    const double y = rng.NextDouble(0.0, 1.0);
    d.features.push_back({x, y});
    d.targets.push_back({2.0 * x + y, x - 3.0 * y});
  }
  return d;
}

TEST(TreeSerialize, RoundTripPreservesPredictions) {
  const Dataset data = MakeData(200, 1);
  RegressionTree tree;
  Rng rng(2);
  tree.Fit(data, TreeParams{}, rng);

  std::stringstream buffer;
  tree.SerializeTo(buffer);
  RegressionTree loaded;
  loaded.DeserializeFrom(buffer);

  EXPECT_EQ(loaded.NumNodes(), tree.NumNodes());
  Rng qrng(3);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> q = {qrng.NextDouble(0.0, 10.0), qrng.NextDouble()};
    EXPECT_EQ(tree.Predict(q), loaded.Predict(q));
  }
}

TEST(TreeSerialize, RejectsGarbageAndTruncation) {
  RegressionTree tree;
  std::stringstream garbage("not-a-tree 1 2");
  EXPECT_THROW(tree.DeserializeFrom(garbage), std::logic_error);

  const Dataset data = MakeData(50, 4);
  RegressionTree fitted;
  Rng rng(5);
  fitted.Fit(data, TreeParams{}, rng);
  std::stringstream buffer;
  fitted.SerializeTo(buffer);
  std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  RegressionTree broken;
  EXPECT_THROW(broken.DeserializeFrom(truncated), std::logic_error);
}

TEST(TreeSerialize, UnfittedTreeCannotSerialize) {
  RegressionTree tree;
  std::stringstream buffer;
  EXPECT_THROW(tree.SerializeTo(buffer), std::logic_error);
}

TEST(ForestSerialize, RoundTripPreservesPredictions) {
  const Dataset data = MakeData(300, 6);
  RandomForest forest;
  ForestParams params;
  params.num_trees = 30;
  params.seed = 7;
  forest.Fit(data, params);

  std::stringstream buffer;
  forest.SerializeTo(buffer);
  RandomForest loaded;
  loaded.DeserializeFrom(buffer);

  EXPECT_EQ(loaded.NumTrees(), forest.NumTrees());
  Rng qrng(8);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> q = {qrng.NextDouble(0.0, 10.0), qrng.NextDouble()};
    EXPECT_EQ(forest.Predict(q), loaded.Predict(q));
  }
}

TEST(ForestSerialize, OobUnavailableAfterLoad) {
  const Dataset data = MakeData(100, 9);
  RandomForest forest;
  ForestParams params;
  params.num_trees = 10;
  params.seed = 10;
  forest.Fit(data, params);
  std::stringstream buffer;
  forest.SerializeTo(buffer);
  RandomForest loaded;
  loaded.DeserializeFrom(buffer);
  EXPECT_THROW(loaded.OutOfBagMae(data), std::logic_error);
}

TEST(ModelSerialize, FullModelRoundTrip) {
  const Topology amd = AmdOpteron6272();
  const ImportantPlacementSet ips = GenerateImportantPlacements(amd, 16, true);
  PerformanceModel sim(amd, 0.015, 99);
  ModelPipeline pipeline(ips, sim, 1, 7);
  Rng rng(11);
  PerfModelConfig config;
  config.forest.num_trees = 30;
  config.runs_per_workload = 2;
  const TrainedPerfModel model =
      pipeline.TrainPerf(SampleTrainingWorkloads(24, rng), 1, 13, config);

  std::stringstream buffer;
  model.SaveText(buffer);
  const TrainedPerfModel loaded = TrainedPerfModel::LoadText(buffer);

  EXPECT_EQ(loaded.input_a, model.input_a);
  EXPECT_EQ(loaded.input_b, model.input_b);
  EXPECT_EQ(loaded.baseline_id, model.baseline_id);
  EXPECT_DOUBLE_EQ(loaded.ipc_scale, model.ipc_scale);
  EXPECT_EQ(loaded.placement_ids, model.placement_ids);

  // Identical predictions for unseen workloads.
  for (const char* name : {"gcc", "WTbtree", "streamcluster"}) {
    const WorkloadProfile& w = PaperWorkload(name);
    const double pa = pipeline.MeasureAbsolute(w, model.input_a, 777);
    const double pb = pipeline.MeasureAbsolute(w, model.input_b, 777);
    EXPECT_EQ(model.Predict(pa, pb), loaded.Predict(pa, pb)) << name;
  }
}

// Replaces the first occurrence of `from`, which must exist.
std::string ReplaceFirst(std::string text, const std::string& from, const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

// The text of leaf line `line` (a full "feature threshold -1 -1 count v..."
// line) cut to its first value.
std::string FirstValueOnly(const std::string& line) {
  std::istringstream in(line);
  std::string feature;
  std::string threshold;
  std::string left;
  std::string right;
  size_t count = 0;
  std::string first;
  in >> feature >> threshold >> left >> right >> count >> first;
  return feature + " " + threshold + " " + left + " " + right + " 1 " + first;
}

// The leaf lines of the first tree in a serialized forest.
std::vector<std::string> FirstTreeLeafLines(const std::string& forest_text) {
  std::istringstream in(forest_text);
  std::vector<std::string> leaves;
  std::string line;
  int trees = 0;
  while (std::getline(in, line)) {
    if (line.rfind("tree ", 0) == 0) {
      ++trees;
    } else if (trees == 1 && line.rfind("-1 ", 0) == 0) {
      leaves.push_back(line);
    }
  }
  return leaves;
}

std::string SerializedForest(int num_trees) {
  RandomForest forest;
  ForestParams params;
  params.num_trees = num_trees;
  params.seed = 21;
  forest.Fit(MakeData(60, 20), params);
  std::ostringstream text;
  forest.SerializeTo(text);
  return text.str();
}

TEST(ForestSerialize, RejectsLeavesNarrowerThanTheTargets) {
  const std::string text = SerializedForest(4);
  const std::vector<std::string> leaves = FirstTreeLeafLines(text);
  ASSERT_GE(leaves.size(), 2u);
  // One short leaf: the tree's own leaves disagree.
  {
    std::istringstream in(ReplaceFirst(text, leaves[0], FirstValueOnly(leaves[0])));
    RandomForest loaded;
    EXPECT_THROW(loaded.DeserializeFrom(in), std::logic_error);
  }
  // Every leaf of the tree short: the tree is consistent, the forest is not.
  {
    std::string edited = text;
    for (const std::string& leaf : leaves) {
      edited = ReplaceFirst(edited, leaf, FirstValueOnly(leaf));
    }
    std::istringstream in(edited);
    RandomForest loaded;
    EXPECT_THROW(loaded.DeserializeFrom(in), std::logic_error);
  }
}

TEST(ForestSerialize, RejectsTreesOfDifferentFeatureCounts) {
  const std::string text = SerializedForest(3);
  const size_t header = text.find("tree ");
  const size_t end = text.find('\n', header);
  const std::string line = text.substr(header, end - header);
  ASSERT_EQ(line.substr(line.rfind(' ')), " 2");
  std::istringstream in(ReplaceFirst(text, line, line.substr(0, line.rfind(' ')) + " 5"));
  RandomForest loaded;
  EXPECT_THROW(loaded.DeserializeFrom(in), std::logic_error);
}

TEST(TreeSerialize, RejectsChildLinksThatDoNotPointForward) {
  // Node 1 is its own left child: Predict would loop forever on x <= 0.5.
  std::stringstream self_loop(
      "tree 4 1\n0 0.5 1 3 0\n0 0.5 1 2 0\n-1 0 -1 -1 1 1\n-1 0 -1 -1 1 2\n");
  RegressionTree tree;
  EXPECT_THROW(tree.DeserializeFrom(self_loop), std::logic_error);
  // Node 2 links back to node 1.
  std::stringstream backward(
      "tree 4 1\n0 0.5 2 3 0\n-1 0 -1 -1 1 1\n0 0.5 1 3 0\n-1 0 -1 -1 1 2\n");
  EXPECT_THROW(tree.DeserializeFrom(backward), std::logic_error);
  std::stringstream forward("tree 3 1\n0 0.5 1 2 0\n-1 0 -1 -1 1 1\n-1 0 -1 -1 1 2\n");
  tree.DeserializeFrom(forward);
  EXPECT_EQ(tree.Predict(std::vector<double>{0.0}), std::vector<double>{1.0});
  EXPECT_EQ(tree.Predict(std::vector<double>{1.0}), std::vector<double>{2.0});
}

TEST(TreeSerialize, RejectsValuesOnAnInternalNode) {
  std::stringstream text("tree 3 1\n0 0.5 1 2 1 7\n-1 0 -1 -1 1 1\n-1 0 -1 -1 1 2\n");
  RegressionTree tree;
  EXPECT_THROW(tree.DeserializeFrom(text), std::logic_error);
}

// A small model of the deployed shape: 3 features, one target per
// placement id.
TrainedPerfModel SmallPerfModel() {
  Dataset data;
  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    const double a = rng.NextDouble(0.5, 2.0);
    const double b = rng.NextDouble(0.5, 2.0);
    data.features.push_back({a, b, b / a});
    data.targets.push_back({1.0, a, b, a * b, b / a});
  }
  TrainedPerfModel model;
  model.input_a = 2;
  model.input_b = 4;
  model.baseline_id = 1;
  model.ipc_scale = 0.5;
  model.placement_ids = {1, 2, 3, 4, 5};
  ForestParams params;
  params.num_trees = 6;
  model.forest.Fit(data, params);
  return model;
}

TEST(ModelSerialize, SaveLoadSaveIsByteIdentical) {
  std::ostringstream first;
  SmallPerfModel().SaveText(first);
  std::istringstream in(first.str());
  std::ostringstream second;
  TrainedPerfModel::LoadText(in).SaveText(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(ModelSerialize, RejectsPlacementIdsThatDoNotMatchTheTargets) {
  std::ostringstream text;
  SmallPerfModel().SaveText(text);
  for (const char* ids : {"4 1 2 3 4\n", "6 1 2 3 4 5 6\n"}) {
    std::istringstream in(ReplaceFirst(text.str(), "5 1 2 3 4 5\n", ids));
    EXPECT_THROW(TrainedPerfModel::LoadText(in), std::logic_error) << ids;
  }
}

TEST(ModelSerialize, RejectsAForestOfTheWrongFeatureCount) {
  // Every tree reads 4 features, so the forest agrees with itself; a
  // performance model's rows have 3.
  std::ostringstream saved;
  SmallPerfModel().SaveText(saved);
  std::string text = saved.str();
  for (size_t at = text.find("\ntree "); at != std::string::npos;
       at = text.find("\ntree ", at + 1)) {
    const size_t end = text.find('\n', at + 1);
    ASSERT_EQ(text.substr(end - 2, 2), " 3");
    text.replace(end - 1, 1, "4");
  }
  std::istringstream in(text);
  EXPECT_THROW(TrainedPerfModel::LoadText(in), std::logic_error);
}

TEST(ModelSerialize, RejectsWrongFormatTag) {
  std::stringstream buffer("some-other-format-v9\n1 2 3\n");
  EXPECT_THROW(TrainedPerfModel::LoadText(buffer), std::logic_error);
}

}  // namespace
}  // namespace numaplace
