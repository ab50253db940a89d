// Tests for the from-scratch ML substrate: dataset, CART tree, random
// forest, k-means + silhouette, SFS and k-fold helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/ml/dataset.h"
#include "src/ml/forest.h"
#include "src/ml/kmeans.h"
#include "src/ml/selection.h"
#include "src/ml/tree.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace numaplace {
namespace {

Dataset MakeLinear(int n, uint64_t seed, double noise = 0.0) {
  // y0 = 2x0 + 1, y1 = -x0 + 3 (multi-output, single feature).
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextDouble(0.0, 10.0);
    d.features.push_back({x});
    d.targets.push_back({2.0 * x + 1.0 + rng.NextGaussian(0.0, noise),
                         -x + 3.0 + rng.NextGaussian(0.0, noise)});
  }
  return d;
}

TEST(Dataset, ValidateRejectsRaggedRows) {
  Dataset d;
  d.features = {{1.0, 2.0}, {3.0}};
  d.targets = {{1.0}, {2.0}};
  EXPECT_THROW(d.Validate(), std::logic_error);
  d.features = {{1.0}, {2.0}};
  d.targets = {{1.0}};
  EXPECT_THROW(d.Validate(), std::logic_error);
}

TEST(Dataset, SubsetAndFeatureProjection) {
  Dataset d;
  d.features = {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  d.targets = {{1.0}, {2.0}, {3.0}};
  const Dataset sub = d.Subset({2, 0});
  EXPECT_EQ(sub.NumSamples(), 2u);
  EXPECT_DOUBLE_EQ(sub.features[0][0], 3.0);
  const Dataset proj = d.WithFeatureSubset({1});
  EXPECT_EQ(proj.NumFeatures(), 1u);
  EXPECT_DOUBLE_EQ(proj.features[1][0], 20.0);
}

TEST(Dataset, AppendConcatenatesRows) {
  Dataset a = MakeLinear(5, 1);
  const Dataset b = MakeLinear(7, 2);
  a.Append(b);
  EXPECT_EQ(a.NumSamples(), 12u);
  a.Validate();
}

TEST(RegressionTree, FitsDeterministicStep) {
  // A step function is exactly representable by one split.
  Dataset d;
  for (int i = 0; i < 20; ++i) {
    const double x = i < 10 ? 0.0 + i * 0.05 : 5.0 + i * 0.05;
    d.features.push_back({x});
    d.targets.push_back({i < 10 ? 1.0 : 9.0});
  }
  RegressionTree tree;
  Rng rng(3);
  tree.Fit(d, TreeParams{}, rng);
  EXPECT_NEAR(tree.Predict(std::vector<double>{0.2})[0], 1.0, 1e-9);
  EXPECT_NEAR(tree.Predict(std::vector<double>{5.5})[0], 9.0, 1e-9);
}

TEST(RegressionTree, MultiOutputPredictsBothTargets) {
  const Dataset d = MakeLinear(200, 11);
  RegressionTree tree;
  Rng rng(4);
  tree.Fit(d, TreeParams{}, rng);
  const std::vector<double> p = tree.Predict(std::vector<double>{5.0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0], 11.0, 0.5);
  EXPECT_NEAR(p[1], -2.0, 0.5);
}

TEST(RegressionTree, RespectsMaxDepth) {
  const Dataset d = MakeLinear(256, 12);
  RegressionTree tree;
  Rng rng(5);
  TreeParams params;
  params.max_depth = 3;
  tree.Fit(d, params, rng);
  EXPECT_LE(tree.Depth(), 3 + 1);  // depth counts nodes; root at depth 1
}

TEST(RegressionTree, MinSamplesLeafHonored) {
  const Dataset d = MakeLinear(64, 13);
  RegressionTree tree;
  Rng rng(6);
  TreeParams params;
  params.min_samples_leaf = 8;
  tree.Fit(d, params, rng);
  // With >= 8 samples per leaf, the tree has at most 64/8 leaves; total
  // nodes bounded by 2*8-1.
  EXPECT_LE(tree.NumNodes(), 15u);
}

TEST(RegressionTree, ConstantTargetsGiveSingleLeaf) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    d.features.push_back({static_cast<double>(i)});
    d.targets.push_back({42.0});
  }
  RegressionTree tree;
  Rng rng(7);
  tree.Fit(d, TreeParams{}, rng);
  EXPECT_NEAR(tree.Predict(std::vector<double>{3.0})[0], 42.0, 1e-12);
}

TEST(RegressionTree, PredictBeforeFitThrows) {
  RegressionTree tree;
  EXPECT_THROW(tree.Predict(std::vector<double>{1.0}), std::logic_error);
}

// The plain CART builder, as the reference for RegressionTree::Fit: at every
// node it gathers each candidate feature's (value, row) pairs and sorts them
// afresh, and it splits the node's rows with std::stable_partition. It
// writes RegressionTree::SerializeTo's text.
class ReferenceTree {
 public:
  ReferenceTree(const Dataset& data, const TreeParams& params, Rng& rng)
      : data_(data), params_(params), rng_(rng) {}

  std::string Fit(std::vector<size_t> rows) {
    rows_ = std::move(rows);
    Build(0, rows_.size(), 0);
    std::ostringstream text;
    text << "tree " << nodes_.size() << " " << data_.NumFeatures() << "\n";
    text.precision(17);
    for (const Node& node : nodes_) {
      text << node.feature << " " << node.threshold << " " << node.left << " " << node.right
           << " " << node.mean.size();
      for (double v : node.mean) {
        text << " " << v;
      }
      text << "\n";
    }
    return text.str();
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> mean;  // leaves only
  };

  int Build(size_t begin, size_t end, int depth) {
    const size_t n = end - begin;
    const size_t m = data_.NumTargets();
    const size_t d = data_.NumFeatures();
    const int index = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    const auto leaf = [&] {
      std::vector<double> mean(m, 0.0);
      for (size_t i = begin; i < end; ++i) {
        for (size_t k = 0; k < m; ++k) {
          mean[k] += data_.targets[rows_[i]][k];
        }
      }
      for (double& v : mean) {
        v /= static_cast<double>(n);
      }
      nodes_[static_cast<size_t>(index)].mean = mean;
      return index;
    };
    if (n < static_cast<size_t>(params_.min_samples_split) || depth >= params_.max_depth) {
      return leaf();
    }
    std::vector<int> candidates(d);
    std::iota(candidates.begin(), candidates.end(), 0);
    if (params_.features_per_split > 0 && params_.features_per_split < static_cast<int>(d)) {
      rng_.Shuffle(candidates);
      candidates.resize(static_cast<size_t>(params_.features_per_split));
    }
    std::vector<double> total_sum(m, 0.0);
    std::vector<double> total_sq(m, 0.0);
    for (size_t i = begin; i < end; ++i) {
      for (size_t k = 0; k < m; ++k) {
        const double y = data_.targets[rows_[i]][k];
        total_sum[k] += y;
        total_sq[k] += y * y;
      }
    }
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_sse = std::numeric_limits<double>::infinity();
    for (int feature : candidates) {
      std::vector<std::pair<double, size_t>> order;
      for (size_t i = begin; i < end; ++i) {
        order.emplace_back(data_.features[rows_[i]][static_cast<size_t>(feature)], rows_[i]);
      }
      std::sort(order.begin(), order.end());
      if (order.front().first == order.back().first) {
        continue;
      }
      std::vector<double> prefix_sum(m, 0.0);
      std::vector<double> prefix_sq(m, 0.0);
      for (size_t i = 0; i + 1 < n; ++i) {
        for (size_t k = 0; k < m; ++k) {
          const double y = data_.targets[order[i].second][k];
          prefix_sum[k] += y;
          prefix_sq[k] += y * y;
        }
        const size_t left_n = i + 1;
        const size_t right_n = n - left_n;
        if (left_n < static_cast<size_t>(params_.min_samples_leaf) ||
            right_n < static_cast<size_t>(params_.min_samples_leaf) ||
            order[i].first == order[i + 1].first) {
          continue;
        }
        double sse = 0.0;
        for (size_t k = 0; k < m; ++k) {
          const double ls = prefix_sum[k];
          const double rs = total_sum[k] - ls;
          const double lq = prefix_sq[k];
          const double rq = total_sq[k] - lq;
          sse += lq - ls * ls / static_cast<double>(left_n);
          sse += rq - rs * rs / static_cast<double>(right_n);
        }
        if (sse < best_sse) {
          best_sse = sse;
          best_feature = feature;
          // The midpoint, unless it rounds up to the larger value.
          const double mid = 0.5 * (order[i].first + order[i + 1].first);
          best_threshold = mid < order[i + 1].first ? mid : order[i].first;
        }
      }
    }
    if (best_feature < 0) {
      return leaf();
    }
    const auto first = rows_.begin() + static_cast<ptrdiff_t>(begin);
    const auto mid = static_cast<size_t>(
        std::stable_partition(first, rows_.begin() + static_cast<ptrdiff_t>(end),
                              [&](size_t row) {
                                return data_.features[row][static_cast<size_t>(
                                           best_feature)] <= best_threshold;
                              }) -
        rows_.begin());
    if (mid == begin || mid == end) {
      throw std::logic_error("empty side");  // RegressionTree's NP_CHECK
    }
    const int left = Build(begin, mid, depth + 1);
    const int right = Build(mid, end, depth + 1);
    Node& node = nodes_[static_cast<size_t>(index)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return index;
  }

  const Dataset& data_;
  const TreeParams& params_;
  Rng& rng_;
  std::vector<size_t> rows_;
  std::vector<Node> nodes_;
};

// Four features: few distinct values (runs of ties), a constant column, a
// continuous column, and a column of adjacent doubles, whose rounded
// midpoints can equal the larger value; `duplicates` rows copy earlier ones.
Dataset MakeSplitSearchData(Rng& rng, size_t rows, size_t targets, size_t duplicates) {
  Dataset data;
  for (size_t i = 0; i < rows; ++i) {
    const double a = static_cast<double>(rng.NextBelow(4));
    double c = 1.0;
    for (uint64_t steps = rng.NextBelow(6); steps > 0; --steps) {
      c = std::nextafter(c, 2.0);
    }
    const double x = rng.NextDouble();
    data.features.push_back({a, 7.5, x, c});
    std::vector<double> y(targets);
    for (size_t k = 0; k < targets; ++k) {
      y[k] = a * static_cast<double>(k % 3) + x * static_cast<double>(k + 1) +
             (c > 1.0 ? 0.5 : 0.0) + rng.NextGaussian(0.0, 0.1);
    }
    data.targets.push_back(y);
  }
  for (size_t i = 0; i < duplicates; ++i) {
    data.features.push_back(data.features[i]);
    data.targets.push_back(data.targets[i]);
  }
  return data;
}

TEST(RegressionTree, PresortedSearchMatchesThePerNodeSortReference) {
  int fits = 0;
  for (const size_t targets : {1u, 13u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      Rng data_rng(seed);
      const Dataset data = MakeSplitSearchData(data_rng, 60 + 40 * seed, targets, 12);
      // Every row once, and a bootstrap sample (duplicate rows).
      std::vector<size_t> all(data.NumSamples());
      std::iota(all.begin(), all.end(), 0);
      std::vector<size_t> bootstrap(data.NumSamples());
      for (size_t& row : bootstrap) {
        row = static_cast<size_t>(data_rng.NextBelow(data.NumSamples()));
      }
      for (const int leaf : {1, 2, 5}) {
        for (const int depth : {1, 3, 12}) {
          for (const int per_split : {0, 1, 2}) {
            SCOPED_TRACE(std::to_string(targets) + " targets, seed " + std::to_string(seed) +
                         ", leaf " + std::to_string(leaf) + ", depth " +
                         std::to_string(depth) + ", " + std::to_string(per_split) +
                         " features per split");
            TreeParams params;
            params.min_samples_leaf = leaf;
            params.max_depth = depth;
            params.features_per_split = per_split;
            for (const std::vector<size_t>& rows : {all, bootstrap}) {
              ++fits;
              Rng reference_rng(seed + 20);
              Rng rng(seed + 20);
              // Neither builder throws: a split between adjacent doubles whose
              // midpoint rounds up to the larger one takes the smaller one as
              // its threshold, so no side is ever empty.
              std::string expected;
              ASSERT_NO_THROW(expected = ReferenceTree(data, params, reference_rng).Fit(rows));
              RegressionTree tree;
              ASSERT_NO_THROW(tree.Fit(data, rows, params, rng));
              std::ostringstream text;
              tree.SerializeTo(text);
              ASSERT_EQ(text.str(), expected);
              // Both drew the same candidate shuffles.
              EXPECT_EQ(rng.NextU64(), reference_rng.NextU64());
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(fits, 324);
}

TEST(RandomForest, LearnsNoisyLinearFunction) {
  const Dataset train = MakeLinear(400, 21, 0.2);
  RandomForest forest;
  ForestParams params;
  params.num_trees = 60;
  params.seed = 9;
  forest.Fit(train, params);
  double max_err = 0.0;
  for (double x = 1.0; x < 9.0; x += 0.5) {
    const std::vector<double> p = forest.Predict(std::vector<double>{x});
    max_err = std::max(max_err, std::abs(p[0] - (2.0 * x + 1.0)));
  }
  EXPECT_LT(max_err, 0.6);
}

TEST(RandomForest, DeterministicPerSeed) {
  const Dataset train = MakeLinear(100, 22, 0.1);
  RandomForest a;
  RandomForest b;
  ForestParams params;
  params.num_trees = 20;
  params.seed = 33;
  a.Fit(train, params);
  b.Fit(train, params);
  const std::vector<double> q = {4.2};
  EXPECT_EQ(a.Predict(q), b.Predict(q));
}

TEST(RandomForest, TrainingOrderInvariance) {
  // Permuting rows changes bootstrap draws, but accuracy must be unaffected
  // (the learned function is the same up to noise).
  Dataset train = MakeLinear(300, 23, 0.1);
  Dataset shuffled = train;
  std::vector<size_t> order(train.NumSamples());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(8);
  rng.Shuffle(order);
  shuffled = train.Subset(order);
  ForestParams params;
  params.num_trees = 40;
  params.seed = 5;
  RandomForest a;
  a.Fit(train, params);
  RandomForest b;
  b.Fit(shuffled, params);
  for (double x = 2.0; x < 8.0; x += 1.0) {
    const double pa = a.Predict(std::vector<double>{x})[0];
    const double pb = b.Predict(std::vector<double>{x})[0];
    EXPECT_NEAR(pa, pb, 0.4);
  }
}

TEST(RandomForest, OutOfBagErrorReasonable) {
  const Dataset train = MakeLinear(200, 24, 0.1);
  RandomForest forest;
  ForestParams params;
  params.num_trees = 50;
  params.seed = 2;
  forest.Fit(train, params);
  const double oob = forest.OutOfBagMae(train);
  EXPECT_GT(oob, 0.0);
  EXPECT_LT(oob, 1.0);
}

// Five-way ties in one feature, runs of six in another, and ten rows that
// exactly duplicate earlier ones: the inputs where a split search could
// depend on sort stability or tie order.
Dataset MakeTiedWithDuplicates() {
  Dataset data;
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    const double a = static_cast<double>(i % 5);
    const double b = 0.5 * static_cast<double>(i / 6);
    const double c = rng.NextDouble();
    data.features.push_back({a, b, c});
    data.targets.push_back({a + 2.0 * b, a * b - c});
  }
  for (size_t i = 0; i < 10; ++i) {
    data.features.push_back(data.features[i]);
    data.targets.push_back(data.targets[i]);
  }
  return data;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(RandomForest, FittedForestTextIsPinned) {
  // Trees are fitted concurrently; the serialized forest must not depend on
  // the thread count or schedule. Pinned to the value of the serial fit.
  ForestParams params;
  params.num_trees = 16;
  params.seed = 99;
  RandomForest forest;
  forest.Fit(MakeTiedWithDuplicates(), params);
  std::ostringstream text;
  forest.SerializeTo(text);
  EXPECT_EQ(Fnv1a(text.str()), 0xced3d7c497be79b9ULL);
}

TEST(RandomForest, TreeFailureIsRethrownOnTheCaller) {
  ForestParams params;
  params.num_trees = 8;
  params.tree.max_depth = 0;  // every tree's Fit fails its NP_CHECK
  RandomForest forest;
  EXPECT_THROW(forest.Fit(MakeLinear(20, 4), params), std::logic_error);
  EXPECT_FALSE(forest.IsFitted());
}

TEST(ParallelFor, NestedLoopRunsInlineOnItsWorkerInIndexOrder) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::thread::id> outer_thread(kOuter);
  std::vector<std::vector<std::thread::id>> inner_thread(kOuter);
  std::vector<std::vector<size_t>> inner_order(kOuter);
  ParallelFor(kOuter, [&](size_t i) {
    outer_thread[i] = std::this_thread::get_id();
    ParallelFor(kInner, [&](size_t j) {
      inner_thread[i].push_back(std::this_thread::get_id());
      inner_order[i].push_back(j);
    });
  });
  std::vector<size_t> expected(kInner);
  std::iota(expected.begin(), expected.end(), 0);
  for (size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(inner_order[i], expected) << "outer index " << i;
    EXPECT_EQ(inner_thread[i], std::vector<std::thread::id>(kInner, outer_thread[i]))
        << "outer index " << i;
  }
}

TEST(ParallelFor, LowestFailingIndexReachesTheCallerAfterEveryBodyEnds) {
  // Outer bodies 3 and 5 fail, each from inside a nested loop (which fails
  // at its own index 2 first, so index 4's error never happens). Every body
  // that started has ended by the time the caller sees index 3's error.
  std::atomic<int> started{0};
  std::atomic<int> ended{0};
  std::string message;
  try {
    ParallelFor(32, [&](size_t i) {
      ++started;
      struct EndGuard {
        std::atomic<int>* ended;
        ~EndGuard() { ++*ended; }
      } guard{&ended};
      ParallelFor(6, [&](size_t j) {
        if ((i == 3 || i == 5) && (j == 2 || j == 4)) {
          throw std::runtime_error(std::to_string(i) + ":" + std::to_string(j));
        }
      });
    });
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "3:2");
  EXPECT_GE(started.load(), 4);
  EXPECT_EQ(started.load(), ended.load());
}

TEST(RandomForest, OutOfBagMaeMatchesBruteForceReference) {
  const Dataset train = MakeTiedWithDuplicates();
  ForestParams params;
  params.num_trees = 12;
  params.seed = 17;
  params.tree.features_per_split = 2;  // explicit, so Fit derives nothing
  RandomForest forest;
  forest.Fit(train, params);

  // Tree t draws its n bootstrap rows from Rng(seed).Fork(t), then fits on
  // the same stream; rebuild every tree that way.
  const size_t n = train.NumSamples();
  const Rng rng(params.seed);
  std::vector<std::vector<size_t>> bootstrap(static_cast<size_t>(params.num_trees));
  std::vector<RegressionTree> trees(bootstrap.size());
  for (size_t t = 0; t < trees.size(); ++t) {
    Rng tree_rng = rng.Fork(t);
    for (size_t i = 0; i < n; ++i) {
      bootstrap[t].push_back(static_cast<size_t>(tree_rng.NextBelow(n)));
    }
    trees[t].Fit(train, bootstrap[t], params.tree, tree_rng);
  }
  // Out-of-bag error straight from its definition: for each row, average
  // the trees whose bootstrap sample does not contain it.
  const auto reference = [&](const Dataset& data) {
    double total = 0.0;
    size_t terms = 0;
    for (size_t i = 0; i < data.NumSamples(); ++i) {
      std::vector<double> acc(data.NumTargets(), 0.0);
      int voters = 0;
      for (size_t t = 0; t < trees.size(); ++t) {
        if (std::find(bootstrap[t].begin(), bootstrap[t].end(), i) != bootstrap[t].end()) {
          continue;
        }
        const std::vector<double> p = trees[t].Predict(data.features[i]);
        for (size_t k = 0; k < acc.size(); ++k) {
          acc[k] += p[k];
        }
        ++voters;
      }
      if (voters == 0) {
        continue;
      }
      for (size_t k = 0; k < acc.size(); ++k) {
        total += std::abs(acc[k] / voters - data.targets[i][k]);
        ++terms;
      }
    }
    return total / static_cast<double>(terms);
  };
  EXPECT_EQ(forest.OutOfBagMae(train), reference(train));
  // Rows past the training set were in no bootstrap sample.
  Dataset extended = train;
  extended.features.push_back({1.5, 0.25, 0.5});
  extended.targets.push_back({2.0, -1.0});
  EXPECT_EQ(forest.OutOfBagMae(extended), reference(extended));
}

TEST(RandomForest, PredictIsTheTreeByTreeSumAndTextRoundTrips) {
  // Three features and five targets, the shape of a performance model.
  Dataset train;
  Rng rng(41);
  for (int i = 0; i < 80; ++i) {
    const double a = rng.NextDouble(0.5, 2.0);
    const double b = rng.NextDouble(0.5, 2.0);
    train.features.push_back({a, b, b / a});
    train.targets.push_back({1.0, a, b, a * b + rng.NextGaussian(0.0, 0.05), b / a});
  }
  ForestParams params;
  params.num_trees = 24;
  params.seed = 43;
  RandomForest forest;
  forest.Fit(train, params);

  // Rebuild every tree as Fit does (see OutOfBagMaeMatchesBruteForceReference).
  const size_t n = train.NumSamples();
  const Rng forest_rng(params.seed);
  TreeParams tree_params = params.tree;
  tree_params.features_per_split = 1;  // max(1, round(3 / 3))
  std::vector<RegressionTree> trees(static_cast<size_t>(params.num_trees));
  for (size_t t = 0; t < trees.size(); ++t) {
    Rng tree_rng = forest_rng.Fork(t);
    std::vector<size_t> rows(n);
    for (size_t& row : rows) {
      row = static_cast<size_t>(tree_rng.NextBelow(n));
    }
    trees[t].Fit(train, rows, tree_params, tree_rng);
  }

  Rng qrng(47);
  std::string text;
  for (int q = 0; q < 300; ++q) {
    const double a = qrng.NextDouble(0.0, 2.5);
    const double b = qrng.NextDouble(0.0, 2.5);
    const std::vector<double> x = {a, b, b / (a + 0.01)};
    // Each tree's leaf values added in tree order, then one division.
    std::vector<double> reference(train.NumTargets(), 0.0);
    for (const RegressionTree& tree : trees) {
      const std::vector<double> leaf = tree.Predict(x);
      for (size_t k = 0; k < reference.size(); ++k) {
        reference[k] += leaf[k];
      }
    }
    for (double& v : reference) {
      v /= static_cast<double>(trees.size());
    }
    const std::vector<double> predicted = forest.Predict(x);
    ASSERT_EQ(predicted, reference) << "query " << q;
    for (double v : predicted) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g ", v);
      text += buffer;
    }
  }
  EXPECT_EQ(Fnv1a(text), 0x41185406e24088a8ULL);

  std::ostringstream first;
  forest.SerializeTo(first);
  std::istringstream in(first.str());
  RandomForest loaded;
  loaded.DeserializeFrom(in);
  std::ostringstream second;
  loaded.SerializeTo(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(RandomForest, IrrelevantFeaturesTolerated) {
  // Add 5 noise features; the forest must still find the signal.
  Rng rng(25);
  Dataset d;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.NextDouble(0.0, 10.0);
    std::vector<double> row = {x};
    for (int f = 0; f < 5; ++f) {
      row.push_back(rng.NextDouble());
    }
    d.features.push_back(row);
    d.targets.push_back({2.0 * x});
  }
  RandomForest forest;
  ForestParams params;
  params.num_trees = 60;
  params.seed = 3;
  params.feature_fraction = 0.5;
  forest.Fit(d, params);
  std::vector<double> q = {5.0, 0.5, 0.5, 0.5, 0.5, 0.5};
  EXPECT_NEAR(forest.Predict(q)[0], 10.0, 1.0);
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  Rng rng(31);
  std::vector<std::vector<double>> points;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 30; ++i) {
      points.push_back({c * 10.0 + rng.NextGaussian(0.0, 0.5),
                        c * -5.0 + rng.NextGaussian(0.0, 0.5)});
    }
  }
  const KMeansResult result = KMeans(points, 3, rng);
  // Every original cluster maps to exactly one k-means cluster.
  for (int c = 0; c < 3; ++c) {
    std::set<int> labels;
    for (int i = 0; i < 30; ++i) {
      labels.insert(result.assignments[static_cast<size_t>(c * 30 + i)]);
    }
    EXPECT_EQ(labels.size(), 1u) << "cluster " << c << " split";
  }
}

TEST(KMeans, InertiaDecreasesWithK) {
  Rng rng(32);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.NextDouble(0.0, 100.0)});
  }
  const double inertia2 = KMeans(points, 2, rng).inertia;
  const double inertia8 = KMeans(points, 8, rng).inertia;
  EXPECT_LT(inertia8, inertia2);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  std::vector<std::vector<double>> points = {{0.0}, {5.0}, {9.0}};
  Rng rng(33);
  const KMeansResult result = KMeans(points, 3, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(Silhouette, HighForSeparatedLowForOverlapping) {
  Rng rng(34);
  std::vector<std::vector<double>> separated;
  std::vector<std::vector<double>> overlapping;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 25; ++i) {
      separated.push_back({c * 20.0 + rng.NextGaussian(0.0, 0.5)});
      overlapping.push_back({c * 0.5 + rng.NextGaussian(0.0, 1.0)});
    }
  }
  const KMeansResult rs = KMeans(separated, 2, rng);
  const KMeansResult ro = KMeans(overlapping, 2, rng);
  const double sep = MeanSilhouette(separated, rs.assignments, 2);
  const double ovl = MeanSilhouette(overlapping, ro.assignments, 2);
  EXPECT_GT(sep, 0.85);
  EXPECT_LT(ovl, 0.6);
  EXPECT_GT(sep, ovl);
}

TEST(Silhouette, ChoosesTrueK) {
  Rng rng(35);
  std::vector<std::vector<double>> points;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 20; ++i) {
      points.push_back({c * 15.0 + rng.NextGaussian(0.0, 0.6),
                        (c % 2) * 12.0 + rng.NextGaussian(0.0, 0.6)});
    }
  }
  const SilhouetteSelection sel = ChooseKBySilhouette(points, 2, 8, rng);
  EXPECT_EQ(sel.best_k, 4);
  EXPECT_EQ(sel.scores.size(), 7u);
}

TEST(Sfs, FindsTheInformativeFeature) {
  // Feature 2 is the only informative one; SFS must pick it first.
  Rng rng(36);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextDouble(0.0, 1.0);
    d.features.push_back({rng.NextDouble(), rng.NextDouble(), x, rng.NextDouble()});
    d.targets.push_back({3.0 * x});
  }
  ForestParams params;
  params.num_trees = 30;
  params.seed = 11;
  const FeatureSubsetScorer scorer = [&](const std::vector<size_t>& cols) {
    RandomForest forest;
    forest.Fit(d.WithFeatureSubset(cols), params);
    return forest.OutOfBagMae(d.WithFeatureSubset(cols));
  };
  const SfsResult result = SequentialForwardSelection(4, 2, scorer);
  ASSERT_FALSE(result.selected.empty());
  EXPECT_EQ(result.selected[0], 2u);
}

TEST(Sfs, StopsWhenNoImprovement) {
  // Scorer: error 1.0 with one feature, no subset improves on that.
  const FeatureSubsetScorer scorer = [](const std::vector<size_t>& cols) {
    return 1.0 + 0.1 * static_cast<double>(cols.size() - 1);
  };
  const SfsResult result = SequentialForwardSelection(5, 5, scorer, 0.01);
  EXPECT_EQ(result.selected.size(), 1u);
}

TEST(KFold, PartitionsAllIndicesExactlyOnce) {
  Rng rng(37);
  const auto folds = KFoldIndices(23, 4, rng);
  ASSERT_EQ(folds.size(), 4u);
  std::set<size_t> seen;
  for (const auto& fold : folds) {
    for (size_t i : fold) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
  EXPECT_EQ(seen.size(), 23u);
  EXPECT_EQ(*seen.rbegin(), 22u);
}

TEST(KFold, RejectsDegenerateRequests) {
  Rng rng(38);
  EXPECT_THROW(KFoldIndices(3, 5, rng), std::logic_error);
  EXPECT_THROW(KFoldIndices(10, 1, rng), std::logic_error);
}

}  // namespace
}  // namespace numaplace
