#include "src/ml/forest.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/util/check.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"

namespace numaplace {

void RandomForest::Fit(const Dataset& data, const ForestParams& params) {
  data.Validate();
  NP_CHECK(params.num_trees >= 1);
  NP_CHECK(data.NumSamples() >= 1);
  trees_.clear();
  in_bag_.clear();
  num_targets_ = data.NumTargets();

  TreeParams tree_params = params.tree;
  if (tree_params.features_per_split == 0 && params.feature_fraction < 1.0) {
    tree_params.features_per_split = std::max(
        1, static_cast<int>(std::lround(params.feature_fraction *
                                        static_cast<double>(data.NumFeatures()))));
  }

  const Rng rng(params.seed);
  const size_t n = data.NumSamples();
  std::vector<RegressionTree> trees(static_cast<size_t>(params.num_trees));
  std::vector<std::vector<bool>> in_bag(trees.size(), std::vector<bool>(n, false));
  // Tree t draws only from rng.Fork(t) and writes only slot t, so the
  // forest is the same whichever thread fits which tree, in whatever order.
  ParallelFor(trees.size(), [&](size_t t) {
    Rng tree_rng = rng.Fork(t);
    std::vector<size_t> rows(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i] = static_cast<size_t>(tree_rng.NextBelow(n));
      in_bag[t][rows[i]] = true;
    }
    trees[t].Fit(data, rows, tree_params, tree_rng);
  });
  trees_ = std::move(trees);
  in_bag_ = std::move(in_bag);
}

std::vector<double> RandomForest::Predict(std::span<const double> features) const {
  NP_CHECK_MSG(IsFitted(), "Predict called before Fit");
  std::vector<double> acc(num_targets_, 0.0);
  for (const RegressionTree& tree : trees_) {
    const std::vector<double> p = tree.Predict(features);
    for (size_t k = 0; k < acc.size(); ++k) {
      acc[k] += p[k];
    }
  }
  for (double& v : acc) {
    v /= static_cast<double>(trees_.size());
  }
  return acc;
}

void RandomForest::SerializeTo(std::ostream& os) const {
  NP_CHECK_MSG(IsFitted(), "cannot serialize an unfitted forest");
  os << "forest " << trees_.size() << " " << num_targets_ << "\n";
  for (const RegressionTree& tree : trees_) {
    tree.SerializeTo(os);
  }
}

void RandomForest::DeserializeFrom(std::istream& is) {
  std::string tag;
  size_t num_trees = 0;
  is >> tag >> num_trees >> num_targets_;
  NP_CHECK_MSG(is.good() && tag == "forest", "malformed forest header");
  NP_CHECK(num_trees >= 1);
  trees_.assign(num_trees, RegressionTree{});
  in_bag_.clear();  // not persisted; OOB unavailable after a load
  for (RegressionTree& tree : trees_) {
    tree.DeserializeFrom(is);
  }
}

double RandomForest::OutOfBagMae(const Dataset& data) const {
  NP_CHECK_MSG(IsFitted(), "OutOfBagMae called before Fit");
  NP_CHECK_MSG(!in_bag_.empty(),
               "out-of-bag error unavailable on a deserialized forest");
  data.Validate();
  double total_err = 0.0;
  size_t total_terms = 0;
  for (size_t i = 0; i < data.NumSamples(); ++i) {
    std::vector<double> acc(num_targets_, 0.0);
    int voters = 0;
    for (size_t t = 0; t < trees_.size(); ++t) {
      // Tree t votes on row i only if i was not in its bootstrap sample
      // (rows past the training set never were).
      if (i < in_bag_[t].size() && in_bag_[t][i]) {
        continue;
      }
      const std::vector<double> p = trees_[t].Predict(data.features[i]);
      for (size_t k = 0; k < acc.size(); ++k) {
        acc[k] += p[k];
      }
      ++voters;
    }
    if (voters == 0) {
      continue;  // row in every bootstrap sample; rare for >30 trees
    }
    for (size_t k = 0; k < acc.size(); ++k) {
      total_err += std::abs(acc[k] / voters - data.targets[i][k]);
      ++total_terms;
    }
  }
  NP_CHECK_MSG(total_terms > 0, "no out-of-bag rows; too few trees");
  return total_err / static_cast<double>(total_terms);
}

}  // namespace numaplace
