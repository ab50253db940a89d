// Multi-output CART regression tree: the base learner of the Random Forest
// in §5. Splits minimize the summed per-output variance (equivalently the
// trace of the within-node target covariance), which generalizes the usual
// single-output variance-reduction criterion to performance vectors.
#ifndef NUMAPLACE_SRC_ML_TREE_H_
#define NUMAPLACE_SRC_ML_TREE_H_

#include <cstddef>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "src/ml/dataset.h"
#include "src/util/rng.h"

namespace numaplace {

struct TreeParams {
  int max_depth = 16;
  int min_samples_leaf = 1;
  int min_samples_split = 2;
  // Number of candidate features examined per split; 0 means all features
  // (plain CART). Forests set this to ~d/3 for decorrelation.
  int features_per_split = 0;
};

class RegressionTree {
 public:
  // Fits on the rows listed in `rows` (bootstrap support). The dataset must
  // outlive the call only; the tree copies what it needs.
  void Fit(const Dataset& data, std::span<const size_t> rows, const TreeParams& params,
           Rng& rng);

  // Convenience overload over all rows.
  void Fit(const Dataset& data, const TreeParams& params, Rng& rng);

  // Predicts the target vector for one feature row.
  std::vector<double> Predict(std::span<const double> features) const;
  // The same prediction read in place: the reached leaf's values, valid
  // until the tree is refitted or reloaded.
  std::span<const double> LeafValues(std::span<const double> features) const;

  bool IsFitted() const { return !nodes_.empty(); }
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumFeatures() const { return num_features_; }
  // Width of every leaf's value vector.
  size_t NumTargets() const { return num_targets_; }
  int Depth() const;

  // Plain-text (de)serialization, for shipping trained models from an
  // offline training run into a scheduler. The format is line-oriented and
  // versioned by the caller (RandomForest / model-level headers). Loading
  // throws std::logic_error on a malformed tree, including one whose leaves
  // differ in width or whose child links do not point forward.
  void SerializeTo(std::ostream& os) const;
  void DeserializeFrom(std::istream& is);

 private:
  struct Node {
    // Internal nodes: feature/threshold valid, children set (both after
    // the node itself, in preorder).
    // Leaves: left == right == -1; `leaf` is the leaf's row of leaf_values_.
    double threshold = 0.0;
    int feature = -1;
    int left = -1;
    int right = -1;
    int leaf = -1;
  };

  // One fit's working state: the fit's rows and each feature's presorted
  // (value, row) list, both partitioned node by node, plus the buffers the
  // split search reuses. Defined in tree.cc.
  struct FitScratch;

  int BuildNode(const Dataset& data, FitScratch& scratch, size_t begin, size_t end,
                int depth, const TreeParams& params, Rng& rng);

  std::vector<Node> nodes_;
  // Each leaf's mean target vector, num_targets_ values per leaf.
  std::vector<double> leaf_values_;
  size_t num_features_ = 0;
  size_t num_targets_ = 0;
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_ML_TREE_H_
