// Multi-output Random Forest regressor (§5): bagged CART trees with random
// feature subsets per split. "RF is a machine learning technique known for
// its ability to learn non-linear functions with very little or no tuning" —
// the defaults here are the standard regression-forest settings.
#ifndef NUMAPLACE_SRC_ML_FOREST_H_
#define NUMAPLACE_SRC_ML_FOREST_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "src/ml/dataset.h"
#include "src/ml/tree.h"

namespace numaplace {

struct ForestParams {
  int num_trees = 100;
  TreeParams tree;
  // Fraction of features tried per split; the per-tree features_per_split is
  // derived as max(1, round(fraction * d)) unless tree.features_per_split is
  // already set explicitly.
  double feature_fraction = 1.0 / 3.0;
  uint64_t seed = 1;
};

class RandomForest {
 public:
  // Fits the trees concurrently through ParallelFor (src/util/parallel_for.h):
  // one thread per CPU in the affinity mask, at most one per tree, the
  // calling thread included; called from inside another ParallelFor body, it
  // fits them serially on that worker. Tree t draws only from the Fork(t)
  // stream of the seed's generator, so the fitted forest is identical under
  // any thread count or schedule. A tree's exception is rethrown here after
  // every thread has joined; the forest is then left unfitted.
  void Fit(const Dataset& data, const ForestParams& params);

  std::vector<double> Predict(std::span<const double> features) const;

  // Out-of-bag mean absolute error per target (averaged over targets when
  // reduce_targets is true): an internal generalization estimate that needs
  // no held-out data.
  double OutOfBagMae(const Dataset& data) const;

  bool IsFitted() const { return !trees_.empty(); }
  size_t NumTrees() const { return trees_.size(); }
  size_t NumFeatures() const { return num_features_; }
  size_t NumTargets() const { return num_targets_; }

  // Plain-text (de)serialization. Bootstrap bookkeeping is not persisted, so
  // OutOfBagMae is unavailable on a loaded forest; Predict works normally.
  // Loading throws std::logic_error when a tree's leaf width differs from
  // the header's target count or the trees disagree on the feature count.
  void SerializeTo(std::ostream& os) const;
  void DeserializeFrom(std::istream& is);

 private:
  std::vector<RegressionTree> trees_;
  // Per tree, per training row: drawn into the bootstrap sample (for OOB).
  std::vector<std::vector<bool>> in_bag_;
  size_t num_features_ = 0;
  size_t num_targets_ = 0;
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_ML_FOREST_H_
