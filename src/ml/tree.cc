#include "src/ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <numeric>
#include <utility>

#include "src/util/check.h"

namespace numaplace {

namespace {

// Appends the mean target vector of a row range to `out`.
void AppendMeanTargets(const Dataset& data, std::span<const size_t> rows,
                       std::vector<double>* out) {
  const size_t first = out->size();
  out->resize(first + data.NumTargets(), 0.0);
  const std::span<double> mean(out->data() + first, data.NumTargets());
  for (size_t row : rows) {
    for (size_t k = 0; k < mean.size(); ++k) {
      mean[k] += data.targets[row][k];
    }
  }
  for (double& v : mean) {
    v /= static_cast<double>(rows.size());
  }
}

// Moves the elements of `slice` whose row goes left to its front and the
// rest behind them, each part in its original order: std::stable_partition's
// result, with `spill` (at least slice.size() long) holding the right part
// meanwhile. Returns the size of the left part.
template <typename T, typename GoesLeft>
size_t StablePartition(std::span<T> slice, std::vector<T>& spill, GoesLeft goes_left) {
  size_t left = 0;
  size_t right = 0;
  for (const T& element : slice) {
    if (goes_left(element)) {
      slice[left++] = element;
    } else {
      spill[right++] = element;
    }
  }
  std::copy(spill.begin(), spill.begin() + static_cast<ptrdiff_t>(right),
            slice.begin() + static_cast<ptrdiff_t>(left));
  return left;
}

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double sse = std::numeric_limits<double>::infinity();  // left + right SSE
};

// Threshold of a split between adjacent sorted values a < b: their
// midpoint, or a when the midpoint rounds up to b (as it can for adjacent
// doubles), so that rows at a go left and rows at b go right — the split
// whose SSE the scan measured.
double SplitThreshold(double a, double b) {
  const double mid = 0.5 * (a + b);
  return mid < b ? mid : a;
}

}  // namespace

// Node [begin, end) owns the same positions in `rows` and in every feature's
// list in `sorted`. The root's lists are sorted by (value, row) once per fit;
// each split stable-partitions every list by the row's side, so each part
// stays sorted and a node's list is, element for element, what sorting its
// own (value, row) pairs would give.
struct RegressionTree::FitScratch {
  std::vector<size_t> rows;  // the fit's rows, bootstrap duplicates included
  // With n = rows.size(), feature j's (value, row) list is sorted[j * n, (j + 1) * n).
  std::vector<std::pair<double, size_t>> sorted;
  std::vector<char> goes_left;  // the current split's side, by dataset row
  std::vector<size_t> row_spill;
  std::vector<std::pair<double, size_t>> pair_spill;
  std::vector<int> candidates;
  std::vector<double> prefix_sum;
  std::vector<double> total_sum;
  std::vector<double> prefix_sq;
  std::vector<double> total_sq;
};

void RegressionTree::Fit(const Dataset& data, std::span<const size_t> rows,
                         const TreeParams& params, Rng& rng) {
  data.Validate();
  NP_CHECK(!rows.empty());
  NP_CHECK(data.NumTargets() > 0);
  NP_CHECK(params.max_depth >= 1);
  NP_CHECK(params.min_samples_leaf >= 1);
  NP_CHECK(params.min_samples_split >= 2);
  for (size_t row : rows) {
    NP_CHECK(row < data.NumSamples());
  }
  nodes_.clear();
  leaf_values_.clear();
  num_features_ = data.NumFeatures();
  num_targets_ = data.NumTargets();

  const size_t n = rows.size();
  FitScratch scratch;
  scratch.rows.assign(rows.begin(), rows.end());
  scratch.sorted.resize(num_features_ * n);
  for (size_t j = 0; j < num_features_; ++j) {
    const auto list = scratch.sorted.begin() + static_cast<ptrdiff_t>(j * n);
    for (size_t i = 0; i < n; ++i) {
      list[static_cast<ptrdiff_t>(i)] = {data.features[rows[i]][j], rows[i]};
    }
    std::sort(list, list + static_cast<ptrdiff_t>(n));
  }
  scratch.goes_left.resize(data.NumSamples());
  scratch.row_spill.resize(n);
  scratch.pair_spill.resize(n);
  scratch.candidates.resize(num_features_);
  scratch.prefix_sum.resize(num_targets_);
  scratch.total_sum.resize(num_targets_);
  scratch.prefix_sq.resize(num_targets_);
  scratch.total_sq.resize(num_targets_);
  BuildNode(data, scratch, 0, n, /*depth=*/0, params, rng);
}

void RegressionTree::Fit(const Dataset& data, const TreeParams& params, Rng& rng) {
  std::vector<size_t> rows(data.NumSamples());
  std::iota(rows.begin(), rows.end(), 0);
  Fit(data, rows, params, rng);
}

int RegressionTree::BuildNode(const Dataset& data, FitScratch& scratch, size_t begin,
                              size_t end, int depth, const TreeParams& params, Rng& rng) {
  const size_t n = end - begin;
  const size_t m = num_targets_;
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  const std::span<size_t> rows(scratch.rows.data() + begin, n);

  auto make_leaf = [&]() {
    nodes_[static_cast<size_t>(node_index)].leaf = static_cast<int>(leaf_values_.size() / m);
    AppendMeanTargets(data, rows, &leaf_values_);
    return node_index;
  };

  if (n < static_cast<size_t>(params.min_samples_split) || depth >= params.max_depth) {
    return make_leaf();
  }

  // Candidate features: all, or a uniform random subset of the given size.
  std::vector<int>& candidates = scratch.candidates;
  std::iota(candidates.begin(), candidates.end(), 0);
  size_t num_candidates = num_features_;
  if (params.features_per_split > 0 &&
      params.features_per_split < static_cast<int>(num_features_)) {
    rng.Shuffle(candidates);
    num_candidates = static_cast<size_t>(params.features_per_split);
  }

  // Scan each candidate feature for the threshold minimizing total SSE.
  SplitCandidate best;
  std::vector<double>& prefix_sum = scratch.prefix_sum;
  std::vector<double>& total_sum = scratch.total_sum;
  std::vector<double>& prefix_sq = scratch.prefix_sq;
  std::vector<double>& total_sq = scratch.total_sq;
  std::fill(total_sum.begin(), total_sum.end(), 0.0);
  std::fill(total_sq.begin(), total_sq.end(), 0.0);
  for (size_t row : rows) {
    for (size_t k = 0; k < m; ++k) {
      const double y = data.targets[row][k];
      total_sum[k] += y;
      total_sq[k] += y * y;
    }
  }

  for (size_t c = 0; c < num_candidates; ++c) {
    const int feature = candidates[c];
    // This node's (value, row) pairs of the feature, sorted.
    const std::pair<double, size_t>* order =
        scratch.sorted.data() + static_cast<size_t>(feature) * scratch.rows.size() + begin;
    if (order[0].first == order[n - 1].first) {
      continue;  // constant feature in this node
    }
    std::fill(prefix_sum.begin(), prefix_sum.end(), 0.0);
    std::fill(prefix_sq.begin(), prefix_sq.end(), 0.0);
    for (size_t i = 0; i + 1 < n; ++i) {
      const size_t row = order[i].second;
      for (size_t k = 0; k < m; ++k) {
        const double y = data.targets[row][k];
        prefix_sum[k] += y;
        prefix_sq[k] += y * y;
      }
      const size_t left_n = i + 1;
      const size_t right_n = n - left_n;
      if (left_n < static_cast<size_t>(params.min_samples_leaf) ||
          right_n < static_cast<size_t>(params.min_samples_leaf)) {
        continue;
      }
      // No split between identical feature values.
      if (order[i].first == order[i + 1].first) {
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
      if (sse < best.sse) {
        best.sse = sse;
        best.feature = feature;
        best.threshold = SplitThreshold(order[i].first, order[i + 1].first);
      }
    }
  }

  if (best.feature < 0) {
    return make_leaf();
  }

  // Partition the node's rows, and every feature's list, by the side each
  // row takes, from the row's value (SplitThreshold keeps that equal to the
  // scan position).
  std::vector<char>& goes_left = scratch.goes_left;
  for (size_t row : rows) {
    goes_left[row] =
        data.features[row][static_cast<size_t>(best.feature)] <= best.threshold ? 1 : 0;
  }
  const size_t mid = begin + StablePartition(rows, scratch.row_spill, [&](size_t row) {
                       return goes_left[row] != 0;
                     });
  NP_CHECK(mid > begin && mid < end);
  for (size_t j = 0; j < num_features_; ++j) {
    StablePartition(std::span<std::pair<double, size_t>>(
                        scratch.sorted.data() + j * scratch.rows.size() + begin, n),
                    scratch.pair_spill,
                    [&](const std::pair<double, size_t>& entry) {
                      return goes_left[entry.second] != 0;
                    });
  }

  const int left = BuildNode(data, scratch, begin, mid, depth + 1, params, rng);
  const int right = BuildNode(data, scratch, mid, end, depth + 1, params, rng);
  Node& node = nodes_[static_cast<size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

std::vector<double> RegressionTree::Predict(std::span<const double> features) const {
  const std::span<const double> leaf = LeafValues(features);
  return {leaf.begin(), leaf.end()};
}

std::span<const double> RegressionTree::LeafValues(std::span<const double> features) const {
  NP_CHECK_MSG(IsFitted(), "Predict called before Fit");
  NP_CHECK(features.size() == num_features_);
  const Node* node = &nodes_[0];
  while (node->left >= 0) {
    node = &nodes_[static_cast<size_t>(
        features[static_cast<size_t>(node->feature)] <= node->threshold ? node->left
                                                                         : node->right)];
  }
  return {leaf_values_.data() + static_cast<size_t>(node->leaf) * num_targets_, num_targets_};
}

void RegressionTree::SerializeTo(std::ostream& os) const {
  NP_CHECK_MSG(IsFitted(), "cannot serialize an unfitted tree");
  os << "tree " << nodes_.size() << " " << num_features_ << "\n";
  // Full round-trip precision on thresholds and leaf values.
  const auto previous_precision = os.precision(17);
  for (const Node& node : nodes_) {
    os << node.feature << " " << node.threshold << " " << node.left << " " << node.right;
    if (node.left >= 0) {
      os << " 0\n";
      continue;
    }
    os << " " << num_targets_;
    for (size_t k = 0; k < num_targets_; ++k) {
      os << " " << leaf_values_[static_cast<size_t>(node.leaf) * num_targets_ + k];
    }
    os << "\n";
  }
  os.precision(previous_precision);
}

void RegressionTree::DeserializeFrom(std::istream& is) {
  std::string tag;
  size_t num_nodes = 0;
  is >> tag >> num_nodes >> num_features_;
  NP_CHECK_MSG(is.good() && tag == "tree", "malformed tree header");
  NP_CHECK(num_nodes >= 1);
  nodes_.assign(num_nodes, Node{});
  leaf_values_.clear();
  num_targets_ = 0;
  int num_leaves = 0;
  for (size_t i = 0; i < num_nodes; ++i) {
    Node& node = nodes_[i];
    size_t value_count = 0;
    is >> node.feature >> node.threshold >> node.left >> node.right >> value_count;
    NP_CHECK_MSG(is.good(), "truncated tree node");
    // Structural validation: children after their parent and in range, so
    // every walk ends at a leaf; leaves alone carry values, all of one width.
    const auto index = static_cast<int>(i);
    NP_CHECK(node.left == -1 || (node.left > index && node.left < static_cast<int>(num_nodes)));
    NP_CHECK(node.right == -1 ||
             (node.right > index && node.right < static_cast<int>(num_nodes)));
    NP_CHECK((node.left == -1) == (node.right == -1));
    if (node.left != -1) {
      NP_CHECK(node.feature >= 0 && node.feature < static_cast<int>(num_features_));
      NP_CHECK_MSG(value_count == 0, "internal tree node with leaf values");
      continue;
    }
    NP_CHECK_MSG(value_count > 0, "leaf without values");
    if (num_leaves == 0) {
      num_targets_ = value_count;
    }
    NP_CHECK_MSG(value_count == num_targets_, "tree leaves of widths " << num_targets_
                                                                         << " and "
                                                                         << value_count);
    node.leaf = num_leaves++;
    for (size_t k = 0; k < value_count; ++k) {
      double v = 0.0;
      is >> v;
      leaf_values_.push_back(v);
    }
    NP_CHECK_MSG(!is.fail(), "truncated tree leaf values");
  }
}

int RegressionTree::Depth() const {
  if (nodes_.empty()) {
    return 0;
  }
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<int, int>> stack = {{0, 1}};
  int depth = 0;
  while (!stack.empty()) {
    const auto [index, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    const Node& node = nodes_[static_cast<size_t>(index)];
    if (node.left >= 0) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return depth;
}

}  // namespace numaplace
