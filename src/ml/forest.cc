#include "src/ml/forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <string>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/util/check.h"
#include "src/util/rng.h"

namespace numaplace {

namespace {

// CPUs this process may run on: its affinity mask where the platform has
// one, else the hardware concurrency; at least 1.
size_t AvailableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// Runs body(i) for every i in [0, count) on up to one thread per available
// CPU, the calling thread included. Indices are claimed in ascending order,
// and a failure stops further claims; after every thread has joined, the
// exception of the lowest failed index is rethrown on the caller — the one
// a serial loop would have thrown, since every lower index was claimed
// before it and ran to completion.
template <typename Body>
void ForEachIndexInParallel(size_t count, const Body& body) {
  const size_t workers = std::min(count, AvailableCpus());
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  struct Failure {
    size_t index = std::numeric_limits<size_t>::max();
    std::exception_ptr error;
  };
  std::vector<Failure> failures(workers);
  const auto work = [&](size_t worker) {
    while (!failed.load()) {
      const size_t i = next.fetch_add(1);
      if (i >= count) {
        return;
      }
      try {
        body(i);
      } catch (...) {
        failures[worker] = {i, std::current_exception()};
        failed.store(true);
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(work, w);
    } catch (...) {
      break;  // no thread to spare: the threads already running claim the rest
    }
  }
  work(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto first = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first != failures.end() && first->error != nullptr) {
    std::rethrow_exception(first->error);
  }
}

}  // namespace

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
  ForEachIndexInParallel(trees.size(), [&](size_t t) {
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
