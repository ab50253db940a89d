#include "src/model/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "src/ml/selection.h"
#include "src/util/check.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace numaplace {

namespace {

// Index of a placement id within the set's ordering.
size_t IndexOf(const ImportantPlacementSet& ips, int id) {
  for (size_t i = 0; i < ips.placements.size(); ++i) {
    if (ips.placements[i].id == id) {
      return i;
    }
  }
  NP_CHECK_MSG(false, "placement id " << id << " not in the important set");
  __builtin_unreachable();
}

// The measurement cache is keyed by workload name; a duplicate name would
// silently alias two different workloads' measurements.
void CheckUniqueWorkloadNames(const std::vector<WorkloadProfile>& workloads) {
  std::set<std::string> names;
  for (const WorkloadProfile& w : workloads) {
    NP_CHECK_MSG(names.insert(w.name).second,
                 "duplicate workload name '" << w.name
                                             << "' in a training set — measurements are "
                                                "cached per name and would be aliased");
  }
}

// A performance model's input row: the two probe measurements normalized
// by `ipc_scale`, and their ratio. Training rows, the search's held-out
// predictions and deployed predictions all build it here, so they agree to
// the bit.
std::vector<double> PerfFeatures(double perf_in_a, double perf_in_b, double ipc_scale) {
  return {perf_in_a * ipc_scale, perf_in_b * ipc_scale, perf_in_b / perf_in_a};
}

}  // namespace

std::vector<double> TrainedPerfModel::Predict(double perf_in_a, double perf_in_b) const {
  NP_CHECK_MSG(perf_in_a > 0.0, "non-positive probe measurement");
  return forest.Predict(PerfFeatures(perf_in_a, perf_in_b, ipc_scale));
}

namespace {
constexpr char kModelFormatTag[] = "numaplace-perf-model-v1";
}  // namespace

void TrainedPerfModel::SaveText(std::ostream& os) const {
  os << kModelFormatTag << "\n";
  os << input_a << " " << input_b << " " << baseline_id << "\n";
  const auto previous_precision = os.precision(17);
  os << ipc_scale << "\n";
  os.precision(previous_precision);
  os << placement_ids.size();
  for (int id : placement_ids) {
    os << " " << id;
  }
  os << "\n";
  forest.SerializeTo(os);
}

TrainedPerfModel TrainedPerfModel::LoadText(std::istream& is) {
  std::string tag;
  is >> tag;
  NP_CHECK_MSG(tag == kModelFormatTag, "unknown model format: " << tag);
  TrainedPerfModel model;
  is >> model.input_a >> model.input_b >> model.baseline_id >> model.ipc_scale;
  size_t count = 0;
  is >> count;
  NP_CHECK_MSG(is.good() && count >= 1 && count < 10000, "malformed placement-id list");
  model.placement_ids.resize(count);
  for (int& id : model.placement_ids) {
    is >> id;
  }
  NP_CHECK_MSG(!is.fail(), "truncated placement-id list");
  NP_CHECK_MSG(model.ipc_scale > 0.0, "non-positive ipc scale");
  model.forest.DeserializeFrom(is);
  return model;
}

std::vector<double> TrainedHpeModel::Predict(const std::vector<double>& counters) const {
  std::vector<double> features;
  features.reserve(selected_counters.size());
  for (size_t idx : selected_counters) {
    NP_CHECK(idx < counters.size());
    features.push_back(counters[idx]);
  }
  return forest.Predict(features);
}

ModelPipeline::ModelPipeline(const ImportantPlacementSet& ips, const PerformanceModel& sim,
                             int baseline_id, uint64_t seed)
    : ips_(&ips), sim_(&sim), baseline_id_(baseline_id), seed_(seed) {
  IndexOf(ips, baseline_id);  // validates
}

double ModelPipeline::MeasureAbsolute(const WorkloadProfile& profile, int placement_id,
                                      uint64_t run) const {
  const auto key = std::make_tuple(profile.name, placement_id, run);
  const auto it = measurement_cache_.find(key);
  if (it != measurement_cache_.end()) {
    return it->second;
  }
  const ImportantPlacement& ip = ips_->ById(placement_id);
  const Placement realized = Realize(ip, sim_->topology(), ips_->vcpus);
  const double value = sim_->Evaluate(profile, realized, run).throughput_ops;
  measurement_cache_.emplace(key, value);
  return value;
}

PerformanceVector ModelPipeline::MeasureVector(const WorkloadProfile& profile,
                                               uint64_t run) const {
  PerformanceVector v;
  v.workload = profile.name;
  const double baseline = MeasureAbsolute(profile, baseline_id_, run);
  NP_CHECK(baseline > 0.0);
  v.relative.reserve(ips_->placements.size());
  for (const ImportantPlacement& ip : ips_->placements) {
    v.relative.push_back(MeasureAbsolute(profile, ip.id, run) / baseline);
  }
  return v;
}

Dataset ModelPipeline::BuildPerfDataset(const std::vector<WorkloadProfile>& workloads,
                                        int input_a, int input_b,
                                        const PerfModelConfig& config) const {
  NP_CHECK(input_a != input_b);
  CheckUniqueWorkloadNames(workloads);
  const double scale = IpcScale();
  Dataset data;
  for (const WorkloadProfile& w : workloads) {
    for (int run = 0; run < config.runs_per_workload; ++run) {
      const auto run_id = static_cast<uint64_t>(run);
      const double pa = MeasureAbsolute(w, input_a, run_id);
      const double pb = MeasureAbsolute(w, input_b, run_id);
      NP_CHECK(pa > 0.0);
      data.features.push_back(PerfFeatures(pa, pb, scale));
      data.targets.push_back(MeasureVector(w, run_id).relative);
    }
  }
  data.Validate();
  return data;
}

double ModelPipeline::IpcScale() const {
  return 1.0 / (sim_->topology().perf().base_ops_per_thread *
                static_cast<double>(ips_->vcpus));
}

TrainedPerfModel ModelPipeline::TrainPerf(const std::vector<WorkloadProfile>& workloads,
                                          int input_a, int input_b,
                                          const PerfModelConfig& config) const {
  TrainedPerfModel model;
  model.input_a = input_a;
  model.input_b = input_b;
  model.baseline_id = baseline_id_;
  model.ipc_scale = IpcScale();
  for (const ImportantPlacement& ip : ips_->placements) {
    model.placement_ids.push_back(ip.id);
  }
  const Dataset data = BuildPerfDataset(workloads, input_a, input_b, config);
  ForestParams params = config.forest;
  params.seed = seed_;
  model.forest.Fit(data, params);
  return model;
}

namespace {

// Run index of the probe measurements that score a fold's held-out
// workloads: noise no training row has seen.
constexpr uint64_t kProbeRun = 1000;

// Everything the probe-pair search reads, measured once on the calling
// thread before any pair is scored. Slot s < runs_per_workload is training
// run s; the last slot is the probe run.
struct PairSearchInputs {
  size_t workloads = 0;
  size_t placements = 0;
  size_t slots = 0;
  size_t training_runs = 0;
  double ipc_scale = 1.0;
  std::vector<double> absolute;               // [(w * slots + s) * placements + p]
  std::vector<std::vector<double>> relative;  // [w * slots + s], as MeasureVector
  std::vector<std::vector<size_t>> fold_sets;
  int scored = 0;  // held-out workloads over the folds that are scored

  double At(size_t w, size_t s, size_t p) const {
    return absolute[(w * slots + s) * placements + p];
  }
  size_t ProbeSlot() const { return slots - 1; }
};

PairSearchInputs MeasurePairSearchInputs(const ModelPipeline& pipeline,
                                         const std::vector<WorkloadProfile>& workloads,
                                         const PerfModelConfig& config, double ipc_scale,
                                         uint64_t seed) {
  CheckUniqueWorkloadNames(workloads);
  NP_CHECK(config.runs_per_workload >= 0);
  const ImportantPlacementSet& ips = pipeline.important();
  PairSearchInputs in;
  in.workloads = workloads.size();
  in.placements = ips.placements.size();
  in.training_runs = static_cast<size_t>(config.runs_per_workload);
  in.slots = in.training_runs + 1;
  in.ipc_scale = ipc_scale;
  const size_t baseline = IndexOf(ips, pipeline.baseline_id());
  in.absolute.reserve(in.workloads * in.slots * in.placements);
  in.relative.reserve(in.workloads * in.slots);
  for (const WorkloadProfile& w : workloads) {
    for (size_t s = 0; s < in.slots; ++s) {
      const uint64_t run = s < in.training_runs ? s : kProbeRun;
      const size_t row = in.absolute.size();
      for (const ImportantPlacement& ip : ips.placements) {
        const double value = pipeline.MeasureAbsolute(w, ip.id, run);
        NP_CHECK_MSG(value > 0.0, "non-positive measurement of '"
                                      << w.name << "' in placement #" << ip.id
                                      << " (run " << run << ")");
        in.absolute.push_back(value);
      }
      std::vector<double> relative(in.placements);
      for (size_t p = 0; p < in.placements; ++p) {
        relative[p] = in.absolute[row + p] / in.absolute[row + baseline];
      }
      in.relative.push_back(std::move(relative));
    }
  }

  // Fold over *workloads*, not rows, so repeated runs of one workload never
  // straddle the train/test divide (that would leak the answer).
  Rng rng(SplitMix64(seed ^ 0xf01d5));
  in.fold_sets = KFoldIndices(workloads.size(), static_cast<size_t>(config.cv_folds), rng);
  for (const std::vector<size_t>& test_rows : in.fold_sets) {
    if (!test_rows.empty() && test_rows.size() < workloads.size()) {
      in.scored += static_cast<int>(test_rows.size());
    }
  }
  NP_CHECK(in.scored > 0);
  return in;
}

// The best pair scored to completion so far, shared by the pair tasks of
// one search: the least (error, pair index), which is the pair the serial
// first-strict-minimum loop keeps.
class BestPair {
 public:
  static constexpr size_t kNone = std::numeric_limits<size_t>::max();

  void Offer(double error, size_t pair) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (error < error_ || (error == error_ && pair_ != kNone && pair < pair_)) {
      error_ = error;
      pair_ = pair;
    }
  }

  // True when a pair whose final error is at least `lower` cannot win: it
  // would lose to the best on error, or tie it and come later.
  bool Excludes(double lower, size_t pair) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return lower > error_ || (lower == error_ && pair_ != kNone && pair > pair_);
  }

  size_t pair() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return pair_;
  }

 private:
  mutable std::mutex mu_;
  double error_ = std::numeric_limits<double>::infinity();
  size_t pair_ = kNone;
};

// k-fold cross-validated error of the probe pair at placement indices
// (a, b): per held-out workload, a blend of the mean and worst absolute
// error of the predicted vector, averaged over `scored`. With a `best`,
// scoring stops after a fold whose partial sum already rules the pair out
// (returns nullopt). That bound is exact: every per-workload term is
// non-negative, `scored` is the same for every pair, and rounded addition
// and division are monotone, so partial_sum / scored never exceeds the
// final error.
std::optional<double> ScorePair(const PairSearchInputs& in, size_t a, size_t b,
                                const PerfModelConfig& config, uint64_t seed,
                                const BestPair* best, size_t pair) {
  ForestParams params = config.forest;
  params.num_trees = config.cv_trees;
  params.seed = seed;
  const auto features = [&](size_t w, size_t s) {
    return PerfFeatures(in.At(w, s, a), in.At(w, s, b), in.ipc_scale);
  };
  const double scored = static_cast<double>(in.scored);
  double total_mae = 0.0;
  std::vector<bool> in_test(in.workloads);
  for (const std::vector<size_t>& test_rows : in.fold_sets) {
    if (test_rows.empty() || test_rows.size() == in.workloads) {
      continue;
    }
    std::fill(in_test.begin(), in_test.end(), false);
    for (size_t w : test_rows) {
      in_test[w] = true;
    }
    Dataset train;
    for (size_t w = 0; w < in.workloads; ++w) {
      for (size_t s = 0; !in_test[w] && s < in.training_runs; ++s) {
        train.features.push_back(features(w, s));
        train.targets.push_back(in.relative[w * in.slots + s]);
      }
    }
    RandomForest forest;
    forest.Fit(train, params);
    for (size_t w = 0; w < in.workloads; ++w) {
      if (!in_test[w]) {
        continue;
      }
      const std::vector<double> predicted = forest.Predict(features(w, in.ProbeSlot()));
      const std::vector<double>& actual = in.relative[w * in.slots + in.ProbeSlot()];
      // Score with a blend of mean and worst-entry error: the scheduler acts
      // on individual entries of the vector (it commits a container to the
      // placement it picks), so an input pair that nails the average but
      // badly misses one placement is a bad probe pair.
      double mean_err = 0.0;
      double max_err = 0.0;
      for (size_t k = 0; k < actual.size(); ++k) {
        const double err = std::abs(actual[k] - predicted[k]);
        mean_err += err;
        max_err = std::max(max_err, err);
      }
      mean_err /= static_cast<double>(actual.size());
      total_mae += 0.5 * mean_err + 0.5 * max_err;
    }
    if (best != nullptr && best->Excludes(total_mae / scored, pair)) {
      return std::nullopt;
    }
  }
  return total_mae / scored;
}

}  // namespace

double ModelPipeline::CrossValidatedMae(const std::vector<WorkloadProfile>& workloads,
                                        int input_a, int input_b,
                                        const PerfModelConfig& config) const {
  NP_CHECK(input_a != input_b);
  const size_t a = IndexOf(*ips_, input_a);
  const size_t b = IndexOf(*ips_, input_b);
  const PairSearchInputs inputs =
      MeasurePairSearchInputs(*this, workloads, config, IpcScale(), seed_);
  return *ScorePair(inputs, a, b, config, seed_, /*best=*/nullptr, 0);
}

TrainedPerfModel ModelPipeline::TrainPerfAuto(const std::vector<WorkloadProfile>& workloads,
                                              const PerfModelConfig& config) const {
  const size_t count = ips_->placements.size();
  NP_CHECK_MSG(count >= 2, "the probe-pair search needs at least two important "
                           "placements, but the set for "
                               << ips_->vcpus << " vCPUs has " << count);
  const PairSearchInputs inputs =
      MeasurePairSearchInputs(*this, workloads, config, IpcScale(), seed_);
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      pairs.emplace_back(i, j);
    }
  }
  // One task per pair; the forest fits inside run serially on their worker.
  // The winner is the least (error, pair index) over completed pairs, and no
  // pruned pair could have beaten it, so any schedule picks the same pair.
  BestPair best;
  ParallelFor(pairs.size(), [&](size_t k) {
    const std::optional<double> error =
        ScorePair(inputs, pairs[k].first, pairs[k].second, config, seed_, &best, k);
    if (error.has_value()) {
      best.Offer(*error, k);
    }
  });
  NP_CHECK_MSG(best.pair() != BestPair::kNone,
               "no input pair has a finite cross-validated error");
  const auto [a, b] = pairs[best.pair()];
  return TrainPerf(workloads, ips_->placements[a].id, ips_->placements[b].id, config);
}

namespace {

// Full-width HPE dataset: one row per (workload, run), all candidate
// counters as features.
Dataset BuildHpeDataset(const ModelPipeline& pipeline, const HpeSampler& sampler,
                        const std::vector<WorkloadProfile>& workloads,
                        int sample_placement_id, const PerfModelConfig& config) {
  CheckUniqueWorkloadNames(workloads);
  Dataset data;
  for (const WorkloadProfile& w : workloads) {
    const std::vector<double> counters =
        pipeline.SampleHpe(sampler, w, sample_placement_id);
    for (int run = 0; run < config.runs_per_workload; ++run) {
      data.features.push_back(counters);
      data.targets.push_back(pipeline.MeasureVector(w, static_cast<uint64_t>(run)).relative);
    }
  }
  data.Validate();
  return data;
}

}  // namespace

TrainedHpeModel ModelPipeline::TrainHpe(const std::vector<WorkloadProfile>& workloads,
                                        const HpeSampler& sampler, int sample_placement_id,
                                        size_t max_features,
                                        const PerfModelConfig& config) const {
  const Dataset data =
      BuildHpeDataset(*this, sampler, workloads, sample_placement_id, config);

  // SFS: score a counter subset by out-of-bag MAE of a small forest (fast
  // proxy for k-fold CV; both are unbiased enough to rank subsets).
  ForestParams sfs_params = config.forest;
  sfs_params.num_trees = 40;
  sfs_params.seed = seed_ ^ 0x5f5;
  const FeatureSubsetScorer scorer = [&](const std::vector<size_t>& columns) {
    const Dataset projected = data.WithFeatureSubset(columns);
    RandomForest forest;
    forest.Fit(projected, sfs_params);
    return forest.OutOfBagMae(projected);
  };
  const SfsResult sfs =
      SequentialForwardSelection(data.NumFeatures(), max_features, scorer);
  return TrainHpeGivenCounters(workloads, sampler, sample_placement_id, sfs.selected,
                               config);
}

TrainedHpeModel ModelPipeline::TrainHpeGivenCounters(
    const std::vector<WorkloadProfile>& workloads, const HpeSampler& sampler,
    int sample_placement_id, const std::vector<size_t>& counters,
    const PerfModelConfig& config) const {
  NP_CHECK(!counters.empty());
  const Dataset data =
      BuildHpeDataset(*this, sampler, workloads, sample_placement_id, config);
  TrainedHpeModel model;
  model.sample_placement_id = sample_placement_id;
  model.baseline_id = baseline_id_;
  model.selected_counters = counters;
  for (const ImportantPlacement& p : ips_->placements) {
    model.placement_ids.push_back(p.id);
  }
  ForestParams params = config.forest;
  params.seed = seed_;
  params.feature_fraction = 1.0 / 3.0;
  model.forest.Fit(data.WithFeatureSubset(counters), params);
  return model;
}

std::vector<double> ModelPipeline::SampleHpe(const HpeSampler& sampler,
                                             const WorkloadProfile& profile,
                                             int placement_id) const {
  const ImportantPlacement& ip = ips_->ById(placement_id);
  const Placement realized = Realize(ip, sim_->topology(), ips_->vcpus);
  return sampler.Sample(profile, realized);
}

std::string WorkloadFamily(const std::string& name) {
  const size_t dash = name.find('-');
  return dash == std::string::npos ? name : name.substr(0, dash);
}

std::vector<CrossValidationRow> LeaveOneWorkloadOut(
    const ModelPipeline& pipeline, const std::vector<WorkloadProfile>& catalog,
    const std::vector<WorkloadProfile>& synthetic, const HpeSampler& sampler,
    const PerfModelConfig& config) {
  std::vector<CrossValidationRow> rows;
  rows.reserve(catalog.size());

  // The probe-pair search and the SFS counter selection run once, on the
  // synthetic set only. Catalog workloads never influence them, so there is
  // no leakage into the held-out predictions; only the final forests are
  // refit per held-out workload.
  const TrainedPerfModel pair_model = pipeline.TrainPerfAuto(synthetic, config);
  const TrainedHpeModel counter_model =
      pipeline.TrainHpe(synthetic, sampler, pipeline.baseline_id(), 6, config);

  for (const WorkloadProfile& held_out : catalog) {
    const std::string family = WorkloadFamily(held_out.name);
    std::vector<WorkloadProfile> train = synthetic;
    for (const WorkloadProfile& other : catalog) {
      if (WorkloadFamily(other.name) != family) {
        train.push_back(other);
      }
    }

    const TrainedPerfModel perf_model =
        pipeline.TrainPerf(train, pair_model.input_a, pair_model.input_b, config);
    const TrainedHpeModel hpe_model = pipeline.TrainHpeGivenCounters(
        train, sampler, pipeline.baseline_id(), counter_model.selected_counters, config);

    const uint64_t probe_run = 2000;  // measurement noise unseen in training
    CrossValidationRow row;
    row.workload = held_out.name;
    row.actual = pipeline.MeasureVector(held_out, probe_run).relative;

    const double pa = pipeline.MeasureAbsolute(held_out, perf_model.input_a, probe_run);
    const double pb = pipeline.MeasureAbsolute(held_out, perf_model.input_b, probe_run);
    row.predicted_perf = perf_model.Predict(pa, pb);
    row.mae_perf = MeanAbsoluteError(row.actual, row.predicted_perf);

    const std::vector<double> counters =
        pipeline.SampleHpe(sampler, held_out, hpe_model.sample_placement_id);
    row.predicted_hpe = hpe_model.Predict(counters);
    row.mae_hpe = MeanAbsoluteError(row.actual, row.predicted_hpe);

    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace numaplace
