// The §5 model-building pipeline.
//
// Two model variants, as evaluated in the paper:
//  * Performance-observation model (the paper's contribution): the container
//    is measured in two important placements; the two normalized
//    measurements (plus their ratio, for convenience of the trees) are the
//    model inputs, and the output is the vector of relative performance
//    across all important placements. The training procedure automatically
//    searches for the input pair with the best cross-validated accuracy.
//  * HPE model (the baseline the paper argues against): hardware counters
//    sampled in a single placement are the inputs, reduced by Sequential
//    Forward Selection from a plausible candidate set.
//
// A separate model is trained per machine and per vCPU count, matching the
// paper's fixed-instance-size assumption (§3).
#ifndef NUMAPLACE_SRC_MODEL_PIPELINE_H_
#define NUMAPLACE_SRC_MODEL_PIPELINE_H_

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/important.h"
#include "src/ml/dataset.h"
#include "src/ml/forest.h"
#include "src/sim/hpe.h"
#include "src/sim/perf_model.h"
#include "src/workloads/profile.h"

namespace numaplace {

// Ground-truth measurement of one workload across all important placements,
// relative to the baseline placement.
struct PerformanceVector {
  std::string workload;
  std::vector<double> relative;  // indexed by placement order in the set
};

struct PerfModelConfig {
  int runs_per_workload = 3;   // noisy measurement repetitions per placement
  int cv_trees = 40;           // smaller forest while scoring input pairs
  int cv_folds = 3;
  ForestParams forest;
  PerfModelConfig() {
    forest.num_trees = 120;
    forest.tree.max_depth = 12;
    forest.tree.min_samples_leaf = 2;
    forest.feature_fraction = 1.0;  // ratio models have few features
  }
};

// A trained performance-observation model.
//
// Features are the two probe measurements themselves, normalized to a
// per-hardware-thread rate (the paper's canonical metric is IPC, which is
// comparable across workloads; any consistent per-container metric works as
// long as the same normalization is used at training and prediction time).
// Feeding both measurements rather than just their ratio lets the forest
// separate categories that share a ratio but run at different absolute
// memory-boundedness.
struct TrainedPerfModel {
  int input_a = 0;             // placement ids of the two probe placements
  int input_b = 0;
  int baseline_id = 0;         // the id the output vector is relative to
  double ipc_scale = 1.0;      // measurement -> feature normalization
  std::vector<int> placement_ids;  // output order
  RandomForest forest;

  // Predicts the relative performance vector from the two probe
  // measurements (same unit as used at training time).
  std::vector<double> Predict(double perf_in_a, double perf_in_b) const;

  // Plain-text persistence: train offline, ship the model file, load it in
  // the scheduler. The format is versioned; Load throws std::logic_error on
  // version or structure mismatches.
  void SaveText(std::ostream& os) const;
  static TrainedPerfModel LoadText(std::istream& is);
};

// A trained HPE model.
struct TrainedHpeModel {
  int sample_placement_id = 0;     // counters are sampled here
  int baseline_id = 0;
  std::vector<size_t> selected_counters;  // indices into the sampler's names
  std::vector<int> placement_ids;
  RandomForest forest;

  std::vector<double> Predict(const std::vector<double>& counters) const;
};

class ModelPipeline {
 public:
  // `ips` and `sim` must outlive the pipeline. The baseline id follows the
  // paper: placement #1 on the AMD system, #2 on the Intel system.
  ModelPipeline(const ImportantPlacementSet& ips, const PerformanceModel& sim,
                int baseline_id, uint64_t seed);

  // Measures the workload in every important placement (run-indexed noise)
  // and returns throughput relative to the baseline placement.
  PerformanceVector MeasureVector(const WorkloadProfile& profile, uint64_t run) const;

  // Absolute throughput in one important placement.
  double MeasureAbsolute(const WorkloadProfile& profile, int placement_id,
                         uint64_t run) const;

  // Builds the training set for the (a, b) input pair: one row per workload
  // per run; features are the two normalized measurements and their ratio.
  Dataset BuildPerfDataset(const std::vector<WorkloadProfile>& workloads, int input_a,
                           int input_b, const PerfModelConfig& config) const;

  // Trains with a fixed input pair.
  TrainedPerfModel TrainPerf(const std::vector<WorkloadProfile>& workloads, int input_a,
                             int input_b, const PerfModelConfig& config) const;

  // The paper's automatic variant: tries every unordered pair of important
  // placements containing the baseline or not, scores each by k-fold
  // cross-validated MAE, and trains the final model on the best pair. Every
  // measurement is taken up front on the calling thread; the pairs are then
  // scored in parallel, and a pair stops after any fold whose partial error
  // already rules it out. The chosen pair is the first strict minimum of
  // CrossValidatedMae in (i, j) order under any thread count or schedule.
  // Throws std::logic_error when the set has fewer than two placements.
  TrainedPerfModel TrainPerfAuto(const std::vector<WorkloadProfile>& workloads,
                                 const PerfModelConfig& config) const;

  // HPE variant: counters sampled in `sample_placement_id` (the baseline by
  // default), reduced with SFS to at most `max_features` counters.
  TrainedHpeModel TrainHpe(const std::vector<WorkloadProfile>& workloads,
                           const HpeSampler& sampler, int sample_placement_id,
                           size_t max_features, const PerfModelConfig& config) const;

  // HPE variant with a counter subset already selected (skips the SFS pass;
  // used by the leave-one-out harness, which selects counters once on the
  // synthetic set).
  TrainedHpeModel TrainHpeGivenCounters(const std::vector<WorkloadProfile>& workloads,
                                        const HpeSampler& sampler, int sample_placement_id,
                                        const std::vector<size_t>& counters,
                                        const PerfModelConfig& config) const;

  // Samples HPE counters for a workload realized in the given important
  // placement (the HPE model's runtime input path).
  std::vector<double> SampleHpe(const HpeSampler& sampler, const WorkloadProfile& profile,
                                int placement_id) const;

  // k-fold cross-validated MAE of a candidate input pair: the score
  // TrainPerfAuto computes for each pair, without its early stop (exposed
  // for the ablation benchmark).
  double CrossValidatedMae(const std::vector<WorkloadProfile>& workloads, int input_a,
                           int input_b, const PerfModelConfig& config) const;

  const ImportantPlacementSet& important() const { return *ips_; }
  int baseline_id() const { return baseline_id_; }

 private:
  // Normalization from simulator throughput to a per-hardware-thread rate
  // (the "IPC" the paper uses as its canonical cross-workload metric).
  double IpcScale() const;

  // Dataset building re-measures the same (workload, placement, run)
  // triples; measurements are deterministic per triple, so they are
  // memoized. Keyed by workload *name*: dataset building CHECK-fails on
  // duplicate names, which would otherwise alias cache entries. Not
  // thread-safe: the pair search reads it only on the calling thread,
  // before its workers start.
  mutable std::map<std::tuple<std::string, int, uint64_t>, double> measurement_cache_;

  const ImportantPlacementSet* ips_;
  const PerformanceModel* sim_;
  int baseline_id_;
  uint64_t seed_;
};

// Leave-one-workload-family-out evaluation for Fig. 4: for each catalog
// workload, trains on the synthetic set plus every catalog workload of a
// *different* family (spark-cc and spark-pr-lj are one family, the postgres
// pair another) and predicts the held-out one.
struct CrossValidationRow {
  std::string workload;
  std::vector<double> actual;        // relative performance vector
  std::vector<double> predicted_perf;  // performance-observation model
  std::vector<double> predicted_hpe;   // HPE model
  double mae_perf = 0.0;             // mean |pred-actual| over placements
  double mae_hpe = 0.0;
};

std::vector<CrossValidationRow> LeaveOneWorkloadOut(
    const ModelPipeline& pipeline, const std::vector<WorkloadProfile>& catalog,
    const std::vector<WorkloadProfile>& synthetic, const HpeSampler& sampler,
    const PerfModelConfig& config);

// Family key for the leave-one-out exclusion ("spark-cc" -> "spark").
std::string WorkloadFamily(const std::string& name);

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_MODEL_PIPELINE_H_
