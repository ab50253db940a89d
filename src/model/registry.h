// Model registry for the multi-tenant scheduler (src/scheduler).
//
// The paper trains one model per (machine, vCPU count) — §3's fixed-instance
// -size assumption. A scheduler admitting a stream of containers of several
// sizes therefore needs a registry to look the right model up, and — because
// probe runs cost real seconds of container time — a per-container cache of
// the probe measurements and the predicted performance vector, so that
// re-placing a container after a departure reuses the probes it already paid
// for instead of running them again.
#ifndef NUMAPLACE_SRC_MODEL_REGISTRY_H_
#define NUMAPLACE_SRC_MODEL_REGISTRY_H_

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/model/pipeline.h"

namespace numaplace {

// Probe measurements and the resulting prediction for one container.
struct CachedPrediction {
  double perf_a = 0.0;  // raw probe measurement in the model's input A
  double perf_b = 0.0;
  int input_a = 0;      // probe placement ids the measurements belong to
  int input_b = 0;
  std::vector<double> predicted_relative;  // model output, model's id order
};

// A model-driven scheduler's ranked view of one cached prediction
// (src/scheduler/scheduler.h): the absolute prediction per placement, the
// decision goal, and the order its policy ranks the placements in for
// admission. A model policy ranks from the prediction alone, never from
// occupancy (SchedulingPolicy::RankForAdmission), so every machine of a
// topology group derives the same view from the group's prediction: the
// first machine that needs it fills it here and the others read it. It
// lives and dies with the prediction — Predict starts it empty and Forget
// drops both.
struct RankedView {
  // What the view was built from besides the prediction. A scheduler whose
  // inputs differ rebuilds the view in place. model == nullptr: not built.
  const TrainedPerfModel* model = nullptr;
  int baseline_id = 0;
  double goal_fraction = 0.0;
  double fallback_slack = 0.0;
  std::vector<int> node_counts;  // NUMA nodes of each model output's placement

  // The view, aligned with model->placement_ids.
  std::vector<int> placement_ids;
  std::vector<double> predicted_abs;
  double decision_goal = 0.0;
  std::vector<size_t> order;  // admission preference, indices into placement_ids

  bool operator==(const RankedView&) const = default;
};

// Not thread-safe: its owner serialises every call (a scheduler or fleet
// replays on one thread; PlacementController holds its own mutex).
// References and pointers into the prediction cache stay valid across later
// inserts (the cache is node-based) until Forget() drops that container.
class ModelRegistry {
 public:
  // Registers a trained model for (machine, vcpus). CHECK-fails on a
  // duplicate key: silently replacing a model would invalidate every cached
  // prediction made with the old one.
  void Register(const std::string& machine, int vcpus, TrainedPerfModel model);

  bool Has(const std::string& machine, int vcpus) const;
  // CHECK-fails when absent; use Has() to probe.
  const TrainedPerfModel& Get(const std::string& machine, int vcpus) const;
  size_t NumModels() const { return models_.size(); }

  // Runs the (machine, vcpus) model on the two probe measurements and caches
  // the result under `container_id`. CHECK-fails if the container already
  // has a cached prediction — probes are paid once, so a duplicate means the
  // caller re-probed a live container or reused its id without Forget()ing
  // it first (the Forget()-first contract).
  const CachedPrediction& Predict(int container_id, const std::string& machine, int vcpus,
                                  double perf_a, double perf_b);

  // The cached prediction for a container, or nullptr when it never probed.
  const CachedPrediction* FindPrediction(int container_id) const;

  // A cached prediction with the ranked view memoized alongside it; the
  // view is the scheduler's to fill (see RankedView).
  struct Entry {
    CachedPrediction prediction;
    RankedView view;
  };
  // The container's entry, or nullptr when it never probed.
  Entry* FindEntry(int container_id);

  // Drops the container's cached prediction and its view (no-op when
  // absent).
  void Forget(int container_id);
  size_t NumCachedPredictions() const { return predictions_.size(); }

 private:
  // Orders (machine, vcpus) keys. Transparent, so Get and Has look a model
  // up by a (std::string_view, int) key without copying the machine name.
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const std::string_view name_a = a.first;
      const std::string_view name_b = b.first;
      return name_a != name_b ? name_a < name_b : a.second < b.second;
    }
  };
  std::map<std::pair<std::string, int>, TrainedPerfModel, KeyLess> models_;
  // Hashed: every admission preview looks its container up here.
  std::unordered_map<int, Entry> predictions_;
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_MODEL_REGISTRY_H_
