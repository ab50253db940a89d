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

#include <istream>
#include <map>
#include <ostream>
#include <string>
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

// Not thread-safe: its owner serialises every call (a scheduler or fleet
// replays on one thread; PlacementController holds its own mutex).
// References and pointers into the prediction cache stay valid across later
// inserts (std::map nodes are stable) until Forget() drops that container.
class ModelRegistry {
 public:
  // Registers a trained model for (machine, vcpus). CHECK-fails on a
  // duplicate key: silently replacing a model would invalidate every cached
  // prediction made with the old one.
  void Register(const std::string& machine, int vcpus, TrainedPerfModel model);

  // Text-format persistence pass-throughs (train offline, ship the file,
  // load it into the scheduler's registry).
  void RegisterFromText(const std::string& machine, int vcpus, std::istream& is);
  void SaveTextTo(const std::string& machine, int vcpus, std::ostream& os) const;

  bool Has(const std::string& machine, int vcpus) const;
  // CHECK-fails when absent; use Has() to probe.
  const TrainedPerfModel& Get(const std::string& machine, int vcpus) const;
  size_t NumModels() const { return models_.size(); }

  // Runs the (machine, vcpus) model on the two probe measurements and caches
  // the result under `container_id`. CHECK-fails if the container already
  // has a cached prediction — probes are paid once, so a duplicate means the
  // caller re-probed a live container or reused its id without Forget()ing
  // it first (the Forget()-first contract). Decision paths that may be
  // retried, like the departure re-placement pass, should use PredictOrGet.
  const CachedPrediction& Predict(int container_id, const std::string& machine, int vcpus,
                                  double perf_a, double perf_b);

  // Like Predict, but when the container already has a cached prediction it
  // is returned as-is and the probe measurements are ignored — safe to call
  // from re-placement passes that cannot know whether probes were paid.
  const CachedPrediction& PredictOrGet(int container_id, const std::string& machine,
                                       int vcpus, double perf_a, double perf_b);

  // The cached prediction for a container, or nullptr when it never probed.
  const CachedPrediction* FindPrediction(int container_id) const;

  // Drops the container's cached prediction (no-op when absent).
  void Forget(int container_id);
  size_t NumCachedPredictions() const { return predictions_.size(); }

 private:
  std::map<std::pair<std::string, int>, TrainedPerfModel> models_;
  std::map<int, CachedPrediction> predictions_;
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_MODEL_REGISTRY_H_
