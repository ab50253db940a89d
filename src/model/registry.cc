#include "src/model/registry.h"

#include "src/util/check.h"

namespace numaplace {

void ModelRegistry::Register(const std::string& machine, int vcpus,
                             TrainedPerfModel model) {
  NP_CHECK(vcpus > 0);
  const auto [it, inserted] = models_.try_emplace({machine, vcpus}, std::move(model));
  (void)it;
  NP_CHECK_MSG(inserted, "a model for (" << machine << ", " << vcpus
                                         << " vCPUs) is already registered");
}

bool ModelRegistry::Has(const std::string& machine, int vcpus) const {
  return models_.contains(std::pair<std::string_view, int>(machine, vcpus));
}

const TrainedPerfModel& ModelRegistry::Get(const std::string& machine, int vcpus) const {
  const auto it = models_.find(std::pair<std::string_view, int>(machine, vcpus));
  NP_CHECK_MSG(it != models_.end(),
               "no model registered for (" << machine << ", " << vcpus << " vCPUs)");
  return it->second;
}

const CachedPrediction& ModelRegistry::Predict(int container_id,
                                               const std::string& machine, int vcpus,
                                               double perf_a, double perf_b) {
  NP_CHECK(container_id >= 0);
  const TrainedPerfModel& model = Get(machine, vcpus);
  Entry entry;
  entry.prediction.perf_a = perf_a;
  entry.prediction.perf_b = perf_b;
  entry.prediction.input_a = model.input_a;
  entry.prediction.input_b = model.input_b;
  entry.prediction.predicted_relative = model.Predict(perf_a, perf_b);
  const auto [it, inserted] = predictions_.emplace(container_id, std::move(entry));
  NP_CHECK_MSG(inserted, "container " << container_id
                                      << " already has a cached prediction; Forget() "
                                         "it first");
  return it->second.prediction;
}

const CachedPrediction* ModelRegistry::FindPrediction(int container_id) const {
  const auto it = predictions_.find(container_id);
  return it == predictions_.end() ? nullptr : &it->second.prediction;
}

ModelRegistry::Entry* ModelRegistry::FindEntry(int container_id) {
  const auto it = predictions_.find(container_id);
  return it == predictions_.end() ? nullptr : &it->second;
}

void ModelRegistry::Forget(int container_id) { predictions_.erase(container_id); }

}  // namespace numaplace
