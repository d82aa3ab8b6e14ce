#include "baselines/power_model.hpp"

#include <stdexcept>

namespace vmp::base {

PowerModelEstimator::PowerModelEstimator(std::vector<VmPowerModel> models)
    : models_(std::move(models)) {
  if (models_.empty())
    throw std::invalid_argument("PowerModelEstimator: need at least one model");
}

std::vector<double> PowerModelEstimator::estimate(
    std::span<const common::VmSample> vms, double adjusted_power_w) {
  if (vms.empty())
    throw std::invalid_argument("PowerModelEstimator: need at least one VM");
  (void)adjusted_power_w;  // deliberately unused: the baseline has no feedback.
  std::vector<double> phi;
  phi.reserve(vms.size());
  for (const common::VmSample& vm : vms)
    phi.push_back(model_for(models_, vm.type).predict(vm.state));
  return phi;
}

}  // namespace vmp::base
