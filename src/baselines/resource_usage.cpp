#include "baselines/resource_usage.hpp"

#include <cmath>
#include <stdexcept>

namespace vmp::base {

ResourceUsageEstimator::ResourceUsageEstimator(std::vector<VmPowerModel> models)
    : models_(std::move(models)) {
  if (models_.empty())
    throw std::invalid_argument("ResourceUsageEstimator: need at least one model");
}

std::vector<double> ResourceUsageEstimator::estimate(
    std::span<const core::VmSample> vms, double adjusted_power_w) {
  if (vms.empty())
    throw std::invalid_argument("ResourceUsageEstimator: need at least one VM");
  if (!std::isfinite(adjusted_power_w) || adjusted_power_w < 0.0)
    throw std::invalid_argument(
        "ResourceUsageEstimator: adjusted power must be finite and >= 0");

  std::vector<double> usage;
  usage.reserve(vms.size());
  double total = 0.0;
  for (const core::VmSample& vm : vms) {
    const double u = model_for(models_, vm.type).predict(vm.state);
    usage.push_back(u);
    total += u;
  }

  std::vector<double> phi(vms.size(), 0.0);
  if (total <= 0.0) {
    // All VMs idle: split the (normally ~zero) residual equally.
    const double share = adjusted_power_w / static_cast<double>(vms.size());
    for (double& p : phi) p = share;
    return phi;
  }
  for (std::size_t i = 0; i < vms.size(); ++i)
    phi[i] = adjusted_power_w * usage[i] / total;
  return phi;
}

}  // namespace vmp::base
