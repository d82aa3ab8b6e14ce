#include "baselines/rapl_share.hpp"

#include <cmath>
#include <stdexcept>

namespace vmp::base {

RaplShareEstimator::RaplShareEstimator(
    const std::vector<common::VmConfig>& catalogue) {
  if (catalogue.empty())
    throw std::invalid_argument("RaplShareEstimator: empty catalogue");
  for (const common::VmConfig& config : catalogue) {
    config.validate();
    vcpus_by_type_[config.type_id] = config.vcpus;
  }
}

std::vector<double> RaplShareEstimator::estimate(
    std::span<const common::VmSample> vms, double adjusted_power_w) {
  if (vms.empty())
    throw std::invalid_argument("RaplShareEstimator: need at least one VM");
  if (!std::isfinite(adjusted_power_w) || adjusted_power_w < 0.0)
    throw std::invalid_argument(
        "RaplShareEstimator: adjusted power must be finite and >= 0");

  std::vector<double> cpu_seconds;
  cpu_seconds.reserve(vms.size());
  double total = 0.0;
  for (const common::VmSample& vm : vms) {
    const auto it = vcpus_by_type_.find(vm.type);
    if (it == vcpus_by_type_.end())
      throw std::out_of_range("RaplShareEstimator: unknown VM type");
    const double weighted = vm.state.cpu() * static_cast<double>(it->second);
    cpu_seconds.push_back(weighted);
    total += weighted;
  }

  std::vector<double> phi(vms.size(), 0.0);
  if (total <= 0.0) {
    const double share = adjusted_power_w / static_cast<double>(vms.size());
    for (double& p : phi) p = share;
    return phi;
  }
  for (std::size_t i = 0; i < vms.size(); ++i)
    phi[i] = adjusted_power_w * cpu_seconds[i] / total;
  return phi;
}

}  // namespace vmp::base
