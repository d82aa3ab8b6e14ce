// Resource-usage-based allocation (paper Sec. IV-B, Figs. 7/12): rescale the
// measured adjusted power across VMs in proportion to their modelled
// resource usage.
//
// Efficient by construction (shares sum to the measurement), and — as the
// paper observes for Fig. 12 — with exactly the same *proportions* as the
// power-model baseline. Its unfairness shows in competition scenarios
// (Fig. 7): a VM that contributes no power decline still absorbs part of
// everyone else's decline.
#pragma once

#include <vector>

#include "baselines/trainer.hpp"
#include "core/estimator.hpp"

namespace vmp::base {

class ResourceUsageEstimator final : public core::PowerEstimator {
 public:
  /// Throws std::invalid_argument on an empty model set.
  explicit ResourceUsageEstimator(std::vector<VmPowerModel> models);

  [[nodiscard]] std::vector<double> estimate(
      std::span<const common::VmSample> vms, double adjusted_power_w) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "resource-usage";
  }

 private:
  std::vector<VmPowerModel> models_;
};

}  // namespace vmp::base
