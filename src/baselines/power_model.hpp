// Power-model-based per-VM estimation (the SFU baseline of the paper's
// Secs. II-B / III-C): Φ_i = model_{type(i)}(c_i), independent of every other
// VM and of the measured machine power.
//
// This estimator is *fair* (identical VMs in identical states get identical
// shares) but violates Efficiency: under co-location the summed estimates
// exceed the measured power by up to the SMT contention factor (the paper's
// 25.22 % / 46.15 % errors and Fig. 11's 56.43 % aggregate gap).
#pragma once

#include <vector>

#include "baselines/trainer.hpp"
#include "core/estimator.hpp"

namespace vmp::base {

class PowerModelEstimator final : public core::PowerEstimator {
 public:
  /// Throws std::invalid_argument on an empty model set.
  explicit PowerModelEstimator(std::vector<VmPowerModel> models);

  /// Ignores adjusted_power_w by design (pure model readout).
  [[nodiscard]] std::vector<double> estimate(
      std::span<const common::VmSample> vms, double adjusted_power_w) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "power-model";
  }

  [[nodiscard]] const std::vector<VmPowerModel>& models() const noexcept {
    return models_;
  }

 private:
  std::vector<VmPowerModel> models_;
};

}  // namespace vmp::base
