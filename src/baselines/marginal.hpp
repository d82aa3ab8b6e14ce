// Marginal-contribution allocation (Table III, row 1).
//
// Given an arrival order, each VM is charged the power increase it caused
// when it joined the machine: Φ_i = v(prefix ∪ {i}, C) − v(prefix, C). This
// is efficient (the telescoping sum equals v(N, C)) but order-dependent and
// therefore unfair: of two identical VMs, the late joiner pays only the
// contended 7 W while the early one pays 13 W. Shapley value is precisely the
// average of this rule over all n! orders.
#pragma once

#include <vector>

#include "core/estimator.hpp"
#include "sim/coalition_probe.hpp"

namespace vmp::base {

class MarginalContributionEstimator final : public core::PowerEstimator {
 public:
  /// `order` is the arrival order as player indices (a permutation of
  /// 0..fleet-1); empty means arrival in index order. The probe supplies the
  /// coalition worths an operator would have measured at start/stop times.
  /// Throws std::invalid_argument if order is not a permutation.
  explicit MarginalContributionEstimator(const sim::CoalitionProbe& probe,
                                         std::vector<std::size_t> order = {});

  [[nodiscard]] std::vector<double> estimate(
      std::span<const common::VmSample> vms, double adjusted_power_w) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "marginal-contribution";
  }

 private:
  const sim::CoalitionProbe& probe_;
  std::vector<std::size_t> order_;
};

}  // namespace vmp::base
