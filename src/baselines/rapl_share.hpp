// RAPL-proportional attribution — the modern practitioner's baseline.
//
// Host agents (scaphandre-style) commonly split the RAPL package energy
// across processes/VMs in proportion to their CPU time. In this codebase's
// terms: Φ_i = P · (vcpus_i · u_i) / Σ_j (vcpus_j · u_j). Efficient by
// construction (like resource-usage allocation) but blind to VM types'
// different watt-per-core profiles and to contention structure: it charges a
// vCPU-second the same no matter whose it is. Included as the Sec. II-A
// related-work comparator the paper positions itself against.
#pragma once

#include <map>

#include "common/vm_config.hpp"
#include "core/estimator.hpp"

namespace vmp::base {

class RaplShareEstimator final : public core::PowerEstimator {
 public:
  /// Needs each type's vCPU count to weight utilizations; built from the
  /// host's catalogue. Throws std::invalid_argument on an empty catalogue.
  explicit RaplShareEstimator(const std::vector<common::VmConfig>& catalogue);

  [[nodiscard]] std::vector<double> estimate(
      std::span<const common::VmSample> vms, double adjusted_power_w) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rapl-proportional";
  }

 private:
  std::map<common::VmTypeId, unsigned> vcpus_by_type_;
};

}  // namespace vmp::base
