// Per-VM power capping on top of Shapley power shares.
//
// The paper's introduction motivates VM power metering with per-VM power
// caps; this module supplies the control half: an AIMD (additive-increase /
// multiplicative-decrease) controller per VM that converts the estimator's
// Φ_i stream into a CPU throttle factor the hypervisor applies. AIMD is the
// natural choice because cap violations must be corrected fast (power
// over-draw trips breakers) while recovery can be gentle.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/estimator.hpp"

namespace vmp::core {

struct CapPolicy {
  double cap_w = 0.0;            ///< the VM's power budget.
  double decrease_factor = 0.90; ///< throttle *= this on violation, in (0,1).
  double increase_step = 0.01;   ///< throttle += this when comfortably under.
  double comfort_margin = 0.05;  ///< "comfortably under" = below (1-margin)*cap.
  double min_throttle = 0.10;    ///< never starve a VM completely.

  /// Throws std::invalid_argument on out-of-domain parameters.
  void validate() const;
};

/// One controller per capped VM; uncapped VMs keep throttle 1.0.
class PowerCapController {
 public:
  /// Registers a cap for a VM. Throws on invalid policy or duplicate VM.
  void set_cap(std::uint32_t vm_id, CapPolicy policy);

  [[nodiscard]] bool has_cap(std::uint32_t vm_id) const noexcept;
  /// Current throttle factor in [min_throttle, 1]; 1.0 for uncapped VMs.
  [[nodiscard]] double throttle(std::uint32_t vm_id) const noexcept;

  /// Feeds one estimation sample; updates each capped VM's throttle. vms and
  /// phi must be parallel (throws std::invalid_argument otherwise).
  void observe(std::span<const common::VmSample> vms,
               std::span<const double> phi);

  /// Count of cap violations observed so far for a VM.
  [[nodiscard]] std::size_t violations(std::uint32_t vm_id) const noexcept;

 private:
  struct State {
    CapPolicy policy;
    double throttle = 1.0;
    std::size_t violations = 0;
  };
  std::unordered_map<std::uint32_t, State> states_;
};

}  // namespace vmp::core
