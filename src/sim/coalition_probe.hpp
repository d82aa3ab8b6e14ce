// The coalition-worth oracle.
//
// The paper defines v(S, C) as the idle-adjusted power of the physical
// machine when exactly the VMs of coalition S run with states C. On a real
// testbed obtaining every v(S, C) means physically running 2^n coalition
// configurations — the very cost the VHC approximation avoids. In the
// simulator we *can* evaluate any coalition directly: CoalitionProbe computes
// the deterministic expected power (machine_power at the nominal pack
// fraction, without scheduling jitter or meter noise) of an arbitrary subset
// of a fixed VM fleet at arbitrary states. It runs the hypervisor's own
// power path, so with affinity_jitter = 0 the coalition of a host's running
// VMs is the hypervisor's power bit for bit. It provides:
//
//   * exact-Shapley ground truth (what the paper compares its
//     non-deterministic Shapley against);
//   * synthetic "offline measurements" for training (callers add meter noise).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/state_vector.hpp"
#include "common/vm_config.hpp"
#include "sim/machine_spec.hpp"
#include "sim/power_model.hpp"

namespace vmp::sim {

/// Bitmask over the probe's VM fleet: bit i set => VM i is in the coalition.
using CoalitionMask = std::uint32_t;

class CoalitionProbe {
 public:
  /// A fleet of n VMs (n <= 30) with per-VM workload power intensities.
  /// intensities must have the same length as configs (or be empty for all
  /// 1.0). Throws std::invalid_argument on size mismatch, empty fleet, or a
  /// fleet whose total vCPUs exceed the machine's logical CPUs.
  CoalitionProbe(MachineSpec spec, std::vector<common::VmConfig> configs,
                 std::vector<double> intensities = {});

  [[nodiscard]] std::size_t fleet_size() const noexcept {
    return configs_.size();
  }
  [[nodiscard]] const MachineSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::vector<common::VmConfig>& configs() const noexcept {
    return configs_;
  }

  /// v(S, C): idle-adjusted expected machine power with exactly the VMs in
  /// `mask` running at `states` (one state per fleet VM; states of VMs
  /// outside the mask are ignored). Throws std::invalid_argument if states
  /// size differs from the fleet or mask addresses VMs beyond the fleet.
  [[nodiscard]] double worth(CoalitionMask mask,
                             std::span<const common::StateVector> states) const;

  /// Full power breakdown (including idle) for a coalition; worth() is
  /// breakdown(mask, states).adjusted().
  [[nodiscard]] PowerBreakdown breakdown(
      CoalitionMask mask, std::span<const common::StateVector> states) const;

 private:
  MachineSpec spec_;
  std::vector<common::VmConfig> configs_;
  std::vector<double> intensities_;
};

}  // namespace vmp::sim
