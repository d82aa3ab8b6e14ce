// Per-VM energy accounting and billing on top of per-sample power shares.
//
// The paper's motivation is fair *charging*: once Φ_i(t) is known each
// second, a tenant's bill is the integral of Φ_i plus an agreed share of the
// idle floor. Sec. VIII leaves the idle attribution open and names the two
// candidate policies, both implemented here.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/estimator.hpp"

namespace vmp::core {

/// How the machine's idle power is split among running VMs (paper Sec. VIII).
enum class IdleAttribution {
  kNone,          ///< bill dynamic power only.
  kEqualShare,    ///< idle / (number of running VMs) each.
  kProportional,  ///< idle split proportionally to Φ_i.
};

[[nodiscard]] const char* to_string(IdleAttribution policy) noexcept;

class EnergyAccountant {
 public:
  explicit EnergyAccountant(IdleAttribution policy = IdleAttribution::kNone);

  /// Accounts one sampling interval: vms[i] consumed phi[i] watts for dt_s
  /// seconds, plus its share of idle_power_w per the policy. Throws
  /// std::invalid_argument on size mismatch or non-positive dt.
  void add_sample(std::span<const common::VmSample> vms,
                  std::span<const double> phi, double idle_power_w,
                  double dt_s);

  /// Cumulative attributed energy of a VM in joules (0 for unseen ids).
  [[nodiscard]] double energy_j(std::uint32_t vm_id) const noexcept;
  [[nodiscard]] double total_energy_j() const noexcept;
  /// Seconds of accounted wall time.
  [[nodiscard]] double accounted_seconds() const noexcept { return seconds_; }

  /// Bill for a VM at the given tariff (USD per kWh).
  [[nodiscard]] double bill_usd(std::uint32_t vm_id,
                                double usd_per_kwh) const noexcept;

  [[nodiscard]] IdleAttribution policy() const noexcept { return policy_; }

  /// Ids of all VMs that have accumulated energy, ascending.
  [[nodiscard]] std::vector<std::uint32_t> vm_ids() const;

  /// Replaces the accumulated state wholesale (checkpoint restore; see
  /// core/serialization). Throws std::invalid_argument on negative seconds
  /// or a duplicate VM id.
  void restore(std::span<const std::pair<std::uint32_t, double>> energies,
               double seconds);

 private:
  IdleAttribution policy_;
  std::unordered_map<std::uint32_t, double> energy_j_;
  double seconds_ = 0.0;
};

}  // namespace vmp::core
