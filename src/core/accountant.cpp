#include "core/accountant.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/units.hpp"

namespace vmp::core {

const char* to_string(IdleAttribution policy) noexcept {
  switch (policy) {
    case IdleAttribution::kNone: return "none";
    case IdleAttribution::kEqualShare: return "equal-share";
    case IdleAttribution::kProportional: return "proportional";
  }
  return "?";
}

EnergyAccountant::EnergyAccountant(IdleAttribution policy) : policy_(policy) {}

void EnergyAccountant::add_sample(std::span<const common::VmSample> vms,
                                  std::span<const double> phi,
                                  double idle_power_w, double dt_s) {
  if (vms.size() != phi.size())
    throw std::invalid_argument("EnergyAccountant: vms/phi size mismatch");
  if (!(dt_s > 0.0))
    throw std::invalid_argument("EnergyAccountant: dt must be > 0");
  if (idle_power_w < 0.0)
    throw std::invalid_argument("EnergyAccountant: idle power must be >= 0");

  double phi_total = 0.0;
  for (double p : phi) phi_total += p;

  for (std::size_t i = 0; i < vms.size(); ++i) {
    double watts = phi[i];
    switch (policy_) {
      case IdleAttribution::kNone:
        break;
      case IdleAttribution::kEqualShare:
        watts += idle_power_w / static_cast<double>(vms.size());
        break;
      case IdleAttribution::kProportional:
        // Degenerates to equal share when no VM draws dynamic power.
        watts += phi_total > 0.0
                     ? idle_power_w * phi[i] / phi_total
                     : idle_power_w / static_cast<double>(vms.size());
        break;
    }
    energy_j_[vms[i].vm_id] += watts * dt_s;
  }
  seconds_ += dt_s;
}

double EnergyAccountant::energy_j(std::uint32_t vm_id) const noexcept {
  const auto it = energy_j_.find(vm_id);
  return it != energy_j_.end() ? it->second : 0.0;
}

double EnergyAccountant::total_energy_j() const noexcept {
  double total = 0.0;
  for (const auto& [_, joules] : energy_j_) total += joules;
  return total;
}

double EnergyAccountant::bill_usd(std::uint32_t vm_id,
                                  double usd_per_kwh) const noexcept {
  return common::joules_to_kwh(energy_j(vm_id)) * usd_per_kwh;
}

void EnergyAccountant::restore(
    std::span<const std::pair<std::uint32_t, double>> energies,
    double seconds) {
  if (seconds < 0.0)
    throw std::invalid_argument("EnergyAccountant::restore: seconds < 0");
  std::unordered_map<std::uint32_t, double> restored;
  restored.reserve(energies.size());
  for (const auto& [vm_id, joules] : energies)
    if (!restored.emplace(vm_id, joules).second)
      throw std::invalid_argument(
          "EnergyAccountant::restore: duplicate VM id");
  energy_j_ = std::move(restored);
  seconds_ = seconds;
}

std::vector<std::uint32_t> EnergyAccountant::vm_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(energy_j_.size());
  for (const auto& [id, _] : energy_j_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace vmp::core
