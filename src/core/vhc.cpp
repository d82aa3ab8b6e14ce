#include "core/vhc.hpp"

#include <algorithm>
#include <stdexcept>

namespace vmp::core {

VhcUniverse::VhcUniverse(std::vector<common::VmTypeId> types)
    : types_(std::move(types)) {
  if (types_.empty())
    throw std::invalid_argument("VhcUniverse: need at least one type");
  if (types_.size() > kMaxVhcs)
    throw std::invalid_argument("VhcUniverse: too many VM types");
  for (std::size_t i = 0; i < types_.size(); ++i)
    for (std::size_t j = i + 1; j < types_.size(); ++j)
      if (types_[i] == types_[j])
        throw std::invalid_argument("VhcUniverse: duplicate type");
}

std::size_t VhcUniverse::index_of(common::VmTypeId type) const {
  const auto it = std::find(types_.begin(), types_.end(), type);
  if (it == types_.end())
    throw std::out_of_range("VhcUniverse::index_of: unknown VM type");
  return static_cast<std::size_t>(it - types_.begin());
}

common::VmTypeId VhcUniverse::type_at(std::size_t index) const {
  if (index >= types_.size())
    throw std::out_of_range("VhcUniverse::type_at: bad index");
  return types_[index];
}

bool VhcUniverse::knows(common::VmTypeId type) const noexcept {
  return std::find(types_.begin(), types_.end(), type) != types_.end();
}

VhcUniverse VhcUniverse::from_fleet(std::span<const common::VmConfig> fleet) {
  std::vector<common::VmTypeId> types;
  for (const auto& config : fleet)
    if (std::find(types.begin(), types.end(), config.type_id) == types.end())
      types.push_back(config.type_id);
  return VhcUniverse(std::move(types));
}

VhcPartition::VhcPartition(const VhcUniverse& universe,
                           std::vector<common::VmTypeId> vm_types)
    : num_vhcs_(universe.size()) {
  // The estimator meters up to kMaxHostVms VMs; only the Coalition-typed
  // lookups below (combo_of, aggregate: Eq. 8 per coalition, the reference
  // the estimator's kernels are tested against) stay bounded by kMaxPlayers.
  if (vm_types.size() > kMaxHostVms)
    throw std::invalid_argument("VhcPartition: too many VMs");
  groups_.reserve(vm_types.size());
  for (common::VmTypeId type : vm_types)
    groups_.push_back(universe.index_of(type));
}

std::size_t VhcPartition::vhc_of(Player i) const {
  if (i >= groups_.size())
    throw std::out_of_range("VhcPartition::vhc_of: bad player");
  return groups_[i];
}

VhcComboMask VhcPartition::combo_of(Coalition s) const {
  VhcComboMask combo = 0;
  for (Player i = 0; i < groups_.size(); ++i)
    if (s.contains(i)) combo |= VhcComboMask{1} << groups_[i];
  return combo;
}

std::vector<common::StateVector> VhcPartition::aggregate(
    Coalition s, std::span<const common::StateVector> states) const {
  if (states.size() != groups_.size())
    throw std::invalid_argument("VhcPartition::aggregate: states size mismatch");
  std::vector<common::StateVector> agg(num_vhcs_);
  for (Player i = 0; i < groups_.size(); ++i)
    if (s.contains(i)) agg[groups_[i]] += states[i];
  return agg;
}

}  // namespace vmp::core
