// Virtual Homogeneous VM Coalitions (paper Sec. V-C-1).
//
// Datacenter VMs come in a small catalogue of fixed types; the paper groups
// the members of any coalition S by type into VHCs and replaces the per-VM
// states by per-VHC aggregated state vectors v_j = Σ_{i in VHC j} c_i
// (Eq. 8). This cuts the measurement space from 2^n VM subsets to 2^r type
// combinations (r = number of types, typically <= 5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/state_vector.hpp"
#include "common/vm_config.hpp"
#include "core/coalition.hpp"

namespace vmp::core {

/// Bitmask over VHC (type) indices: bit j set => VHC j has members.
using VhcComboMask = std::uint32_t;

/// The fixed set of VM types a host's estimation pipeline is trained for.
/// Types get dense indices 0..r-1 in the order given at construction.
class VhcUniverse {
 public:
  /// Throws std::invalid_argument on an empty list, duplicates, or more than
  /// kMaxVhcs types.
  explicit VhcUniverse(std::vector<common::VmTypeId> types);

  static constexpr std::size_t kMaxVhcs = 16;

  [[nodiscard]] std::size_t size() const noexcept { return types_.size(); }
  /// Dense VHC index of a type; throws std::out_of_range for unknown types.
  [[nodiscard]] std::size_t index_of(common::VmTypeId type) const;
  [[nodiscard]] common::VmTypeId type_at(std::size_t index) const;
  [[nodiscard]] bool knows(common::VmTypeId type) const noexcept;

  /// Number of VHC combinations (2^r), the paper's offline traversal count.
  [[nodiscard]] std::size_t combo_count() const noexcept {
    return std::size_t{1} << types_.size();
  }

  /// Universe from the distinct types appearing in a fleet, in first-seen
  /// order.
  [[nodiscard]] static VhcUniverse from_fleet(
      std::span<const common::VmConfig> fleet);

 private:
  std::vector<common::VmTypeId> types_;
};

/// Maps the players of one concrete game (a set of co-resident VMs) onto the
/// universe's VHCs.
class VhcPartition {
 public:
  /// vm_types[i] is the catalogue type of player i. Throws std::out_of_range
  /// if a type is not in the universe, std::invalid_argument if there are
  /// more than kMaxHostVms VMs.
  VhcPartition(const VhcUniverse& universe,
               std::vector<common::VmTypeId> vm_types);

  [[nodiscard]] std::size_t player_count() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] std::size_t num_vhcs() const noexcept { return num_vhcs_; }
  /// Dense VHC index of player i.
  [[nodiscard]] std::size_t vhc_of(Player i) const;

  /// Which VHCs have at least one member in coalition s.
  [[nodiscard]] VhcComboMask combo_of(Coalition s) const;

  /// Aggregated per-VHC states for coalition s: entry j is
  /// Σ_{i in s, vhc(i)=j} states[i] (Eq. 8); zero for absent VHCs. states
  /// must have player_count() entries.
  [[nodiscard]] std::vector<common::StateVector> aggregate(
      Coalition s, std::span<const common::StateVector> states) const;

 private:
  std::vector<std::size_t> groups_;  // player -> VHC index.
  std::size_t num_vhcs_;
};

}  // namespace vmp::core
