// Multi-host tenant accounting via the Additivity axiom (paper Sec. IV-C and
// Sec. VIII, "accounting other power consumption").
//
// A tenant's footprint often spans several physical machines: the compute VM
// on one host plus a logical disk served by a storage host (disk array). The
// Shapley value's Additivity axiom makes the accounting compositional: run an
// independent power-disaggregation game on each host, then a tenant's total
// power is simply the sum of its shares across the games. MultiHostAccountant
// implements that composition: per-host VM->tenant bindings plus cross-host
// energy aggregation.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/estimator.hpp"

namespace vmp::core {

/// Opaque tenant identifier.
using TenantId = std::uint32_t;

/// Identifies one host's estimation game.
using HostId = std::uint32_t;

class MultiHostAccountant {
 public:
  /// Declares that VM `vm` on host `host` belongs to `tenant`. Rebinding an
  /// existing (host, vm) pair throws std::invalid_argument (energy already
  /// attributed cannot be re-owned retroactively).
  void bind(HostId host, std::uint32_t vm, TenantId tenant);

  /// True if the (host, vm) pair has an owner.
  [[nodiscard]] bool is_bound(HostId host, std::uint32_t vm) const noexcept;
  /// Owner of a (host, vm) pair; throws std::out_of_range if unbound.
  [[nodiscard]] TenantId owner_of(HostId host, std::uint32_t vm) const;

  /// Accounts one estimation sample from a host's game: vms[i] was allocated
  /// phi[i] watts for dt_s seconds. Unbound VMs accumulate under the
  /// `unattributed` bucket (queryable via unattributed_energy_j). Throws
  /// std::invalid_argument on size mismatch or non-positive dt.
  void add_host_sample(HostId host, std::span<const common::VmSample> vms,
                       std::span<const double> phi, double dt_s);

  /// Tenant's cumulative energy across every host, joules.
  [[nodiscard]] double tenant_energy_j(TenantId tenant) const noexcept;
  /// Tenant's energy restricted to one host (the per-game share whose sum,
  /// by Additivity, is the tenant total).
  [[nodiscard]] double tenant_energy_on_host_j(TenantId tenant,
                                               HostId host) const noexcept;
  /// Energy of VMs that had no tenant binding.
  [[nodiscard]] double unattributed_energy_j() const noexcept {
    return unattributed_j_;
  }
  [[nodiscard]] double total_energy_j() const noexcept;

  /// All tenants with accumulated energy, ascending.
  [[nodiscard]] std::vector<TenantId> tenants() const;

  /// One accumulated (tenant, host) ledger cell, for checkpointing.
  struct EnergyRecord {
    TenantId tenant = 0;
    HostId host = 0;
    double joules = 0.0;
  };

  /// Every ledger cell, ordered by (tenant, host).
  [[nodiscard]] std::vector<EnergyRecord> energy_records() const;

  /// Replaces the accumulated energies wholesale (checkpoint restore; the
  /// bindings are not part of the ledger and are re-declared via bind()).
  /// Throws std::invalid_argument on a duplicate (tenant, host) pair or
  /// negative unattributed energy.
  void restore(std::span<const EnergyRecord> records, double unattributed_j);

 private:
  // (host, vm) -> tenant.
  std::map<std::pair<HostId, std::uint32_t>, TenantId> bindings_;
  // (tenant, host) -> joules.
  std::map<std::pair<TenantId, HostId>, double> energy_j_;
  double unattributed_j_ = 0.0;
};

}  // namespace vmp::core
