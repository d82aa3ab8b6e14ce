#include "core/multi_host.hpp"

#include <stdexcept>

namespace vmp::core {

void MultiHostAccountant::bind(HostId host, std::uint32_t vm, TenantId tenant) {
  const auto key = std::make_pair(host, vm);
  const auto [it, inserted] = bindings_.emplace(key, tenant);
  if (!inserted && it->second != tenant)
    throw std::invalid_argument(
        "MultiHostAccountant::bind: (host, vm) already bound to another "
        "tenant");
}

bool MultiHostAccountant::is_bound(HostId host, std::uint32_t vm) const noexcept {
  return bindings_.contains({host, vm});
}

TenantId MultiHostAccountant::owner_of(HostId host, std::uint32_t vm) const {
  const auto it = bindings_.find({host, vm});
  if (it == bindings_.end())
    throw std::out_of_range("MultiHostAccountant::owner_of: unbound VM");
  return it->second;
}

void MultiHostAccountant::add_host_sample(HostId host,
                                          std::span<const common::VmSample> vms,
                                          std::span<const double> phi,
                                          double dt_s) {
  if (vms.size() != phi.size())
    throw std::invalid_argument(
        "MultiHostAccountant::add_host_sample: vms/phi size mismatch");
  if (!(dt_s > 0.0))
    throw std::invalid_argument(
        "MultiHostAccountant::add_host_sample: dt must be > 0");

  for (std::size_t i = 0; i < vms.size(); ++i) {
    const double joules = phi[i] * dt_s;
    const auto binding = bindings_.find({host, vms[i].vm_id});
    if (binding == bindings_.end()) {
      unattributed_j_ += joules;
    } else {
      energy_j_[{binding->second, host}] += joules;
    }
  }
}

double MultiHostAccountant::tenant_energy_j(TenantId tenant) const noexcept {
  double total = 0.0;
  for (const auto& [key, joules] : energy_j_)
    if (key.first == tenant) total += joules;
  return total;
}

double MultiHostAccountant::tenant_energy_on_host_j(TenantId tenant,
                                                    HostId host) const noexcept {
  const auto it = energy_j_.find({tenant, host});
  return it != energy_j_.end() ? it->second : 0.0;
}

double MultiHostAccountant::total_energy_j() const noexcept {
  double total = unattributed_j_;
  for (const auto& [_, joules] : energy_j_) total += joules;
  return total;
}

std::vector<TenantId> MultiHostAccountant::tenants() const {
  std::vector<TenantId> out;
  for (const auto& [key, _] : energy_j_)
    if (out.empty() || out.back() != key.first) out.push_back(key.first);
  return out;
}

std::vector<MultiHostAccountant::EnergyRecord>
MultiHostAccountant::energy_records() const {
  std::vector<EnergyRecord> records;
  records.reserve(energy_j_.size());
  for (const auto& [key, joules] : energy_j_)
    records.push_back({key.first, key.second, joules});
  return records;
}

void MultiHostAccountant::restore(std::span<const EnergyRecord> records,
                                  double unattributed_j) {
  if (unattributed_j < 0.0)
    throw std::invalid_argument(
        "MultiHostAccountant::restore: unattributed energy < 0");
  std::map<std::pair<TenantId, HostId>, double> restored;
  for (const EnergyRecord& record : records)
    if (!restored.emplace(std::make_pair(record.tenant, record.host),
                          record.joules)
             .second)
      throw std::invalid_argument(
          "MultiHostAccountant::restore: duplicate (tenant, host) record");
  energy_j_ = std::move(restored);
  unattributed_j_ = unattributed_j;
}

}  // namespace vmp::core
