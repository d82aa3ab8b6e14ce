#include "serve/snapshot.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace vmp::serve {

namespace {

struct VmKeyLess {
  bool operator()(const VmRecord& record,
                  std::pair<std::uint32_t, std::uint32_t> key) const noexcept {
    return std::make_pair(record.host, record.vm) < key;
  }
};

}  // namespace

ledger::TickRecord to_record(const Snapshot& snapshot) {
  ledger::TickRecord record;
  record.epoch = snapshot.epoch;
  record.tick = snapshot.tick;
  record.time_s = snapshot.time_s;
  record.period_s = snapshot.period_s;
  record.vms.reserve(snapshot.vms.size());
  for (const VmRecord& vm : snapshot.vms)
    record.vms.push_back({vm.host, vm.vm, vm.tenant, vm.power_w, vm.energy_j});
  record.tenants.reserve(snapshot.tenants.size());
  for (const TenantRecord& tenant : snapshot.tenants)
    record.tenants.push_back(
        {tenant.tenant, tenant.power_w, tenant.energy_j});
  record.total_power_w = snapshot.total_power_w;
  record.total_energy_j = snapshot.total_energy_j;
  record.unattributed_j = snapshot.unattributed_j;
  return record;
}

Snapshot to_snapshot(const ledger::TickRecord& record) {
  Snapshot snapshot;
  snapshot.epoch = record.epoch;
  snapshot.tick = record.tick;
  snapshot.time_s = record.time_s;
  snapshot.period_s = record.period_s;
  snapshot.vms.reserve(record.vms.size());
  for (const ledger::VmEntry& vm : record.vms)
    snapshot.vms.push_back({vm.host, vm.vm, vm.tenant, vm.power_w,
                            vm.energy_j});
  snapshot.tenants.reserve(record.tenants.size());
  for (const ledger::TenantEntry& tenant : record.tenants)
    snapshot.tenants.push_back(
        {tenant.tenant, tenant.power_w, tenant.energy_j});
  snapshot.total_power_w = record.total_power_w;
  snapshot.total_energy_j = record.total_energy_j;
  snapshot.unattributed_j = record.unattributed_j;
  return snapshot;
}

const VmRecord* Snapshot::find_vm(std::uint32_t host,
                                  std::uint32_t vm) const noexcept {
  const auto it = std::lower_bound(vms.begin(), vms.end(),
                                   std::make_pair(host, vm), VmKeyLess{});
  if (it == vms.end() || it->host != host || it->vm != vm) return nullptr;
  return &*it;
}

const TenantRecord* Snapshot::find_tenant(
    core::TenantId tenant) const noexcept {
  const auto it = std::lower_bound(
      tenants.begin(), tenants.end(), tenant,
      [](const TenantRecord& record, core::TenantId id) noexcept {
        return record.tenant < id;
      });
  if (it == tenants.end() || it->tenant != tenant) return nullptr;
  return &*it;
}

SnapshotStore::SnapshotStore(std::size_t retention) : retention_(retention) {
  if (retention == 0)
    throw std::invalid_argument("SnapshotStore: retention must be >= 1");
}

void SnapshotStore::publish(Snapshot snapshot) {
  snapshot.epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t epoch = snapshot.epoch;
  auto published = std::make_shared<const Snapshot>(std::move(snapshot));
  std::size_t occupancy = 0;
  std::uint64_t evictions = 0;
  {
    std::lock_guard lock(ring_mutex_);
    ring_.push_back(published);
    if (ring_.size() > retention_) {
      ring_.pop_front();
      ++evictions_;
    }
    occupancy = ring_.size();
    evictions = evictions_;
    latest_ = published;
  }
  if (ledger_ != nullptr) ledger_->append(to_record(*published));
  if (monitor_ != nullptr) {
    monitor_->observe_ring(epoch, occupancy, retention_, evictions);
    if (ledger_ != nullptr)
      monitor_->observe_ledger(epoch, ledger_->stats().tail_epoch);
  }
}

std::size_t SnapshotStore::restore_from_ledger(const ledger::Ledger& log) {
  const ledger::Stats stats = log.stats();
  if (stats.records == 0) return 0;
  std::uint64_t from = stats.oldest_epoch;
  if (stats.tail_epoch - stats.oldest_epoch + 1 > retention_)
    from = stats.tail_epoch - retention_ + 1;
  const std::vector<ledger::TickRecord> records =
      log.range(from, stats.tail_epoch);
  std::lock_guard lock(ring_mutex_);
  ring_.clear();
  for (const ledger::TickRecord& record : records) {
    auto snapshot = std::make_shared<const Snapshot>(to_snapshot(record));
    latest_ = snapshot;
    ring_.push_back(std::move(snapshot));
  }
  next_epoch_.store(stats.tail_epoch, std::memory_order_relaxed);
  return records.size();
}

std::shared_ptr<const Snapshot> SnapshotStore::latest() const {
  std::lock_guard lock(ring_mutex_);
  return latest_;
}

std::shared_ptr<const Snapshot> SnapshotStore::oldest() const {
  std::lock_guard lock(ring_mutex_);
  return ring_.empty() ? nullptr : ring_.front();
}

std::shared_ptr<const Snapshot> SnapshotStore::at_or_before(double t_s) const {
  std::lock_guard lock(ring_mutex_);
  // Ring is time-ascending: last entry with time_s <= t_s.
  const auto it = std::upper_bound(
      ring_.begin(), ring_.end(), t_s,
      [](double t, const std::shared_ptr<const Snapshot>& snapshot) {
        return t < snapshot->time_s;
      });
  if (it == ring_.begin()) return nullptr;
  return *std::prev(it);
}

void SnapshotStore::publish_tick(
    const fleet::FleetEngine& engine, std::uint64_t tick,
    const std::vector<fleet::HostTickResult>& results) {
  VMP_TRACE_SPAN("serve.snapshot_publish", "serve");
  const double period_s = engine.options().period_s;
  Snapshot snapshot;
  snapshot.tick = tick + 1;  // ledgers now include this tick's interval.
  snapshot.time_s = static_cast<double>(tick + 1) * period_s;
  snapshot.period_s = period_s;

  // Start from the previous snapshot's VM universe so a VM with no φ this
  // tick keeps its last instant power instead of vanishing.
  if (const auto previous = latest()) snapshot.vms = previous->vms;

  const auto upsert = [&snapshot](std::uint32_t host,
                                  std::uint32_t vm) -> VmRecord& {
    const auto it = std::lower_bound(snapshot.vms.begin(), snapshot.vms.end(),
                                     std::make_pair(host, vm), VmKeyLess{});
    if (it != snapshot.vms.end() && it->host == host && it->vm == vm)
      return *it;
    VmRecord record;
    record.host = host;
    record.vm = vm;
    return *snapshot.vms.insert(it, record);
  };

  for (const fleet::HostTickResult& result : results)
    for (std::size_t i = 0; i < result.phi.size(); ++i)
      upsert(result.host, result.vms[i].vm_id).power_w = result.phi[i];

  const core::MultiHostAccountant& tenants = engine.tenant_ledger();
  std::map<core::TenantId, TenantRecord> roll_up;
  for (VmRecord& record : snapshot.vms) {
    record.energy_j = engine.host_ledger(record.host).energy_j(record.vm);
    record.tenant =
        tenants.is_bound(static_cast<core::HostId>(record.host), record.vm)
            ? tenants.owner_of(static_cast<core::HostId>(record.host),
                               record.vm)
            : 0;
    snapshot.total_power_w += record.power_w;
    if (record.tenant != 0) roll_up[record.tenant].power_w += record.power_w;
  }
  for (const core::TenantId tenant : tenants.tenants()) {
    TenantRecord& record = roll_up[tenant];
    record.energy_j = tenants.tenant_energy_j(tenant);
  }
  snapshot.tenants.reserve(roll_up.size());
  for (auto& [tenant, record] : roll_up) {
    record.tenant = tenant;
    snapshot.tenants.push_back(record);
  }
  snapshot.total_energy_j = tenants.total_energy_j();
  snapshot.unattributed_j = tenants.unattributed_energy_j();
  publish(std::move(snapshot));
}

void SnapshotStore::attach(fleet::FleetEngine& engine) {
  set_monitor(&engine.invariants());
  engine.set_tick_observer(
      [this](const fleet::FleetEngine& source, std::uint64_t tick,
             const std::vector<fleet::HostTickResult>& results) {
        publish_tick(source, tick, results);
      });
}

}  // namespace vmp::serve
