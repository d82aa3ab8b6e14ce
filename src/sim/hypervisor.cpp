#include "sim/hypervisor.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace vmp::sim {

Hypervisor::Hypervisor(MachineSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {
  spec_.validate();
  pack_fraction_ = spec_.pack_affinity;
  power_ = machine_power(spec_, {}, pack_fraction_);
}

VmId Hypervisor::create_vm(common::VmConfig config, wl::WorkloadPtr workload) {
  const auto id = static_cast<VmId>(vms_.size());
  vms_.emplace_back(id, std::move(config), std::move(workload));
  VMP_LOG_INFO("created VM %u (%s, %u vCPU)", id,
               vms_.back().config().type_name.c_str(), vms_.back().config().vcpus);
  return id;
}

void Hypervisor::start_vm(VmId id) {
  if (id >= vms_.size()) throw std::out_of_range("Hypervisor::start_vm: bad id");
  Vm& vm = vms_[id];
  if (vm.running()) return;
  const std::size_t would_run = running_vcpus() + vm.config().vcpus;
  if (would_run > spec_.topology.logical_cpus())
    throw std::runtime_error(
        "Hypervisor::start_vm: host has insufficient logical CPUs (no "
        "overcommit)");
  vm.start(now_s_);
  recompute_epoch();
}

void Hypervisor::stop_vm(VmId id) {
  if (id >= vms_.size()) throw std::out_of_range("Hypervisor::stop_vm: bad id");
  vms_[id].stop();
  recompute_epoch();
}

void Hypervisor::bind_workload(VmId id, wl::WorkloadPtr workload) {
  if (id >= vms_.size())
    throw std::out_of_range("Hypervisor::bind_workload: bad id");
  vms_[id].bind_workload(std::move(workload));
  vms_[id].refresh(now_s_);
  recompute_epoch();
}

const Vm& Hypervisor::vm(VmId id) const {
  if (id >= vms_.size()) throw std::out_of_range("Hypervisor::vm: bad id");
  return vms_[id];
}

std::size_t Hypervisor::running_vcpus() const noexcept {
  std::size_t total = 0;
  for (const Vm& vm : vms_)
    if (vm.running()) total += vm.config().vcpus;
  return total;
}

void Hypervisor::tick(double dt) {
  if (!(dt > 0.0)) throw std::invalid_argument("Hypervisor::tick: dt must be > 0");
  now_s_ += dt;
  for (Vm& vm : vms_) vm.refresh(now_s_);
  recompute_epoch();
}

std::vector<common::VmSample> Hypervisor::observations() const {
  std::vector<common::VmSample> out;
  out.reserve(vms_.size());
  for (const Vm& vm : vms_) {
    if (!vm.running()) continue;
    out.push_back({vm.id(), vm.config().type_id, vm.observed_state()});
  }
  return out;
}

void Hypervisor::recompute_epoch() {
  std::vector<RunningVm> running;
  running.reserve(vms_.size());
  for (const Vm& vm : vms_) {
    if (!vm.running()) continue;
    running.push_back({vm.config().vcpus, vm.config().memory_mb,
                       vm.observed_state(), vm.power_intensity()});
  }
  // Realized pack fraction for this epoch: nominal affinity plus sub-second
  // scheduling variability, clamped to [0, 1].
  pack_fraction_ = std::clamp(
      spec_.pack_affinity + rng_.normal(0.0, spec_.affinity_jitter), 0.0, 1.0);
  power_ = machine_power(spec_, running, pack_fraction_);
}

}  // namespace vmp::sim
