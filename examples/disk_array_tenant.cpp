// Multi-host tenant accounting (paper Sec. IV-C Additivity, Sec. VIII).
//
// Tenant 1's VM computes on the Xeon host while its logical disk is served
// by a storage host (disk array); tenant 2 is compute-only. By the Shapley
// value's Additivity axiom, tenant 1's power is the sum of its shares in the
// two independent per-host games — no joint cross-host game is needed. This
// example runs both hosts, meters each with its own Shapley estimator, and
// composes the bills with MultiHostAccountant.
#include <cstdio>
#include <memory>

#include "common/units.hpp"
#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "core/multi_host.hpp"
#include "sim/physical_machine.hpp"
#include "util/table.hpp"
#include "workload/primitives.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

namespace {

// A disk-array host: little CPU, lots of spindles.
sim::MachineSpec disk_array_spec() {
  sim::MachineSpec spec = sim::xeon_prototype();
  spec.name = "disk-array";
  spec.topology = sim::CpuTopology{1, 2, 2};
  spec.idle_power_w = 95.0;
  spec.thread_full_power_w = 8.0;
  spec.disk_power_w = 60.0;  // the dominant dynamic component
  spec.memory_power_w = 6.0;
  spec.validate();
  return spec;
}

// The "logical disk" service VM: I/O-heavy, light CPU.
wl::WorkloadPtr disk_service_load(double io_level) {
  common::StateVector state = common::StateVector::cpu_only(0.15);
  state[common::Component::kDiskIo] = io_level;
  return std::make_unique<wl::ConstantWorkload>(state, 1.0, "disk_service");
}

}  // namespace

int main() {
  constexpr core::HostId kCompute = 0;
  constexpr core::HostId kStorage = 1;
  constexpr core::TenantId kTenant1 = 101;
  constexpr core::TenantId kTenant2 = 202;

  // --- compute host: tenant 1's VM3 and tenant 2's VM3 ---
  const sim::MachineSpec compute_spec = sim::xeon_prototype();
  const common::VmConfig compute_vm = common::paper_vm_type(3);
  const std::vector<common::VmConfig> compute_fleet = {compute_vm, compute_vm};
  core::CollectionOptions options;
  options.duration_s = 300.0;
  const auto compute_dataset =
      core::collect_offline_dataset(compute_spec, compute_fleet, options);
  core::ShapleyVhcEstimator compute_estimator(compute_dataset.universe,
                                              compute_dataset.approximation);

  sim::PhysicalMachine compute_host(compute_spec, 21);
  const auto c1 = compute_host.hypervisor().create_vm(
      compute_vm, wl::make_spec_workload(wl::SpecBenchmark::kWrf, 31));
  const auto c2 = compute_host.hypervisor().create_vm(
      compute_vm, wl::make_spec_workload(wl::SpecBenchmark::kSjeng, 32));
  compute_host.hypervisor().start_vm(c1);
  compute_host.hypervisor().start_vm(c2);

  // --- storage host: tenant 1's logical disk plus an unrelated service ---
  const sim::MachineSpec storage_spec = disk_array_spec();
  common::VmConfig disk_vm{.type_name = "LDISK", .type_id = 7, .vcpus = 1,
                           .memory_mb = 1024, .disk_gb = 500};
  const std::vector<common::VmConfig> storage_fleet = {disk_vm, disk_vm};
  core::CollectionOptions storage_options;
  storage_options.duration_s = 300.0;
  storage_options.exercise_all_components = true;  // disk power matters here
  const auto storage_dataset =
      core::collect_offline_dataset(storage_spec, storage_fleet, storage_options);
  core::ShapleyVhcEstimator storage_estimator(storage_dataset.universe,
                                              storage_dataset.approximation);

  sim::PhysicalMachine storage_host(storage_spec, 22);
  const auto d1 =
      storage_host.hypervisor().create_vm(disk_vm, disk_service_load(0.8));
  const auto d2 =
      storage_host.hypervisor().create_vm(disk_vm, disk_service_load(0.3));
  storage_host.hypervisor().start_vm(d1);
  storage_host.hypervisor().start_vm(d2);

  // --- bindings: tenant 1 owns c1 + d1; tenant 2 owns c2; d2 is unowned ---
  core::MultiHostAccountant accountant;
  accountant.bind(kCompute, c1, kTenant1);
  accountant.bind(kStorage, d1, kTenant1);
  accountant.bind(kCompute, c2, kTenant2);

  const auto meter_host = [](sim::PhysicalMachine& machine,
                             core::ShapleyVhcEstimator& estimator,
                             core::HostId host,
                             core::MultiHostAccountant& acc) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto phi = estimator.estimate(samples, adjusted);
    acc.add_host_sample(host, samples, phi, 1.0);
  };

  const double horizon_s = 600.0;
  for (double t = 0.0; t < horizon_s; t += 1.0) {
    meter_host(compute_host, compute_estimator, kCompute, accountant);
    meter_host(storage_host, storage_estimator, kStorage, accountant);
  }

  util::print_banner("per-tenant energy across both hosts (10 minutes)");
  util::TablePrinter table({"tenant", "compute host (kWh)",
                            "storage host (kWh)", "total (kWh)"});
  for (const core::TenantId tenant : {kTenant1, kTenant2}) {
    table.add_row(
        {std::to_string(tenant),
         util::TablePrinter::num(common::joules_to_kwh(
             accountant.tenant_energy_on_host_j(tenant, kCompute)), 5),
         util::TablePrinter::num(common::joules_to_kwh(
             accountant.tenant_energy_on_host_j(tenant, kStorage)), 5),
         util::TablePrinter::num(
             common::joules_to_kwh(accountant.tenant_energy_j(tenant)), 5)});
  }
  table.print();
  std::printf("unattributed (unowned VMs): %.5f kWh\n",
              common::joules_to_kwh(accountant.unattributed_energy_j()));
  std::printf("\nAdditivity (Sec. IV-C): tenant 1's total is exactly the sum "
              "of its two\nper-host Shapley shares — composing games needs no "
              "cross-host coordination.\n");
  return 0;
}
