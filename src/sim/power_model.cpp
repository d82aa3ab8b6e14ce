#include "sim/power_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace vmp::sim {

PowerBreakdown machine_power(const MachineSpec& spec,
                             std::span<const RunningVm> vms,
                             double pack_fraction) {
  if (pack_fraction < 0.0 || pack_fraction > 1.0)
    throw std::invalid_argument("machine_power: pack_fraction must be in [0,1]");
  const CpuTopology& topo = spec.topology;

  // Effective load of busy vCPU k; slots past the last busy vCPU stay idle.
  std::vector<double> load(topo.logical_cpus(), 0.0);
  std::size_t busy = 0;
  for (const RunningVm& vm : vms) {
    if (!(vm.state.cpu() > 0.0)) continue;
    if (vm.vcpus > load.size() - busy)
      throw std::invalid_argument(
          "machine_power: busy vCPUs exceed logical CPUs (host overcommit is "
          "not modelled)");
    std::fill_n(load.begin() + static_cast<std::ptrdiff_t>(busy), vm.vcpus,
                vm.state.cpu() * vm.intensity);
    busy += vm.vcpus;
  }

  // Per-core SMT-contended dynamic power under each placement, summed core
  // by core: pack gives core c vCPUs 2c and 2c+1, spread vCPUs c and C + c.
  const double pt = spec.thread_full_power_w;
  const auto core_power = [&](double e1, double e2) {
    return pt * (e1 + e2) - spec.smt_contention * pt * std::min(e1, e2);
  };
  const std::size_t cores = topo.physical_cores();
  const std::size_t tpc = topo.threads_per_core();
  double packed = 0.0;
  double spread = 0.0;
  for (std::size_t c = 0; c < cores; ++c) {
    packed += core_power(load[c * tpc], tpc == 2 ? load[c * tpc + 1] : 0.0);
    spread += core_power(load[c], tpc == 2 ? load[cores + c] : 0.0);
  }
  // Power-limited turbo: beyond the knee the package controller scales
  // frequency, so nominal load converts to power at a reduced slope.
  const auto turbo = [&](double cpu) {
    return cpu > spec.cpu_power_knee_w
               ? spec.cpu_power_knee_w +
                     spec.cpu_saturation_slope * (cpu - spec.cpu_power_knee_w)
               : cpu;
  };
  packed = turbo(packed);
  spread = turbo(spread);

  // Cross-VM LLC / memory-bandwidth coupling: every pair of distinct VMs
  // saves a little power proportional to their overlapping CPU demand
  // (both stall more, so neither's pipelines run as hot). Capped so the
  // machine's dynamic power can never go negative.
  const auto thread_demand = [](const RunningVm& vm) {
    return vm.state.cpu() * vm.intensity * static_cast<double>(vm.vcpus);
  };
  double llc = 0.0;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const double demand = thread_demand(vms[i]);
    if (demand <= 0.0) continue;
    for (std::size_t j = i + 1; j < vms.size(); ++j)
      llc += spec.llc_contention_w * std::min(demand, thread_demand(vms[j]));
  }

  // Memory and disk: linear in the host-level component utilization, and
  // the same under either placement.
  double mem_mb = 0.0;
  double disk = 0.0;
  for (const RunningVm& vm : vms) {
    mem_mb += vm.state.memory() * static_cast<double>(vm.memory_mb);
    disk += vm.state.disk_io();
  }

  const double a = pack_fraction;
  PowerBreakdown p;
  p.idle = spec.idle_power_w;
  p.cpu_dynamic = a * packed + (1.0 - a) * spread;
  p.llc_penalty = a * std::min(llc, 0.25 * packed) +
                  (1.0 - a) * std::min(llc, 0.25 * spread);
  p.memory = spec.memory_power_w *
             std::min(1.0, mem_mb / static_cast<double>(spec.memory_mb));
  p.disk = spec.disk_power_w * std::min(1.0, disk);
  return p;
}

}  // namespace vmp::sim
