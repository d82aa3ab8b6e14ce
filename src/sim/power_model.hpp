// The simulated machine's physical power synthesis.
//
// This is the "analog truth" of the testbed — the quantity the wall meter
// observes. Per physical core, the dynamic power of sibling hyper-threads is
// sub-additive:
//
//   p_core = p_t * (e1 + e2) - gamma * p_t * min(e1, e2)
//
// where e is a thread's effective load (utilization x instruction-mix
// intensity) and gamma the SMT contention factor: while both siblings issue
// work, they compete for the core's shared execution units (Fig. 5 of the
// paper), so the overlapping fraction min(e1, e2) costs (1 - gamma) of its
// nominal power. A second, smaller machine-level coupling models shared LLC /
// memory-bandwidth contention between *distinct VMs*. Memory and disk draw a
// few watts each (Sec. VI-C measures ~12 W and ~10 W) and the idle floor is a
// stable constant (Remark 1).
//
// Which vCPUs share a core is plain arithmetic on a busy vCPU's rank k (VM
// order, counting only VMs with cpu > 0). Logical CPUs are core-major: core c
// owns logical CPUs {2c, 2c+1} under 2-way SMT. Two placements bound what a
// scheduler does:
//
//   * pack   — vCPU k on logical CPU k, so core c hosts vCPUs 2c and 2c+1
//     (a consolidating scheduler, or a crowded host; the placement behind
//     the paper's Fig. 4 measurement);
//   * spread — with C physical cores, vCPU c < C alone on core c and vCPU
//     C + c on that core's sibling (an idle-balancing scheduler).
//
// Neither alone is what the paper measured: its Table IV per-type
// coefficients land between the two, so the power is their blend by a pack
// fraction (MachineSpec::pack_affinity).
#pragma once

#include <span>

#include "common/state_vector.hpp"
#include "sim/machine_spec.hpp"

namespace vmp::sim {

/// One running VM as the power model sees it.
struct RunningVm {
  unsigned vcpus = 1;
  unsigned memory_mb = 0;      ///< configured DRAM of the VM, MB.
  common::StateVector state;   ///< component utilizations, each in [0, 1].
  double intensity = 1.0;      ///< workload power intensity (> 0).
};

/// Decomposed instantaneous machine power, all in watts.
struct PowerBreakdown {
  double idle = 0.0;
  double cpu_dynamic = 0.0;   ///< after SMT contention.
  double llc_penalty = 0.0;   ///< cross-VM shared-resource saving (subtracted).
  double memory = 0.0;
  double disk = 0.0;

  /// Wall power: idle + cpu - llc + memory + disk.
  [[nodiscard]] double total() const noexcept {
    return idle + cpu_dynamic - llc_penalty + memory + disk;
  }
  /// Idle-adjusted power, the quantity every estimator disaggregates
  /// (paper Remark 1 deducts the idle floor).
  [[nodiscard]] double adjusted() const noexcept { return total() - idle; }
};

/// The machine's true power with `vms` running, in VM order:
/// pack_fraction * power(pack) + (1 - pack_fraction) * power(spread). This
/// is what a 1 Hz sample observes: within one sampling interval the OS
/// migrates threads many times, so the sample averages the two extremes.
/// The hypervisor calls it at each epoch's realized pack fraction and
/// CoalitionProbe at the spec's nominal pack_affinity. Idle vCPUs stay off
/// the cores: they draw nothing and must not displace busy threads (or a
/// zero-state VM would break the Dummy axiom).
///
/// Throws std::invalid_argument if pack_fraction is outside [0, 1] or the
/// busy vCPUs outnumber the logical CPUs (host overcommit is not modelled,
/// matching the paper's Sec. V-B observation of at most one vCPU per
/// logical core).
[[nodiscard]] PowerBreakdown machine_power(const MachineSpec& spec,
                                           std::span<const RunningVm> vms,
                                           double pack_fraction);

}  // namespace vmp::sim
