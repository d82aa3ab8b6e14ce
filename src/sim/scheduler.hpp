// vCPU -> logical-CPU placement.
//
// Whether two busy vCPUs land on sibling hyper-threads of one physical core
// or on separate cores decides how much execution-unit competition (and hence
// sub-additive power) the machine exhibits. The simulator provides:
//
//   * kSpread — prefer empty physical cores (what an idle-balancing scheduler
//     does on an uncrowded host);
//   * kPack   — prefer filling a half-busy core's free sibling first (what a
//     consolidating scheduler, or a crowded host, produces; this is the
//     placement behind the paper's Fig. 4 measurement).
//
// Neither alone is what the paper measured: its Table IV per-type
// coefficients land between the pure-pack and pure-spread extremes. The
// hypervisor reproduces that time-averaged partial contention by blending
// the power of both placements by a per-epoch pack fraction
// (MachineSpec::pack_affinity, see blended_power).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/cpu_topology.hpp"

namespace vmp::sim {

/// One runnable vCPU's demand for a scheduling epoch.
struct VcpuDemand {
  std::size_t vm_index = 0;   ///< index into the caller's VM array.
  double utilization = 0.0;   ///< demanded fraction of the thread, [0, 1].
  double intensity = 1.0;     ///< workload power intensity (> 0).
};

/// Per-logical-CPU assignment produced by placement. vm_index ==
/// kUnassigned marks an idle thread.
struct ThreadAssignment {
  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);
  std::size_t vm_index = kUnassigned;
  double utilization = 0.0;
  double intensity = 1.0;

  [[nodiscard]] bool busy() const noexcept { return vm_index != kUnassigned; }
  /// Effective execution-unit pressure this thread exerts.
  [[nodiscard]] double effective_load() const noexcept {
    return busy() ? utilization * intensity : 0.0;
  }
};

/// A full placement: one ThreadAssignment per logical CPU.
using Placement = std::vector<ThreadAssignment>;

enum class PlacementMode { kSpread, kPack };

[[nodiscard]] const char* to_string(PlacementMode mode) noexcept;

/// Deterministic greedy placement of the demands in order.
///
/// Throws std::invalid_argument if more vCPUs are demanded than logical CPUs
/// exist (the hypervisor enforces no-overcommit, matching the paper's Sec. V-B
/// observation that hosts run at most one vCPU per logical core).
[[nodiscard]] Placement place(const CpuTopology& topology,
                              std::span<const VcpuDemand> demands,
                              PlacementMode mode);

}  // namespace vmp::sim
