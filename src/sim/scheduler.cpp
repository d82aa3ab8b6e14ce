#include "sim/scheduler.hpp"

#include <limits>
#include <stdexcept>

namespace vmp::sim {

const char* to_string(PlacementMode mode) noexcept {
  switch (mode) {
    case PlacementMode::kSpread: return "spread";
    case PlacementMode::kPack: return "pack";
  }
  return "?";
}

Placement place(const CpuTopology& topology, std::span<const VcpuDemand> demands,
                PlacementMode mode) {
  const std::size_t n_cpus = topology.logical_cpus();
  if (demands.size() > n_cpus)
    throw std::invalid_argument(
        "place: demanded vCPUs exceed logical CPUs (host overcommit is not "
        "modelled)");

  Placement placement(n_cpus);
  for (const VcpuDemand& demand : demands) {
    // Score every free logical CPU; lower is better.
    std::size_t best = ThreadAssignment::kUnassigned;
    std::size_t best_score = std::numeric_limits<std::size_t>::max();
    for (std::size_t cpu = 0; cpu < n_cpus; ++cpu) {
      if (placement[cpu].busy()) continue;
      const bool sibling_busy = placement[topology.sibling_of(cpu)].busy();
      // kPack: prefer joining a half-busy core (sibling_busy first);
      // kSpread: prefer an empty core. Ties resolve to the lowest CPU index
      // so placement is fully deterministic for a given mode.
      const std::size_t affinity_rank =
          (mode == PlacementMode::kPack) == sibling_busy ? 0U : 1U;
      const std::size_t score = affinity_rank * n_cpus + cpu;
      if (score < best_score) {
        best_score = score;
        best = cpu;
      }
    }
    // A free CPU always exists because demands.size() <= n_cpus.
    placement[best] = ThreadAssignment{demand.vm_index, demand.utilization,
                                       demand.intensity};
  }
  return placement;
}

}  // namespace vmp::sim
