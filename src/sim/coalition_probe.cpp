#include "sim/coalition_probe.hpp"

#include <stdexcept>

namespace vmp::sim {

CoalitionProbe::CoalitionProbe(MachineSpec spec,
                               std::vector<common::VmConfig> configs,
                               std::vector<double> intensities)
    : spec_(std::move(spec)), configs_(std::move(configs)),
      intensities_(std::move(intensities)) {
  spec_.validate();
  if (configs_.empty())
    throw std::invalid_argument("CoalitionProbe: empty VM fleet");
  if (configs_.size() > 30)
    throw std::invalid_argument("CoalitionProbe: at most 30 VMs supported");
  if (intensities_.empty()) {
    intensities_.assign(configs_.size(), 1.0);
  } else if (intensities_.size() != configs_.size()) {
    throw std::invalid_argument(
        "CoalitionProbe: intensities size must match fleet size");
  }
  std::size_t total_vcpus = 0;
  for (const auto& config : configs_) {
    config.validate();
    total_vcpus += config.vcpus;
  }
  if (total_vcpus > spec_.topology.logical_cpus())
    throw std::invalid_argument(
        "CoalitionProbe: fleet vCPUs exceed the machine's logical CPUs");
  for (double mu : intensities_)
    if (!(mu > 0.0))
      throw std::invalid_argument("CoalitionProbe: intensities must be > 0");
}

PowerBreakdown CoalitionProbe::breakdown(
    CoalitionMask mask, std::span<const common::StateVector> states) const {
  if (states.size() != configs_.size())
    throw std::invalid_argument("CoalitionProbe: states size != fleet size");
  if (configs_.size() < 32 && (mask >> configs_.size()) != 0)
    throw std::invalid_argument("CoalitionProbe: mask addresses unknown VMs");

  std::vector<RunningVm> running;
  running.reserve(configs_.size());
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    if ((mask & (CoalitionMask{1} << i)) == 0) continue;
    running.push_back({configs_[i].vcpus, configs_[i].memory_mb,
                       states[i].clamped(), intensities_[i]});
  }
  return machine_power(spec_, running, spec_.pack_affinity);
}

double CoalitionProbe::worth(CoalitionMask mask,
                             std::span<const common::StateVector> states) const {
  return breakdown(mask, states).adjusted();
}

}  // namespace vmp::sim
