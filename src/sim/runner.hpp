// Scenario runner: drives a PhysicalMachine for a duration at a sampling rate
// and returns the aligned traces (meter power, true power, per-VM states) the
// evaluation consumes.
#pragma once

#include <vector>

#include "common/vm_sample.hpp"
#include "sim/physical_machine.hpp"
#include "util/time_series.hpp"

namespace vmp::sim {

/// Everything one experiment run produces, sample-aligned.
struct ScenarioTrace {
  util::TimeSeries measured_power{0.0, 1.0};  ///< wall meter, includes idle.
  util::TimeSeries true_power{0.0, 1.0};      ///< noiseless, includes idle.
  /// Per sample, the running VMs' telemetry (Hypervisor::observations()).
  std::vector<std::vector<common::VmSample>> vms;

  [[nodiscard]] std::size_t size() const noexcept {
    return measured_power.size();
  }
};

/// Steps `machine` for duration_s in increments of period_s (default 1 Hz,
/// the prototype's sampling rate), recording one sample per step. Throws
/// std::invalid_argument on non-positive duration/period, and on a duration
/// that is infinite or spans 2^64 or more periods.
[[nodiscard]] ScenarioTrace run_scenario(PhysicalMachine& machine,
                                         double duration_s,
                                         double period_s = 1.0);

}  // namespace vmp::sim
