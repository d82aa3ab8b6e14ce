// Scenario runner: drives a PhysicalMachine for a duration at a sampling rate
// and returns the aligned traces (meter power, true power, per-VM states) the
// evaluation consumes.
#pragma once

#include "sim/dstat.hpp"
#include "sim/physical_machine.hpp"
#include "util/time_series.hpp"

namespace vmp::sim {

/// Everything one experiment run produces, sample-aligned.
struct ScenarioTrace {
  util::TimeSeries measured_power{0.0, 1.0};  ///< wall meter, includes idle.
  util::TimeSeries true_power{0.0, 1.0};      ///< noiseless, includes idle.
  DstatCollector states;                      ///< per-sample VM observations.

  [[nodiscard]] std::size_t size() const noexcept {
    return measured_power.size();
  }

  /// Measured power with the idle floor deducted (paper Remark 1), clamped
  /// at zero (meter noise can dip an idle sample below the floor).
  [[nodiscard]] util::TimeSeries adjusted_measured(double idle_power_w) const;
};

/// Steps `machine` for duration_s in increments of period_s (default 1 Hz,
/// the prototype's sampling rate), recording one sample per step. Throws
/// std::invalid_argument on non-positive duration/period, and on a duration
/// that is infinite or spans 2^64 or more periods.
[[nodiscard]] ScenarioTrace run_scenario(PhysicalMachine& machine,
                                         double duration_s,
                                         double period_s = 1.0);

}  // namespace vmp::sim
