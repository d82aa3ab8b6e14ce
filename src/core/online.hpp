// The online metering loop of Fig. 8, packaged.
//
// Every deployment repeats the same per-second choreography: advance the
// machine, read the meter, deduct the idle floor, snapshot VM telemetry,
// estimate per-VM shares, account energy. MeteringLoop wires those stages
// over any PowerEstimator so applications (`vmpower meter` and `vmpower
// bill`) consume one call per sampling period.
#pragma once

#include <functional>

#include "core/accountant.hpp"
#include "core/estimator.hpp"
#include "sim/physical_machine.hpp"

namespace vmp::core {

/// One sampling period's outcome.
struct MeteringSample {
  double time_s = 0.0;
  double meter_power_w = 0.0;     ///< wall reading, includes idle.
  double adjusted_power_w = 0.0;  ///< idle-deducted, clamped at 0.
  std::vector<VmSample> vms;      ///< telemetry fed to the estimator.
  std::vector<double> phi;        ///< per-VM shares, parallel to vms.
};

class MeteringLoop {
 public:
  /// The machine and estimator must outlive the loop. period_s must be > 0
  /// (throws std::invalid_argument). The optional accountant accumulates
  /// energy with its idle policy on every step.
  MeteringLoop(sim::PhysicalMachine& machine, PowerEstimator& estimator,
               double period_s = 1.0, EnergyAccountant* accountant = nullptr);

  /// Advances one sampling period and returns the full sample. When no VM is
  /// running, phi is empty and nothing is accounted.
  MeteringSample step();

  /// Runs for `duration_s`, invoking `on_sample` (if set) per period.
  void run(double duration_s,
           const std::function<void(const MeteringSample&)>& on_sample = {});

  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

 private:
  sim::PhysicalMachine& machine_;
  PowerEstimator& estimator_;
  double period_s_;
  EnergyAccountant* accountant_;
  std::size_t steps_ = 0;
};

}  // namespace vmp::core
