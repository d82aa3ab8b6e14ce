// The assembled testbed: hypervisor + wall meter.
//
// PhysicalMachine is the facade the examples and benches drive. Advancing it
// one sampling period (a) ticks the hypervisor (VM states, scheduling, true
// power) and (b) produces a wall-meter frame — the two data paths of the
// paper's prototype (Fig. 8/9) that every metering step reads. Its third,
// the RAPL counters, is the caller's to attach: a RaplSimulator
// (sim/rapl.hpp) fed true_power() after each step.
#pragma once

#include <cstdint>

#include "sim/hypervisor.hpp"
#include "sim/power_meter.hpp"

namespace vmp::sim {

class PhysicalMachine {
 public:
  /// Builds the testbed from a spec; all stochastic components (scheduler,
  /// meter noise) derive deterministically from `seed`.
  explicit PhysicalMachine(MachineSpec spec, std::uint64_t seed = 1);

  /// Underlying hypervisor for VM lifecycle management.
  [[nodiscard]] Hypervisor& hypervisor() noexcept { return hypervisor_; }
  [[nodiscard]] const Hypervisor& hypervisor() const noexcept {
    return hypervisor_;
  }

  /// Advances one sampling period and returns the wall-meter frame for it.
  /// dt must be > 0.
  MeterFrame step(double dt_s);

  /// True (noiseless) power of the current epoch.
  [[nodiscard]] const PowerBreakdown& true_power() const noexcept {
    return hypervisor_.current_power();
  }

  /// The machine's idle floor, as the operator would calibrate it once with
  /// all VMs stopped (paper Sec. VII-A treats it as the constant 138 W).
  [[nodiscard]] double idle_power_w() const noexcept {
    return hypervisor_.spec().idle_power_w;
  }

  [[nodiscard]] double now() const noexcept { return hypervisor_.now(); }

 private:
  Hypervisor hypervisor_;
  SerialMeterPort meter_port_;
};

}  // namespace vmp::sim
