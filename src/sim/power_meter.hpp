// The wall power meter of the prototype (Fig. 9).
//
// The paper's meter reports electrical signals (voltage, current, active
// power) over a serial port at 1 Hz. PowerMeter models the measurement error
// (Gaussian noise + display quantization); SerialMeterPort wraps it in the
// frame-oriented read API a collection daemon would use, including an
// accumulating energy register.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"

namespace vmp::sim {

/// Noisy, quantized observation of a true power value.
class PowerMeter {
 public:
  /// noise_sigma_w and quantum_w must be >= 0 (throws std::invalid_argument).
  PowerMeter(double noise_sigma_w, double quantum_w, std::uint64_t seed);

  /// One reading of the given true power: adds Gaussian noise, quantizes to
  /// the display quantum, clamps at zero.
  [[nodiscard]] double read(double true_power_w);

 private:
  double noise_sigma_w_;
  double quantum_w_;
  util::Rng rng_;
};

/// One serial frame, mirroring the fields the prototype's meter exposes.
struct MeterFrame {
  double voltage_v = 0.0;
  double current_a = 0.0;
  double active_power_w = 0.0;
  double energy_wh = 0.0;  ///< cumulative active energy since power-on.
};

/// A meter reading with the machine's idle floor deducted (paper Remark 1):
/// the adjusted power the estimators disaggregate. Clamped at zero because
/// meter noise can dip an idle sample below the floor.
[[nodiscard]] inline double adjusted_power_w(double metered_w,
                                             double idle_floor_w) noexcept {
  return std::max(0.0, metered_w - idle_floor_w);
}

/// Frame-level serial interface on top of PowerMeter.
class SerialMeterPort {
 public:
  SerialMeterPort(PowerMeter meter, double line_voltage_v = 230.0);

  /// Produces the frame for one sampling interval of length dt_s during which
  /// the machine drew true_power_w. dt_s must be > 0.
  [[nodiscard]] MeterFrame read_frame(double true_power_w, double dt_s);

  [[nodiscard]] double total_energy_wh() const noexcept { return energy_wh_; }

 private:
  PowerMeter meter_;
  double line_voltage_v_;
  double energy_wh_ = 0.0;
};

}  // namespace vmp::sim
