#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vmp::sim {

util::TimeSeries ScenarioTrace::adjusted_measured(double idle_power_w) const {
  util::TimeSeries out(measured_power.start(), measured_power.period());
  out.reserve(measured_power.size());
  for (std::size_t i = 0; i < measured_power.size(); ++i)
    out.push(std::max(0.0, measured_power[i] - idle_power_w));
  return out;
}

ScenarioTrace run_scenario(PhysicalMachine& machine, double duration_s,
                           double period_s) {
  if (!(duration_s > 0.0))
    throw std::invalid_argument("run_scenario: duration must be > 0");
  if (!(period_s > 0.0))
    throw std::invalid_argument("run_scenario: period must be > 0");
  // The step count is cast to size_t, which is undefined for an infinite
  // or >= 2^64 value.
  if (!(duration_s / period_s < 0x1p64))
    throw std::invalid_argument(
        "run_scenario: duration must be finite and below 2^64 periods");

  const auto samples = static_cast<std::size_t>(std::round(duration_s / period_s));
  ScenarioTrace trace{util::TimeSeries(machine.now() + period_s, period_s),
                      util::TimeSeries(machine.now() + period_s, period_s),
                      {}};
  for (std::size_t i = 0; i < samples; ++i) {
    const MeterFrame frame = machine.step(period_s);
    trace.measured_power.push(frame.active_power_w);
    trace.true_power.push(machine.true_power().total());
    trace.states.sample(machine.hypervisor());
  }
  return trace;
}

}  // namespace vmp::sim
