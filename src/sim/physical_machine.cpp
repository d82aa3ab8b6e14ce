#include "sim/physical_machine.hpp"

namespace vmp::sim {

PhysicalMachine::PhysicalMachine(MachineSpec spec, std::uint64_t seed)
    : hypervisor_(std::move(spec), seed),
      meter_port_(PowerMeter(hypervisor_.spec().meter_noise_sigma_w,
                             hypervisor_.spec().meter_quantum_w, seed ^ 0x9E37),
                  230.0) {}

MeterFrame PhysicalMachine::step(double dt_s) {
  hypervisor_.tick(dt_s);
  return meter_port_.read_frame(hypervisor_.current_power().total(), dt_s);
}

}  // namespace vmp::sim
