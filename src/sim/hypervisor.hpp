// The hypervisor: VM lifecycle, vCPU scheduling, and machine power synthesis.
//
// Plays the role of XenServer in the paper's prototype (Fig. 8/9): it tracks
// each VM's component state, draws each tick's pack/spread scheduling mix,
// and — because this is a simulator — also evaluates the machine's true
// physical power for the meter to observe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/vm_sample.hpp"
#include "sim/machine_spec.hpp"
#include "sim/power_model.hpp"
#include "sim/vm.hpp"
#include "util/rng.hpp"

namespace vmp::sim {

class Hypervisor {
 public:
  /// Validates the spec; the scheduler's randomness derives from `seed`.
  explicit Hypervisor(MachineSpec spec, std::uint64_t seed = 1);

  // --- VM lifecycle ---

  /// Defines a VM (initially stopped). Throws std::invalid_argument on bad
  /// config/null workload.
  VmId create_vm(common::VmConfig config, wl::WorkloadPtr workload);

  /// Starts a VM. Throws std::out_of_range on unknown id and
  /// std::runtime_error if starting it would exceed the host's logical CPUs
  /// (the no-overcommit rule of Sec. V-B).
  void start_vm(VmId id);
  void stop_vm(VmId id);
  /// Rebinds the workload of a VM. Throws std::out_of_range on unknown id.
  void bind_workload(VmId id, wl::WorkloadPtr workload);

  [[nodiscard]] const Vm& vm(VmId id) const;
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  [[nodiscard]] std::size_t running_vcpus() const noexcept;

  // --- clocking ---

  /// Advances the simulation clock by dt seconds: refreshes every running
  /// VM's state, reschedules vCPUs for the new epoch, and recomputes the
  /// machine's true power. dt must be > 0 (throws std::invalid_argument).
  void tick(double dt);

  [[nodiscard]] double now() const noexcept { return now_s_; }

  // --- observation plane ---

  /// Telemetry for all *running* VMs, in VmId order.
  [[nodiscard]] std::vector<common::VmSample> observations() const;

  /// The machine's true power for the current epoch (set by the last tick;
  /// idle-only before the first tick).
  [[nodiscard]] const PowerBreakdown& current_power() const noexcept {
    return power_;
  }

  /// Pack fraction realized in the current epoch.
  [[nodiscard]] double current_pack_fraction() const noexcept {
    return pack_fraction_;
  }

  [[nodiscard]] const MachineSpec& spec() const noexcept { return spec_; }

 private:
  void recompute_epoch();

  MachineSpec spec_;
  util::Rng rng_;
  std::vector<Vm> vms_;
  double now_s_ = 0.0;
  double pack_fraction_ = 0.0;
  PowerBreakdown power_;
};

}  // namespace vmp::sim
