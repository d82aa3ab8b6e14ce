// Runtime representation of a virtual machine inside the hypervisor.
#pragma once

#include <cstdint>
#include <string>

#include "common/state_vector.hpp"
#include "common/vm_config.hpp"
#include "workload/workload.hpp"

namespace vmp::sim {

/// Hypervisor-assigned VM identifier, dense from 0 in creation order.
using VmId = std::uint32_t;

enum class VmState { kStopped, kRunning };

[[nodiscard]] const char* to_string(VmState s) noexcept;

/// A VM instance: immutable configuration plus mutable runtime state. Owned
/// by the Hypervisor; exposed const to observers.
class Vm {
 public:
  /// Throws std::invalid_argument on an invalid config or null workload.
  Vm(VmId id, common::VmConfig config, wl::WorkloadPtr workload);

  [[nodiscard]] VmId id() const noexcept { return id_; }
  [[nodiscard]] const common::VmConfig& config() const noexcept { return config_; }
  [[nodiscard]] VmState state() const noexcept { return state_; }
  [[nodiscard]] bool running() const noexcept {
    return state_ == VmState::kRunning;
  }

  /// The component state a dstat-style collector observes right now. While
  /// stopped the VM reports all-zero (an idle VM adds no load nor power —
  /// the paper's Dummy-axiom observation).
  [[nodiscard]] const common::StateVector& observed_state() const noexcept {
    return observed_state_;
  }

  [[nodiscard]] double power_intensity() const noexcept {
    return workload_->power_intensity();
  }

  // Lifecycle and clocking — called by the Hypervisor only.
  void start(double now_s);
  void stop();
  /// Refreshes observed_state() from the workload at hypervisor time now_s
  /// (relative workload time = now_s - start time).
  void refresh(double now_s);
  /// Replaces the bound workload (takes effect at the next refresh). Throws
  /// std::invalid_argument on null.
  void bind_workload(wl::WorkloadPtr workload);

 private:
  VmId id_;
  common::VmConfig config_;
  wl::WorkloadPtr workload_;
  VmState state_ = VmState::kStopped;
  double started_at_s_ = 0.0;
  common::StateVector observed_state_{};
};

}  // namespace vmp::sim
