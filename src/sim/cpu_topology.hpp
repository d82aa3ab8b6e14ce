// CPU topology: sockets x cores x SMT threads.
//
// The hyper-threading structure is the root cause of the paper's Sec. III
// observation — two logical cores share one physical core's execution
// resources — so the simulator counts physical cores and SMT threads, and the
// power model (sim/power_model.hpp) lays logical CPUs out core-major on them.
#pragma once

#include <cstddef>

namespace vmp::sim {

/// Immutable machine CPU layout.
class CpuTopology {
 public:
  /// Throws std::invalid_argument if any dimension is zero or threads_per_core
  /// exceeds 2 (the model covers 2-way SMT, which is what HTT provides).
  CpuTopology(std::size_t sockets, std::size_t cores_per_socket,
              std::size_t threads_per_core);

  [[nodiscard]] std::size_t sockets() const noexcept { return sockets_; }
  [[nodiscard]] std::size_t cores_per_socket() const noexcept {
    return cores_per_socket_;
  }
  [[nodiscard]] std::size_t threads_per_core() const noexcept {
    return threads_per_core_;
  }
  [[nodiscard]] std::size_t physical_cores() const noexcept {
    return sockets_ * cores_per_socket_;
  }
  [[nodiscard]] std::size_t logical_cpus() const noexcept {
    return physical_cores() * threads_per_core_;
  }

  [[nodiscard]] bool operator==(const CpuTopology&) const noexcept = default;

 private:
  std::size_t sockets_;
  std::size_t cores_per_socket_;
  std::size_t threads_per_core_;
};

}  // namespace vmp::sim
