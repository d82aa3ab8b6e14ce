#include "sim/cpu_topology.hpp"

#include <stdexcept>

namespace vmp::sim {

CpuTopology::CpuTopology(std::size_t sockets, std::size_t cores_per_socket,
                         std::size_t threads_per_core)
    : sockets_(sockets), cores_per_socket_(cores_per_socket),
      threads_per_core_(threads_per_core) {
  if (sockets == 0 || cores_per_socket == 0 || threads_per_core == 0)
    throw std::invalid_argument("CpuTopology: dimensions must be positive");
  if (threads_per_core > 2)
    throw std::invalid_argument("CpuTopology: at most 2-way SMT is modelled");
}

}  // namespace vmp::sim
