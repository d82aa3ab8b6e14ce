// One running VM's telemetry at a sampling instant (paper Fig. 8, Sec. VI-C):
// what dstat reports for it, as the hypervisor's observation plane returns
// it and as every estimator and accountant consumes it.
#pragma once

#include <cstdint>

#include "common/state_vector.hpp"
#include "common/vm_config.hpp"

namespace vmp::common {

struct VmSample {
  std::uint32_t vm_id = 0;
  VmTypeId type = 0;
  StateVector state;
};

}  // namespace vmp::common
