#include "core/capping.hpp"

#include <algorithm>
#include <stdexcept>

namespace vmp::core {

void CapPolicy::validate() const {
  if (!(cap_w > 0.0))
    throw std::invalid_argument("CapPolicy: cap must be > 0");
  if (decrease_factor <= 0.0 || decrease_factor >= 1.0)
    throw std::invalid_argument("CapPolicy: decrease_factor must be in (0,1)");
  if (increase_step < 0.0)
    throw std::invalid_argument("CapPolicy: increase_step must be >= 0");
  if (comfort_margin < 0.0 || comfort_margin >= 1.0)
    throw std::invalid_argument("CapPolicy: comfort_margin must be in [0,1)");
  if (min_throttle <= 0.0 || min_throttle > 1.0)
    throw std::invalid_argument("CapPolicy: min_throttle must be in (0,1]");
}

void PowerCapController::set_cap(std::uint32_t vm_id, CapPolicy policy) {
  policy.validate();
  const auto [it, inserted] = states_.emplace(vm_id, State{policy, 1.0, 0});
  if (!inserted)
    throw std::invalid_argument("PowerCapController: VM already capped");
}

bool PowerCapController::has_cap(std::uint32_t vm_id) const noexcept {
  return states_.contains(vm_id);
}

double PowerCapController::throttle(std::uint32_t vm_id) const noexcept {
  const auto it = states_.find(vm_id);
  return it != states_.end() ? it->second.throttle : 1.0;
}

void PowerCapController::observe(std::span<const common::VmSample> vms,
                                 std::span<const double> phi) {
  if (vms.size() != phi.size())
    throw std::invalid_argument("PowerCapController: vms/phi size mismatch");
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const auto it = states_.find(vms[i].vm_id);
    if (it == states_.end()) continue;
    State& state = it->second;
    if (phi[i] > state.policy.cap_w) {
      ++state.violations;
      state.throttle = std::max(state.policy.min_throttle,
                                state.throttle * state.policy.decrease_factor);
    } else if (phi[i] <
               (1.0 - state.policy.comfort_margin) * state.policy.cap_w) {
      state.throttle =
          std::min(1.0, state.throttle + state.policy.increase_step);
    }
  }
}

std::size_t PowerCapController::violations(std::uint32_t vm_id) const noexcept {
  const auto it = states_.find(vm_id);
  return it != states_.end() ? it->second.violations : 0;
}

}  // namespace vmp::core
