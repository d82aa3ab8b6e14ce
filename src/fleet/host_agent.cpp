#include "fleet/host_agent.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "workload/spec_suite.hpp"

namespace vmp::fleet {

HostAgent::HostAgent(std::uint32_t host_id, const sim::MachineSpec& spec,
                     const std::vector<common::VmConfig>& fleet,
                     const core::VhcUniverse& universe,
                     const core::VhcLinearApprox& approximation,
                     std::uint64_t seed, HostAgentOptions options)
    : host_id_(host_id), options_(options), machine_(spec, seed),
      // Every core solver runs on the calling thread, so the engine's
      // metering threads, each stepping whole hosts, are the fleet's only
      // parallelism.
      estimator_(universe, approximation) {
  // A type the universe lacks would only throw inside the first estimate(),
  // on whichever metering thread stepped this host.
  for (const common::VmConfig& config : fleet)
    if (!universe.knows(config.type_id))
      throw std::invalid_argument("HostAgent: VM type " + config.type_name +
                                  " is not in the trained universe");
  const auto benchmarks = wl::spec_subset();
  vm_ids_.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine_.hypervisor().create_vm(
        fleet[i],
        wl::make_spec_workload(benchmarks[(seed + i) % benchmarks.size()],
                               seed * 31 + i));
    machine_.hypervisor().start_vm(id);
    vm_ids_.push_back(id);
  }
}

void HostAgent::fast_forward_tick() { machine_.step(kPeriodS); }

HostTickResult HostAgent::sample(std::uint64_t tick,
                                 const FaultInjector& injector) {
  VMP_TRACE_SPAN("fleet.collect", "fleet");
  const auto start = std::chrono::steady_clock::now();
  HostTickResult result;
  result.host = host_id_;
  result.tick = tick;
  result.idle_power_w = machine_.idle_power_w();

  // The physical host keeps running whether or not the monitoring plane can
  // see it: the simulation always advances exactly one period per tick.
  const sim::MeterFrame frame = machine_.step(kPeriodS);
  // The true draw is always knowable in the simulator; record it even when
  // the *metering* path below degrades, so the fleet's efficiency-residual
  // invariant can compare billed φ against what the machine actually drew.
  result.measured_adjusted_w =
      sim::adjusted_power_w(frame.active_power_w, machine_.idle_power_w());

  const auto degrade = [&] {
    result.degraded = true;
    result.vms = last_vms_;
    result.phi = last_phi_;
    result.adjusted_power_w = last_adjusted_w_;
    ++degraded_ticks_;
  };

  if (dropout_remaining_ == 0 &&
      injector.fires(FaultInjector::Kind::kDropout, host_id_, tick))
    dropout_remaining_ = kDropoutTicks;
  if (dropout_remaining_ > 0) {
    --dropout_remaining_;
    degrade();
  } else {
    // Meter read with retry-with-backoff inside the tick. Attempt a is a
    // fresh roll: the transient clears as soon as one attempt succeeds.
    bool meter_ok = false;
    for (std::uint32_t attempt = 0; attempt <= options_.max_retries;
         ++attempt) {
      if (!injector.fires(FaultInjector::Kind::kMeter, host_id_, tick,
                          attempt)) {
        meter_ok = true;
        break;
      }
      if (attempt == options_.max_retries) break;  // budget exhausted.
      ++result.retries;
      if (options_.retry_backoff_base.count() > 0)
        std::this_thread::sleep_for(options_.retry_backoff_base * (1u << attempt));
    }

    if (!meter_ok) {
      degrade();
    } else {
      const double adjusted = result.measured_adjusted_w;
      result.stale = injector.fires(FaultInjector::Kind::kStale, host_id_,
                                    tick) &&
                     !last_vms_.empty();
      result.vms = result.stale ? last_vms_
                                : machine_.hypervisor().observations();
      result.adjusted_power_w = adjusted;
      if (!result.vms.empty()) {
        const auto est_start = std::chrono::steady_clock::now();
        result.phi = estimator_.estimate(result.vms, adjusted);
        result.estimate_seconds = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      est_start)
                                      .count();
        result.kernel = "typeset";
      }

      // Stale ticks are estimates against old telemetry; only a fully fresh
      // tick becomes the carry-forward baseline.
      if (!result.stale) {
        last_vms_ = result.vms;
        last_phi_ = result.phi;
        last_adjusted_w_ = adjusted;
      }
    }
  }

  result.step_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

void HostAgent::save_state(std::ostream& out) const {
  const auto precision = out.precision(17);
  out << "host " << host_id_ << ' ' << dropout_remaining_ << ' '
      << degraded_ticks_ << ' ' << last_adjusted_w_ << ' ' << last_vms_.size()
      << '\n';
  for (std::size_t i = 0; i < last_vms_.size(); ++i) {
    out << last_vms_[i].vm_id << ' '
        << static_cast<std::uint32_t>(last_vms_[i].type);
    for (const double v : last_vms_[i].state.values()) out << ' ' << v;
    out << ' ' << last_phi_[i] << '\n';
  }
  out.precision(precision);
}

HostAgent::CarryState HostAgent::parse_state(std::istream& in) const {
  CarryState state;
  std::string tag;
  std::uint32_t host = 0;
  long long count = 0;  // signed, so a damaged "-1" is named as written.
  if (!(in >> tag >> host >> state.dropout_remaining >> state.degraded_ticks >>
        state.last_adjusted_w >> count) ||
      tag != "host")
    throw std::runtime_error("HostAgent: malformed carry-state block");
  if (host != host_id_)
    throw std::runtime_error("HostAgent: carry-state host id mismatch");
  const std::string where = "HostAgent: host " + std::to_string(host_id_);
  // A carried row is billed on every stale or degraded tick that follows,
  // so each must name one of this host's VMs, with its type, in the
  // ascending id order observations() reports them.
  if (count < 0 || static_cast<std::size_t>(count) > vm_ids_.size())
    throw std::runtime_error(where + " carry-state count " +
                             std::to_string(count) + " is outside [0, " +
                             std::to_string(vm_ids_.size()) + "]");
  auto next = vm_ids_.begin();
  for (long long i = 0; i < count; ++i) {
    common::VmSample& vm = state.last_vms.emplace_back();
    double& phi = state.last_phi.emplace_back();
    if (!(in >> vm.vm_id >> vm.type))
      throw std::runtime_error("HostAgent: truncated carry-state row");
    next = std::find(next, vm_ids_.end(), vm.vm_id);
    if (next == vm_ids_.end())
      throw std::runtime_error(where + " carry-state row names VM " +
                               std::to_string(vm.vm_id) +
                               ", not one of its VMs in ascending order");
    const common::VmTypeId type =
        machine_.hypervisor().vm(*next).config().type_id;
    ++next;
    if (vm.type != type)
      throw std::runtime_error(where + " carry-state row gives VM " +
                               std::to_string(vm.vm_id) + " type " +
                               std::to_string(vm.type) + ", not its type " +
                               std::to_string(type));
    for (std::size_t c = 0; c < common::kNumComponents; ++c)
      if (!(in >> vm.state[static_cast<common::Component>(c)]))
        throw std::runtime_error("HostAgent: truncated carry-state row");
    if (!(in >> phi))
      throw std::runtime_error("HostAgent: truncated carry-state row");
  }
  return state;
}

void HostAgent::apply_state(CarryState state) {
  dropout_remaining_ = state.dropout_remaining;
  degraded_ticks_ = state.degraded_ticks;
  last_adjusted_w_ = state.last_adjusted_w;
  last_vms_ = std::move(state.last_vms);
  last_phi_ = std::move(state.last_phi);
}

}  // namespace vmp::fleet
