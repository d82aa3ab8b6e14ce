#include "fleet/host_agent.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "workload/spec_suite.hpp"

namespace vmp::fleet {

HostAgent::HostAgent(std::uint32_t host_id, const sim::MachineSpec& spec,
                     const std::vector<common::VmConfig>& fleet,
                     const core::OfflineDataset& dataset, std::uint64_t seed,
                     HostAgentOptions options)
    : host_id_(host_id), options_(options), machine_(spec, seed),
      // The full Fig. 8 online path: lookup-first against the offline
      // v(S, C) table, approximation for unobserved states. Each lookup is
      // one hash probe into the table's quantized-cell index.
      estimator_(dataset.universe, dataset.approximation, dataset.table) {
  // Per-host draw decorrelation for the sampled tier: hosts share one fleet
  // seed knob but must not share coalition samples. Every core solver runs
  // on the calling thread, so the engine's pool, one task per host, is the
  // fleet's only parallelism.
  core::SampledKernelConfig kernel = options_.kernel;
  kernel.sampling.seed += 0x9e3779b97f4a7c15ULL * seed;
  estimator_.set_sampled_kernel(kernel);

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

void HostAgent::fast_forward_tick() { machine_.step(options_.period_s); }

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
  const sim::MeterFrame frame = machine_.step(options_.period_s);
  // The true draw is always knowable in the simulator; record it even when
  // the *metering* path below degrades, so the fleet's efficiency-residual
  // invariant can compare billed φ against what the machine actually drew.
  result.measured_adjusted_w =
      std::max(0.0, frame.active_power_w - machine_.idle_power_w());

  const auto degrade = [&] {
    result.degraded = true;
    result.vms = last_vms_;
    result.phi = last_phi_;
    result.adjusted_power_w = last_adjusted_w_;
    ++degraded_ticks_;
  };

  if (dropout_remaining_ == 0 &&
      injector.fires(FaultInjector::Kind::kDropout, host_id_, tick))
    dropout_remaining_ = options_.dropout_ticks;
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
      std::vector<core::VmSample> fresh;
      for (const sim::VmObservation& obs :
           machine_.hypervisor().observations())
        fresh.push_back({obs.id, obs.type_id, obs.state});

      result.stale = injector.fires(FaultInjector::Kind::kStale, host_id_,
                                    tick) &&
                     !last_vms_.empty();
      result.vms = result.stale ? last_vms_ : fresh;
      result.adjusted_power_w = adjusted;
      if (!result.vms.empty()) {
        const auto est_start = std::chrono::steady_clock::now();
        result.phi = estimator_.estimate(result.vms, adjusted);
        result.estimate_seconds = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      est_start)
                                      .count();
        result.kernel = estimator_.last_kernel();
        if (result.kernel == "sampled") {
          const core::SampledTickStats& stats = estimator_.last_sampled();
          result.sampled_max_halfwidth_w = stats.max_halfwidth_w;
          result.sampled_sum_halfwidth_w = stats.sum_halfwidth_w;
          result.sampled_gap_w = stats.efficiency_gap_w;
          result.sampled_evals = stats.worth_evaluations;
          result.sampled_stop = stats.stopped_by;
        }
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

  result.table_hit_rate = estimator_.table_hit_rate();
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

void HostAgent::load_state(std::istream& in) {
  std::string tag;
  std::uint32_t host = 0;
  std::size_t count = 0;
  if (!(in >> tag >> host >> dropout_remaining_ >> degraded_ticks_ >>
        last_adjusted_w_ >> count) ||
      tag != "host")
    throw std::runtime_error("HostAgent: malformed carry-state block");
  if (host != host_id_)
    throw std::runtime_error("HostAgent: carry-state host id mismatch");
  last_vms_.assign(count, {});
  last_phi_.assign(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t type = 0;
    if (!(in >> last_vms_[i].vm_id >> type))
      throw std::runtime_error("HostAgent: truncated carry-state row");
    last_vms_[i].type = static_cast<common::VmTypeId>(type);
    for (std::size_t c = 0; c < common::kNumComponents; ++c) {
      double v = 0.0;
      if (!(in >> v))
        throw std::runtime_error("HostAgent: truncated carry-state row");
      last_vms_[i].state[static_cast<common::Component>(c)] = v;
    }
    if (!(in >> last_phi_[i]))
      throw std::runtime_error("HostAgent: truncated carry-state row");
  }
}

}  // namespace vmp::fleet
