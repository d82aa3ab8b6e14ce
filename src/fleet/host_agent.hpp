// One fleet host's metering worker: simulator + estimator + fault handling.
//
// A HostAgent owns everything host-local — the simulated PhysicalMachine,
// its ShapleyVhcEstimator, and the carry-forward state used for graceful
// degradation — so the engine can run one agent per pool task with no shared
// mutable state between hosts. Faults follow the engine contract: a meter
// failure is retried with exponential backoff within the tick; an
// unrecoverable tick (retries exhausted, or the host in dropout) is served
// from the last good estimate and *flagged*, never silently zeroed; stale
// telemetry re-estimates from the previous tick's VM states against the
// current measurement.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "fleet/faults.hpp"
#include "sim/physical_machine.hpp"

namespace vmp::fleet {

/// What one host produced for one tick; written into the host's result slot
/// and read by the engine after the tick barrier.
struct HostTickResult {
  std::uint32_t host = 0;
  std::uint64_t tick = 0;
  std::vector<core::VmSample> vms;  ///< telemetry the estimate used.
  std::vector<double> phi;          ///< per-VM watts, parallel to vms.
  double adjusted_power_w = 0.0;    ///< what billing used (carried if degraded).
  /// The simulator's true adjusted draw this tick, knowable even when the
  /// metering path degraded. The fleet's efficiency-residual invariant is
  /// |Σφ − measured|: ~0 on fresh ticks (the estimator anchors to the
  /// measurement), genuinely nonzero when faults forced billing from a
  /// carried estimate.
  double measured_adjusted_w = 0.0;
  double idle_power_w = 0.0;
  bool degraded = false;  ///< served from the last good estimate.
  bool stale = false;     ///< estimated from previous-tick telemetry.
  std::uint32_t retries = 0;
  double step_seconds = 0.0;  ///< wall time of the host's step (metrics only).
  /// Wall time of the estimator call alone (0 on degraded/empty ticks);
  /// feeds the fleet's estimator-latency histogram.
  double estimate_seconds = 0.0;
  /// Cumulative estimator table hit rate after this tick (0 without a
  /// table); exported as a per-host gauge.
  double table_hit_rate = 0.0;
  /// Estimator kernel the tick dispatched to ("collapsed"/"sweep"/
  /// "sampled", always a literal; empty when no estimate ran).
  /// Feeds the fleet's fast-path selection counters.
  std::string_view kernel;
  // Sampled-tier diagnostics, populated only when kernel == "sampled"
  // (sampled_stop is empty otherwise): CI half-widths, the
  // pre-normalization efficiency gap the invariant monitor checks against
  // the CI, and the tick's worth-evaluation count.
  double sampled_max_halfwidth_w = 0.0;
  double sampled_sum_halfwidth_w = 0.0;
  double sampled_gap_w = 0.0;
  std::size_t sampled_evals = 0;
  std::string_view sampled_stop;  ///< stop-rule literal, e.g. "max_samples".
};

struct HostAgentOptions {
  double period_s = 1.0;
  std::uint32_t max_retries = 3;
  /// First retry sleeps this long, doubling per attempt (0 disables
  /// sleeping; the retry accounting is unaffected).
  std::chrono::microseconds retry_backoff_base{100};
  std::uint64_t dropout_ticks = 3;  ///< monitoring blackout length.
  /// Kernel selection + sampled-tier options for the host's estimator. The
  /// agent mixes its host seed into sampling.seed so hosts draw distinct
  /// coalition streams from one fleet seed.
  core::SampledKernelConfig kernel;
};

class HostAgent {
 public:
  /// Boots `fleet` on a fresh machine; VM v runs a SPEC-like workload chosen
  /// deterministically from (seed, v). The trained dataset is copied so
  /// agents share no state.
  HostAgent(std::uint32_t host_id, const sim::MachineSpec& spec,
            const std::vector<common::VmConfig>& fleet,
            const core::OfflineDataset& dataset, std::uint64_t seed,
            HostAgentOptions options);

  /// Advances the host one sampling period and returns the tick's result,
  /// applying the injector's fault schedule. Not thread-safe; the engine
  /// guarantees one in-flight call per agent.
  HostTickResult sample(std::uint64_t tick, const FaultInjector& injector);

  /// Advances the simulation one period with no estimation — checkpoint
  /// restore fast-forwards through already-billed ticks with this.
  void fast_forward_tick();

  [[nodiscard]] std::uint32_t host_id() const noexcept { return host_id_; }
  /// Ids of the VMs booted on this host, in creation order.
  [[nodiscard]] const std::vector<sim::VmId>& vm_ids() const noexcept {
    return vm_ids_;
  }
  [[nodiscard]] std::uint64_t degraded_ticks() const noexcept {
    return degraded_ticks_;
  }

  /// Writes the carry-forward/fault state (one text block) so a restored
  /// engine resumes the exact degradation trajectory, faults included.
  void save_state(std::ostream& out) const;
  /// Reads a block written by save_state; throws std::runtime_error on
  /// malformed input or a host id mismatch.
  void load_state(std::istream& in);

 private:
  std::uint32_t host_id_;
  HostAgentOptions options_;
  sim::PhysicalMachine machine_;
  core::ShapleyVhcEstimator estimator_;
  std::vector<sim::VmId> vm_ids_;

  // Carry-forward state for degradation and staleness.
  std::vector<core::VmSample> last_vms_;
  std::vector<double> last_phi_;
  double last_adjusted_w_ = 0.0;
  std::uint64_t dropout_remaining_ = 0;
  std::uint64_t degraded_ticks_ = 0;
};

}  // namespace vmp::fleet
