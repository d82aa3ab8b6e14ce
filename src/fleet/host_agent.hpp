// One host's metering step, the online path of Fig. 8: simulator +
// estimator + fault handling. The fleet engine runs one agent per host, and
// `vmpower meter`/`bill` run one under an injector that never fires.
//
// A HostAgent owns everything host-local — the simulated PhysicalMachine,
// its ShapleyVhcEstimator, and the carry-forward state used for graceful
// degradation — so any of the engine's metering threads can step any agent
// with no shared mutable state between hosts. Faults follow the engine contract: a meter
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

#include "core/estimator.hpp"
#include "fleet/faults.hpp"
#include "sim/physical_machine.hpp"

namespace vmp::fleet {

/// What one host produced for one tick; written into the host's result slot
/// and read by the engine after the tick barrier.
struct HostTickResult {
  std::uint32_t host = 0;
  std::uint64_t tick = 0;
  std::vector<common::VmSample> vms;  ///< telemetry the estimate used.
  std::vector<double> phi;            ///< per-VM watts, parallel to vms.
  double adjusted_power_w = 0.0;      ///< what billing used (carried if degraded).
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
  /// Always 0: no worth is looked up in the v(S, C) table online. Kept only
  /// because the pipeline benchmark reads it, until the next benchmark
  /// change deletes it (ROADMAP item 7).
  double table_hit_rate = 0.0;
  /// "typeset" on every tick that ran an estimate, empty otherwise. Kept
  /// only because the pipeline benchmark reads it, until the next benchmark
  /// change deletes it (ROADMAP item 7).
  std::string_view kernel;
};

/// Simulated seconds per sample(): Fig. 8's 1 Hz meter period.
inline constexpr double kPeriodS = 1.0;
/// Ticks a fired dropout fault keeps the host's monitoring plane dark.
inline constexpr std::uint64_t kDropoutTicks = 3;

struct HostAgentOptions {
  std::uint32_t max_retries = 3;
  /// First retry sleeps this long, doubling per attempt (0 disables
  /// sleeping; the retry accounting is unaffected).
  std::chrono::microseconds retry_backoff_base{100};
};

class HostAgent {
 public:
  /// Boots `fleet` on a fresh machine; VM v runs a SPEC-like workload chosen
  /// deterministically from (seed, v). The universe and the trained
  /// approximation are copied so agents share no state. Throws
  /// std::invalid_argument naming the first VM type `universe` lacks.
  HostAgent(std::uint32_t host_id, const sim::MachineSpec& spec,
            const std::vector<common::VmConfig>& fleet,
            const core::VhcUniverse& universe,
            const core::VhcLinearApprox& approximation, std::uint64_t seed,
            HostAgentOptions options = {});

  /// Advances the host one sampling period and returns the tick's result,
  /// applying the injector's fault schedule. Not thread-safe; the engine
  /// guarantees one in-flight call per agent.
  HostTickResult sample(std::uint64_t tick, const FaultInjector& injector);

  /// Advances the simulation one period with no estimation — checkpoint
  /// restore fast-forwards through already-billed ticks with this.
  void fast_forward_tick();

  /// Ids of the VMs booted on this host, in creation order.
  [[nodiscard]] const std::vector<sim::VmId>& vm_ids() const noexcept {
    return vm_ids_;
  }
  [[nodiscard]] std::uint64_t degraded_ticks() const noexcept {
    return degraded_ticks_;
  }

  /// The carry-forward/fault state a checkpoint holds for one host.
  struct CarryState {
    std::uint64_t dropout_remaining = 0;
    std::uint64_t degraded_ticks = 0;
    double last_adjusted_w = 0.0;
    std::vector<common::VmSample> last_vms;
    std::vector<double> last_phi;
  };

  /// Writes the carry-forward/fault state (one text block) so a restored
  /// engine resumes the exact degradation trajectory, faults included.
  void save_state(std::ostream& out) const;
  /// Reads a block written by save_state without applying it; throws
  /// std::runtime_error on malformed input, a host id mismatch, or a carried
  /// row that is not one of this host's VMs with its type, in ascending id
  /// order.
  [[nodiscard]] CarryState parse_state(std::istream& in) const;
  /// Replaces the carry-forward/fault state with one parse_state returned.
  void apply_state(CarryState state);

 private:
  std::uint32_t host_id_;
  HostAgentOptions options_;
  sim::PhysicalMachine machine_;
  core::ShapleyVhcEstimator estimator_;
  std::vector<sim::VmId> vm_ids_;

  // Carry-forward state for degradation and staleness.
  std::vector<common::VmSample> last_vms_;
  std::vector<double> last_phi_;
  double last_adjusted_w_ = 0.0;
  std::uint64_t dropout_remaining_ = 0;
  std::uint64_t degraded_ticks_ = 0;
};

}  // namespace vmp::fleet
