// FleetEngine: concurrent multi-host metering with tenant roll-up,
// observability, fault tolerance, and checkpoint/restore.
//
// The Shapley value's Additivity axiom (paper Sec. IV-C) makes the per-host
// disaggregation games independent, so a fleet of N hosts is embarrassingly
// parallel: each tick the engine fans one HostAgent task per host onto its
// ThreadPool, each task writes its HostTickResult into that host's result
// slot, and the tick is one barrier — the engine waits for the pool to go
// idle, then aggregates the slots on its own thread *in host-id order*. That
// is why the tenant ledgers are byte-identical to a serial run at any thread
// count, and why no host-tick is ever dropped.
//
// Fault tolerance (see fleet/faults.hpp and fleet/host_agent.hpp): degraded
// host-ticks are billed at the host's last good estimate and flagged in the
// metrics — an unmonitored host keeps drawing power, so carrying the
// estimate is strictly more honest than zeroing it. Checkpoints persist the
// engine's tick plus every accountant through core::serialization; restore
// fast-forwards the deterministic simulators through already-billed ticks so
// a resumed engine never double-counts a joule.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "core/accountant.hpp"
#include "core/collector.hpp"
#include "core/multi_host.hpp"
#include "fleet/faults.hpp"
#include "fleet/host_agent.hpp"
#include "fleet/metrics.hpp"
#include "util/thread_pool.hpp"
#include "obs/invariants.hpp"
#include "sim/machine_spec.hpp"

namespace vmp::fleet {

struct FleetOptions {
  std::size_t hosts = 4;
  std::size_t threads = 2;
  /// Every host boots this fleet (VM v on host h belongs to tenant
  /// v % tenants + 1).
  std::vector<common::VmConfig> fleet_per_host;
  std::size_t tenants = 3;
  sim::MachineSpec spec = sim::xeon_prototype();
  double period_s = 1.0;
  std::uint64_t seed = 1;
  core::IdleAttribution idle_policy = core::IdleAttribution::kNone;

  FaultSpec faults;
  std::uint32_t max_retries = 3;
  std::chrono::microseconds retry_backoff_base{100};
  std::uint64_t dropout_ticks = 3;

  /// Warn thresholds for the runtime invariant monitors.
  obs::InvariantOptions invariants;

  /// Throws std::invalid_argument on zero hosts/threads/tenants, an empty
  /// fleet, a non-positive period, or max_retries above 32.
  void validate() const;
};

class FleetEngine {
 public:
  /// Boots `options.hosts` agents sharing the trained `dataset` artifacts
  /// (host h is seeded with seed + h, so hosts are distinct but the whole
  /// fleet is reproducible from one seed).
  FleetEngine(FleetOptions options, const core::OfflineDataset& dataset);

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Advances the whole fleet by `ticks` sampling periods.
  void run(std::uint64_t ticks);

  /// Called on the engine thread at the end of every tick, after the ledgers
  /// were updated, with one result per host in host-id order. The ledgers
  /// are safe to read from inside the callback (same thread); this is how
  /// serve::SnapshotStore publishes immutable query snapshots without ever
  /// blocking the metering loop on readers.
  using TickObserver = std::function<void(
      const FleetEngine&, std::uint64_t tick,
      const std::vector<HostTickResult>& results)>;
  void set_tick_observer(TickObserver observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] std::uint64_t tick() const noexcept { return tick_; }
  [[nodiscard]] const FleetOptions& options() const noexcept {
    return options_;
  }

  /// Cross-host tenant ledger (the Additivity roll-up).
  [[nodiscard]] const core::MultiHostAccountant& tenant_ledger()
      const noexcept {
    return tenants_;
  }
  /// Per-host VM-level energy ledger.
  [[nodiscard]] const core::EnergyAccountant& host_ledger(
      std::size_t host) const {
    return *host_ledgers_.at(host);
  }

  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// The runtime invariant monitors feeding metrics() (efficiency residual
  /// — see obs/invariants.hpp). The mutable overload lets
  /// co-located components (the serve snapshot store) feed their own
  /// invariant samples into the same monitor.
  [[nodiscard]] obs::InvariantMonitor& invariants() noexcept {
    return monitor_;
  }
  [[nodiscard]] const obs::InvariantMonitor& invariants() const noexcept {
    return monitor_;
  }
  /// Most recent per-tick fleet efficiency residual Σ_h |Σφ − measured| (W).
  [[nodiscard]] double efficiency_residual_w() const noexcept {
    return last_residual_w_;
  }

  /// Aggregated fault tallies (also exported via metrics()).
  [[nodiscard]] std::uint64_t samples_processed() const noexcept {
    return processed_;
  }
  /// The drop count carried in by a restored checkpoint's drops= field. The
  /// tick barrier itself never drops a host-tick, so this only changes on
  /// restore_checkpoint.
  [[nodiscard]] std::uint64_t samples_dropped() const noexcept {
    return dropped_base_;
  }
  [[nodiscard]] std::uint64_t degraded_ticks() const noexcept {
    return degraded_;
  }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t stale_ticks() const noexcept { return stale_; }

  /// Persists tick + all ledgers; throws std::runtime_error on I/O failure.
  void save_checkpoint(const std::filesystem::path& path) const;

  /// Restores a checkpoint written by save_checkpoint into this engine.
  /// Must be called before any run(); the configuration (host count, fleet,
  /// seed) must match the checkpointed engine's, host count is verified.
  /// Fast-forwards every host's simulator through the checkpointed ticks so
  /// subsequent run() calls continue exactly where the saved engine stopped.
  /// Throws std::runtime_error on malformed input or std::logic_error when
  /// the engine already advanced.
  void restore_checkpoint(const std::filesystem::path& path);

 private:
  void aggregate(const HostTickResult& result);

  FleetOptions options_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<HostAgent>> agents_;
  std::vector<std::unique_ptr<core::EnergyAccountant>> host_ledgers_;
  core::MultiHostAccountant tenants_;
  /// One result slot per host, written by that host's task and read by the
  /// engine after the tick barrier. Declared before pool_, so the pool
  /// drains before the slots are destroyed.
  std::vector<HostTickResult> results_;
  util::ThreadPool pool_;
  Metrics metrics_;
  obs::InvariantMonitor monitor_;  ///< must follow metrics_ (init order).
  TickObserver observer_;

  double last_residual_w_ = 0.0;
  std::uint64_t tick_ = 0;
  std::uint64_t dropped_base_ = 0;  ///< drops carried in from a checkpoint.
  std::uint64_t processed_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t stale_ = 0;
};

}  // namespace vmp::fleet
