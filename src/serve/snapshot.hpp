// Immutable per-tick attribution snapshots and their bounded retention ring.
//
// The fleet engine's ledgers are mutable single-writer state; queries must
// never make the metering tick wait on a reader. SnapshotStore decouples the
// two: at the end of every tick the engine publishes one immutable Snapshot
// (per-VM instant power, cumulative energies, tenant roll-ups) by swapping a
// shared_ptr under a short mutex — readers copy the pointer and keep the
// snapshot alive for as long as they hold it, so the critical section is a
// pointer copy, never a payload copy. (libstdc++'s lock-free
// std::atomic<shared_ptr> is opaque to TSan, and at serving rates the brief
// lock measures identically.) A bounded ring retains the last N
// snapshots so window queries can difference cumulative energy between two
// consistent epochs; anything older is out of retention, by design (the
// durable-history story is a WAL, not an unbounded ring — see ROADMAP).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "fleet/engine.hpp"
#include "ledger/ledger.hpp"
#include "obs/invariants.hpp"

namespace vmp::serve {

/// A published snapshot is the ledger's record itself (ledger/format.hpp
/// owns the layout), so the ring and the ledger hold the same bytes by
/// construction and no layer converts between them.
using Snapshot = ledger::TickRecord;
using VmRecord = ledger::VmEntry;
using TenantRecord = ledger::TenantEntry;

/// Identity, kept only for pipebench/bench_pipeline.cpp, its one caller; it
/// goes with the next change to that benchmark.
[[nodiscard]] inline const ledger::TickRecord& to_record(
    const Snapshot& snapshot) noexcept {
  return snapshot;
}

class SnapshotStore {
 public:
  /// Retains the newest `retention` snapshots for window queries; throws
  /// std::invalid_argument on zero.
  explicit SnapshotStore(std::size_t retention = 512);

  /// Stamps the next epoch on `snapshot` and publishes it: the latest
  /// pointer is swapped and the ring evicts its oldest entry when full.
  /// Single writer (the engine thread); readers are never blocked by a
  /// publish beyond the ring's short critical section.
  void publish(Snapshot snapshot);

  /// Newest snapshot, or nullptr before the first publish.
  [[nodiscard]] std::shared_ptr<const Snapshot> latest() const;

  /// Newest retained snapshot with time_s <= t_s, or nullptr when t_s
  /// predates the retention window (or nothing is retained yet).
  [[nodiscard]] std::shared_ptr<const Snapshot> at_or_before(double t_s) const;

  /// Oldest retained snapshot (nullptr before the first publish). When this
  /// is still epoch 1, a window bound before it means "before accounting
  /// started" — a zero baseline — not "history evicted".
  [[nodiscard]] std::shared_ptr<const Snapshot> oldest() const;

  [[nodiscard]] std::size_t retention() const noexcept { return retention_; }
  [[nodiscard]] std::uint64_t published() const noexcept {
    return next_epoch_.load(std::memory_order_relaxed);
  }
  /// Snapshots evicted from the ring since construction.
  [[nodiscard]] std::uint64_t evictions() const {
    std::lock_guard lock(ring_mutex_);
    return evictions_;
  }

  /// Feeds ring occupancy/eviction samples into `monitor` on every publish
  /// (attach() wires the engine's monitor automatically); nullptr detaches.
  /// The monitor must outlive subsequent publishes.
  void set_monitor(obs::InvariantMonitor* monitor) noexcept {
    monitor_ = monitor;
  }

  /// Builds a snapshot from the engine's ledgers and this tick's results and
  /// publishes it. A VM with no φ this tick (its host degraded before any
  /// good estimate) carries its previous instant power; energies always come
  /// from the ledgers, which are authoritative.
  void publish_tick(const fleet::FleetEngine& engine, std::uint64_t tick,
                    const std::vector<fleet::HostTickResult>& results);

  /// Registers publish_tick as the engine's tick observer. The store must
  /// outlive the engine's run() calls.
  void attach(fleet::FleetEngine& engine);

  /// Appends every published snapshot to `log` (the durable tier under the
  /// ring); nullptr detaches. The append happens on the publish thread, so the
  /// single-writer contracts of both sides line up. The ledger must outlive
  /// subsequent publishes.
  void set_ledger(ledger::Ledger* log) noexcept { ledger_ = log; }
  [[nodiscard]] ledger::Ledger* ledger() const noexcept { return ledger_; }

  /// Refills the ring from the tail of `log` (newest `retention` records,
  /// keeping their epochs) and advances the epoch counter so the next
  /// publish continues the sequence. Returns how many snapshots were
  /// restored. Call before the first publish, e.g. right after a checkpoint
  /// restore, so historical window queries answer byte-identically.
  std::size_t restore_from_ledger(const ledger::Ledger& log);

 private:
  const std::size_t retention_;
  std::atomic<std::uint64_t> next_epoch_{0};
  obs::InvariantMonitor* monitor_ = nullptr;  ///< publish-thread only.
  ledger::Ledger* ledger_ = nullptr;          ///< publish-thread only.
  mutable std::mutex ring_mutex_;
  std::shared_ptr<const Snapshot> latest_;            ///< guarded by the ring mutex.
  std::deque<std::shared_ptr<const Snapshot>> ring_;  ///< time-ascending.
  std::uint64_t evictions_ = 0;                       ///< guarded by the ring mutex.
};

}  // namespace vmp::serve
