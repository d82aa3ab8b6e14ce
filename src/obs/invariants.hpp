// Runtime invariant monitors: the paper's accountability claims, watched
// continuously in the serving stack instead of proven once offline.
//
// The headline property — Efficiency (Σφᵢ equals measured adjusted power,
// Fig. 11) — degrades silently in production: a fault-injected meter bills
// from carried estimates. Each monitor turns one such property into a
// gauge/counter, most with a warn threshold; a breach emits a
// structured key=value log event stamped with the tick epoch so dashboards
// and logs correlate on the same axis, and is counted in
// vmpower_invariant_breaches_total{invariant="..."}.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace vmp::obs {

struct InvariantOptions {
  /// Warn when the per-tick fleet efficiency residual Σ_h |Σφ − measured|
  /// exceeds this many watts. Fault-free ticks sit at floating-point noise
  /// (~1e-13 W); any real breach means power was billed that no meter saw.
  double efficiency_residual_warn_w = 1e-3;
  /// Minimum epochs between two warn logs of the same invariant, so a
  /// persistent breach cannot flood the sink (the breach counter still
  /// counts every occurrence).
  std::uint64_t warn_log_interval = 16;
};

/// Feeds invariant samples into a MetricsRegistry and emits structured warn
/// events on threshold breaches. Observations for one invariant must come
/// from one thread (the engine tick / publish path does); the exported
/// instruments are as thread-safe as the registry.
class InvariantMonitor {
 public:
  explicit InvariantMonitor(MetricsRegistry& registry,
                            InvariantOptions options = {});

  /// Per-tick fleet efficiency residual (W), stamped with the tick epoch.
  void observe_efficiency(std::uint64_t epoch, double residual_w);

  /// Snapshot-ring state from the store's publish path.
  void observe_ring(std::uint64_t epoch, std::uint64_t occupancy,
                    std::uint64_t retention, std::uint64_t evictions_total);

  /// Serve-layer exactly-once response accounting (Server::admitted() /
  /// answered() / outstanding()): every request read off a connection —
  /// sheds, ordered holds and out-of-order completions alike — must produce
  /// exactly one response. Any response surplus, or a deficit while nothing
  /// is in flight, means a request id was answered twice or dropped. A
  /// deficit *with* outstanding work is normal pipelining and only exported,
  /// never warned.
  void observe_serve_accounting(std::uint64_t epoch, std::uint64_t admitted,
                                std::uint64_t answered,
                                std::uint64_t outstanding);

  /// Durable-ledger tail freshness, sampled on the publish path right after
  /// the snapshot's record is appended. The ledger append happens on the
  /// same thread as the publish, so any lag (snapshot_epoch != tail_epoch)
  /// means an append was skipped or failed — durable history has a hole.
  void observe_ledger(std::uint64_t snapshot_epoch,
                      std::uint64_t ledger_tail_epoch);

  /// Checkpoint-restore cross-check: the energies replayed from the ledger
  /// record at the checkpointed epoch must equal the restored accountant's
  /// totals bit-for-bit (both came from the same deterministic history). A
  /// mismatch means the ledger and the checkpoint diverged.
  void observe_ledger_replay(std::uint64_t epoch, double replayed_total_j,
                             double accountant_total_j);

  /// Federation Additivity cross-check: on a fault-free fan-out (every shard
  /// answered) the federated total must equal the sum of the shard answers
  /// exactly — the roll-up is pure IEEE summation of the shard doubles, so
  /// any residual at all means a shard was double-counted or dropped. Only
  /// call with `complete` fan-outs; partial results legitimately under-count
  /// and are tracked by the frontend's own vmpower_fed_partial_total.
  void observe_federation(std::uint64_t epoch, double federated_total,
                          double shard_sum_total, std::uint64_t shards);

  /// Total threshold breaches across all invariants (the sum of the
  /// vmpower_invariant_breaches_total series).
  [[nodiscard]] std::uint64_t breaches() const noexcept;

 private:
  enum Which : std::size_t {
    kEfficiency = 0,
    kRing,
    kServeAccounting,
    kLedgerTail,
    kLedgerReplay,
    kFederation,
    kWhichCount,
  };

  /// Counts the breach and, rate-limited per invariant, logs one structured
  /// event: "invariant=<name> epoch=<e> <detail>".
  void breach(Which which, const char* invariant, std::uint64_t epoch,
              const std::string& detail);

  MetricsRegistry& registry_;
  InvariantOptions options_;

  struct Throttle {
    bool warned = false;
    std::uint64_t last_epoch = 0;
  };
  Throttle throttle_[kWhichCount];
};

}  // namespace vmp::obs
