// Scatter-gather query frontend over fleet shards.
//
// One FederationFrontend fronts N independent fleets, each running its own
// metering engine, snapshot store, and serve::Server. It implements
// serve::QueryHandler, so the existing dispatcher/server/transport stack
// serves the federated tier over the exact same wire protocol a single
// fleet speaks — a client cannot tell (and need not care) whether "tenant 2
// energy over [10, 50]" was answered by one fleet or rolled up across five.
//
// The roll-up is licensed by the Shapley value's Additivity axiom: each
// shard's attribution game is independent (its own hosts, its own measured
// power), so a tenant's cross-fleet energy is exactly the sum of its
// per-fleet energies, and TOU cost — linear in per-segment energy — sums the
// same way. No approximation enters at this layer; the only thing federation
// can lose is *availability*, never correctness.
//
// Fan-out mechanics per query, all on the thread that calls execute():
//   * every shard admitted by the health tracker gets its request sent
//     first, over a ConnectionPool lease; then one poll() waits on every open
//     leg's socket and each answer is read as its socket becomes readable, so
//     the legs overlap without a thread of their own;
//   * each leg has its own deadline, measured from its send; the poll wakes
//     at the nearest deadline, pending hedge or pending retry;
//   * a reused lease that fails at once (the shard restarted while it
//     idled) is redialed and resent once before the attempt counts as failed;
//   * a failed attempt (timeout / transport error) is retried up to
//     `retries` times, retry k sent `backoff << (k-1)` after the attempt
//     before it failed;
//   * optionally, a hedged second request to a replica endpoint joins the
//     same poll `hedge_delay` after the primary's send, while the primary is
//     unanswered — first success wins, and the loser's connection is closed
//     (one pool eviction), since it is mid-request;
//   * consecutive-failure ejection takes a dead shard out of the hot path,
//     and periodic probes re-admit it when it answers again.
//
// Partial failure degrades instead of erroring: the roll-up of the shards
// that did answer is returned with complete=false and the missing fleet ids
// listed (Response::partial — status byte 2 on the wire, a trailing
// "missing=" token in text). Only when *no* shard answers does the client
// see an error (kUnavailable). Shards report their answers at their own
// snapshot epochs; the frontend rolls up at the *minimum* epoch and exports
// the spread, or rejects past `max_epoch_skew` when the policy demands
// bounded staleness (kEpochSkew).
//
// On every complete fan-out the frontend feeds the federated total and the
// shard-sum into InvariantMonitor::observe_federation — Additivity, watched
// at runtime rather than assumed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "federate/health.hpp"
#include "federate/pool.hpp"
#include "federate/shard_map.hpp"
#include "fleet/metrics.hpp"
#include "obs/invariants.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"

namespace vmp::federate {

/// What to do when shard snapshot epochs disagree on a fan-out.
enum class SkewPolicy : std::uint8_t {
  kAccept,  ///< roll up at the minimum epoch; export the spread (default).
  kReject,  ///< error kEpochSkew when the spread exceeds max_epoch_skew.
};

struct FrontendOptions {
  /// Per-shard, per-attempt deadline, measured from the attempt's send. Zero
  /// waits forever (not recommended — one hung shard then stalls every
  /// fan-out).
  std::chrono::milliseconds deadline{250};
  /// Additional attempts after the first failure, each against the primary
  /// endpoint over a connection leased from the pool. At most 32, the
  /// largest count whose doubled backoff is defined.
  std::uint32_t retries = 1;
  /// Retry k (1-based) is sent `backoff << (k-1)` after the attempt before
  /// it failed.
  std::chrono::milliseconds backoff{10};
  /// Send a hedged request to the shard's replica endpoint when the primary
  /// has not answered within hedge_delay of its send. No-op for shards
  /// without replicas.
  bool hedge = false;
  std::chrono::milliseconds hedge_delay{50};
  SkewPolicy skew_policy = SkewPolicy::kAccept;
  /// Largest tolerated (max - min) shard epoch spread under kReject.
  std::uint64_t max_epoch_skew = 1;
  /// Idle connections kept per shard endpoint.
  std::size_t max_idle_per_endpoint = 2;
  /// vmpower_fed_* instrumentation; optional.
  fleet::Metrics* metrics = nullptr;
  /// Additivity cross-check on complete fan-outs; optional.
  obs::InvariantMonitor* monitor = nullptr;

  /// Throws std::invalid_argument on a negative deadline/backoff/hedge
  /// delay or more than 32 retries.
  void validate() const;
};

class FederationFrontend : public serve::QueryHandler {
 public:
  /// Throws std::invalid_argument on an empty shard map or bad options.
  FederationFrontend(ShardMap map, FrontendOptions options = {});

  FederationFrontend(const FederationFrontend&) = delete;
  FederationFrontend& operator=(const FederationFrontend&) = delete;

  /// One federated query: scatter to every admitted shard, gather under the
  /// per-shard deadlines, roll up by Additivity. Runs every leg on the
  /// calling thread and starts none. Thread-safe.
  [[nodiscard]] serve::Response execute(const serve::Request& request) override;

  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }
  [[nodiscard]] ShardHealthTracker& health() noexcept { return health_; }
  /// The connection pool every shard leg leases from; never null.
  [[nodiscard]] ConnectionPool* pool() noexcept { return pool_.get(); }

 private:
  /// Result of one shard's fan-out leg. `answered` is transport-level:
  /// false means every attempt (retries and hedge included) timed out or
  /// failed to connect, and the shard goes in the missing list.
  struct ShardResult {
    std::uint32_t fleet = 0;
    bool answered = false;
    serve::Response response;  ///< valid only when answered.
  };

  /// One query's legs in flight (frontend.cpp).
  class Fanout;

  /// Additivity roll-up of the gathered legs.
  [[nodiscard]] serve::Response gather(const serve::Request& request,
                                       std::vector<ShardResult> results,
                                       std::vector<std::uint32_t> skipped);

  ShardMap map_;
  FrontendOptions options_;
  ShardHealthTracker health_;
  std::unique_ptr<ConnectionPool> pool_;
  /// Request ids stamped on traced shard requests (correlation only; unique
  /// per frontend, not globally).
  std::atomic<std::uint64_t> next_request_id_{0};

  /// One shard's labeled counters, resolved on the shard's first leg (and
  /// first failure), so a scrape shows a shard's series only once it was
  /// queried (or failed). Indexed like map_.shards().
  struct ShardInstruments {
    std::atomic<fleet::Counter*> attempts{nullptr};
    std::atomic<fleet::Counter*> failures{nullptr};
  };
  std::vector<ShardInstruments> shard_instruments_;

  // Hot-path instruments, resolved once (null without metrics).
  fleet::Counter* fanouts_ = nullptr;
  fleet::Counter* partials_ = nullptr;
  fleet::Counter* unavailable_ = nullptr;
  fleet::Counter* retries_counter_ = nullptr;
  fleet::Counter* hedges_ = nullptr;
  fleet::Counter* hedge_wins_ = nullptr;
  fleet::Gauge* skew_gauge_ = nullptr;
  fleet::HistogramMetric* fanout_latency_ = nullptr;
};

}  // namespace vmp::federate
