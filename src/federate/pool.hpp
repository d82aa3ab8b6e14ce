// Per-endpoint cache of live serve::Client connections.
//
// Dialing a fresh TCP connection per shard per attempt would make connection
// setup — not Shapley math — the dominant cost of an 8-shard fan-out, so the
// federation frontend leases its shard connections from here. The pool
// keeps a bounded number of idle connections per endpoint (loopback-only,
// so an endpoint is just a port) and hands them out as Leases:
//
//   * checkout() reuses an idle connection (hit) or dials a new one (miss)
//     and re-arms its deadline only when it changed; a connection out on a
//     lease is off the idle list, so a shard's primary and hedge legs, open
//     in one fan-out at once, never share a socket;
//   * checkin() parks a healthy connection for the next query, evicting when
//     the endpoint's idle list is full;
//   * discard() drops a connection whose state is no longer trustworthy —
//     after a timeout the socket may be mid-message (see
//     serve::Client::set_timeout), and so is a hedge loser's when the other
//     leg answered first, so neither is ever reused;
//   * reconnect() handles the stale-socket case: a pooled connection whose
//     peer restarted fails its first send/recv with EOF/ECONNRESET. The
//     caller swaps the stale lease for a fresh connection and retries once
//     before letting the failure count toward health ejection. Every idle
//     connection to that endpoint predates the same restart, so the whole
//     idle list is flushed along with the stale lease.
//
// Counted exactly once per event: vmpower_fed_pool_hits_total,
// _misses_total, _reconnects_total, _evictions_total (evictions cover both
// idle-bound overflow and discarded/stale connections — every pooled socket
// that is closed rather than parked).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fleet/metrics.hpp"
#include "serve/client.hpp"

namespace vmp::federate {

struct PoolOptions {
  /// Idle connections kept per endpoint. Checked-out connections are not
  /// bounded — the bound is on what waits around between queries.
  std::size_t max_idle_per_endpoint = 2;
  /// vmpower_fed_pool_* instrumentation; optional.
  fleet::Metrics* metrics = nullptr;
};

class ConnectionPool {
 public:
  /// A checked-out connection. Exactly one of checkin / discard / reconnect
  /// must consume it; letting it die closes the connection silently (safe,
  /// but uncounted).
  struct Lease {
    std::unique_ptr<serve::Client> client;
    std::uint16_t port = 0;
    /// True when the connection came from the idle cache — it may have
    /// gone stale while parked, so its first failure warrants reconnect()
    /// rather than an immediate verdict against the shard.
    bool reused = false;
  };

  explicit ConnectionPool(PoolOptions options = {});

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// An idle connection to `port`, or a freshly dialed one. Applies
  /// `timeout` (serve::Client::set_timeout, which skips an unchanged
  /// deadline) either way. Throws
  /// std::runtime_error when a fresh connection cannot be established.
  [[nodiscard]] Lease checkout(std::uint16_t port,
                               std::chrono::milliseconds timeout);

  /// Returns a healthy connection to the idle cache (or evicts it when the
  /// endpoint's idle list is full).
  void checkin(Lease lease);

  /// Closes a connection that must not be reused (post-timeout sockets are
  /// mid-message indeterminate; fresh connections that failed outright).
  void discard(Lease lease);

  /// Swaps a stale reused lease for a fresh connection to the same
  /// endpoint, flushing every idle connection to it (they all predate the
  /// same restart). Counts a reconnect, not a miss. Throws
  /// std::runtime_error when the endpoint stays unreachable.
  [[nodiscard]] Lease reconnect(Lease stale, std::chrono::milliseconds timeout);

  /// Idle connections currently parked for `port` (tests / introspection).
  [[nodiscard]] std::size_t idle(std::uint16_t port) const;

  // Exact-once event counts, independent of the metrics wiring.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] Lease dial(std::uint16_t port,
                           std::chrono::milliseconds timeout);
  void count_eviction(std::uint64_t n);

  PoolOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint16_t,
                     std::vector<std::unique_ptr<serve::Client>>>
      idle_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> evictions_{0};
  fleet::Counter* hits_counter_ = nullptr;
  fleet::Counter* misses_counter_ = nullptr;
  fleet::Counter* reconnects_counter_ = nullptr;
  fleet::Counter* evictions_counter_ = nullptr;
};

}  // namespace vmp::federate
