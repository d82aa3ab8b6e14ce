// Query evaluation over snapshots, fronted by a sharded epoch-keyed LRU
// cache with in-flight coalescing.
//
// Point queries read the latest snapshot; window queries difference
// cumulative energy between the two retained snapshots bracketing [t0, t1]
// (step semantics: the newest snapshot at-or-before each bound), so a window
// always sees one consistent epoch pair even while the engine keeps
// publishing. A window bound that slid out of the ring falls through to the
// store's durable ledger (when one is attached): the ledger record carries
// the same cumulative energies bit-for-bit, so a cold answer is
// byte-identical to the ring answer it replaces. Only a bound older than the
// ledger's own oldest record is kOutOfHistory; both window errors carry the
// oldest still-answerable epoch in Response::detail so clients can clamp. Cost queries split the window along the time-of-use schedule's
// rate boundaries and difference energy per segment — the segment energies
// telescope to the window total, so the TOU bill prices *when* the energy
// was drawn without ever inventing or losing a joule.
//
// The result cache is keyed by (canonical query, resolved epoch(s)): a new
// publish changes the latest epoch, which invalidates point-query entries by
// construction, while window entries stay valid because their epoch pair —
// and therefore their answer — is unchanged. Window queries carry a second,
// fast key bound to the latest epoch: against an unchanged store the same
// window resolves to the same pair, so repeat hits skip the retention-ring
// searches entirely and only the first hit after a publish re-resolves.
// Capacity 0 disables caching.
//
// Two concurrency multipliers sit on the miss path:
//
//  * Sharding: keys hash to one of `cache_shards` independent shards, each
//    with its own mutex + LRU, so a worker pool stops serializing on a
//    single cache lock. Capacity splits evenly across shards (rounded up),
//    which makes eviction per-shard LRU, not global LRU — workloads that
//    assert exact global eviction order should configure one shard.
//
//  * Coalescing: a query whose cache key matches a computation already in
//    flight attaches to it instead of re-evaluating. Followers receive the
//    leader's Response through the shared in-flight slot — never by
//    re-reading the cache — so an entry evicted between the leader's insert
//    and a follower's wakeup cannot cost the follower its answer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pricing.hpp"
#include "fleet/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"

namespace vmp::serve {

/// Anything that can answer a Request. The dispatcher, server, and
/// in-process transport are written against this interface, so the same
/// wire protocol fronts a single-fleet QueryEngine and the multi-fleet
/// federate::FederationFrontend alike.
class QueryHandler {
 public:
  virtual ~QueryHandler() = default;

  /// Executes one request; never throws on malformed queries — every failure
  /// is an error Response. Must be thread-safe (server workers call it
  /// concurrently).
  [[nodiscard]] virtual Response execute(const Request& request) = 0;
};

struct QueryEngineOptions {
  std::size_t cache_capacity = 1024;  ///< total across shards; 0 disables.
  /// Result-cache shard count, clamped to >= 1. Each shard holds
  /// ceil(capacity / shards) entries behind its own lock.
  std::size_t cache_shards = 8;
  /// Attach identical in-flight queries to the running computation instead
  /// of re-evaluating (effective even at capacity 0).
  bool coalesce = true;
  /// Tariff for kTenantCost; the default is flat at the Table I US rate.
  core::TouRateSchedule tou{};
  /// When set, cache hits/misses/evictions, per-shard lookup outcomes and
  /// coalesced attachments are exported as counters.
  fleet::Metrics* metrics = nullptr;
  /// Test hook: runs on the computing (leader) thread after it has claimed
  /// the in-flight slot and before it evaluates, so tests can hold a
  /// computation open while followers attach. Null in production.
  std::function<void()> coalesce_hold;
};

class QueryEngine : public QueryHandler {
 public:
  /// Validates the TOU schedule (throws std::invalid_argument). The store
  /// must outlive the engine.
  QueryEngine(const SnapshotStore& store, QueryEngineOptions options = {});

  /// Executes one request; never throws on malformed queries — every failure
  /// is an error Response. Thread-safe.
  [[nodiscard]] Response execute(const Request& request) override;

  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Queries that attached to an identical in-flight computation. Counted as
  /// neither hit nor miss, so cache_misses() == evaluations actually run.
  [[nodiscard]] std::uint64_t coalesced() const noexcept {
    return coalesced_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

 private:
  /// One computation in flight. Followers block on `cv` and read `response`
  /// directly — never the cache — so eviction cannot race an attached
  /// waiter out of its answer.
  struct Inflight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Response response;
  };

  // Per-shard LRU: list front = most recent; map points into the list. The
  // in-flight table shares the shard lock so "cache miss, computation
  // already running" is one atomic decision.
  struct CacheEntry {
    std::string key;
    Response response;
  };
  struct Shard {
    std::mutex mutex;
    std::list<CacheEntry> lru;
    std::unordered_map<std::string, std::list<CacheEntry>::iterator> index;
    std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight;
    fleet::Counter* hits = nullptr;    ///< per-shard lookup outcomes; null
    fleet::Counter* misses = nullptr;  ///< without metrics.
  };
  enum class Probe { kHit, kLead, kJoin };

  [[nodiscard]] Response evaluate(const Request& request,
                                  const std::shared_ptr<const Snapshot>& s0,
                                  const std::shared_ptr<const Snapshot>& s1)
      const;

  /// Resolves the newest snapshot at-or-before `t_s`: retention ring first,
  /// then the store's durable ledger, then the genesis zero baseline when
  /// `t_s` predates accounting entirely. Returns nullptr with `error` filled
  /// (kOutOfRetention / kOutOfHistory, detail = oldest reachable epoch) when
  /// the history is genuinely gone, or kUnavailable when the ledger frame
  /// holding it is damaged.
  [[nodiscard]] std::shared_ptr<const Snapshot> resolve_at_or_before(
      double t_s, Response& error) const;

  /// Hit/miss accounting lives in note_hit/note_miss so a window query that
  /// misses its fast key but hits its epoch-pair key counts once. Per-shard
  /// counters instead record every lookup outcome, which is what a per-shard
  /// hit *rate* needs.
  Response note_hit(const Response& response);
  void note_miss();
  [[nodiscard]] Shard& shard_for(const std::string& key) noexcept;
  bool cache_lookup(const std::string& key, Response& out);
  void cache_insert(const std::string& key, const Response& response);
  /// One locked probe of the final cache key: hit (a leader published since
  /// our unlocked lookup), join an in-flight computation, or claim
  /// leadership of a new one.
  Probe probe(Shard& shard, const std::string& key, Response& out,
              std::shared_ptr<Inflight>& flight);
  /// Shared miss path: coalesce-aware compute + insert. `fast_key`, when
  /// non-null, re-arms the window fast path alongside the durable entry.
  Response compute(const std::string& key, const std::string* fast_key,
                   const std::function<Response()>& eval);

  const SnapshotStore& store_;
  QueryEngineOptions options_;
  std::size_t shard_capacity_ = 0;  ///< per shard; 0 disables caching.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  // Aggregate counters resolved once so the hot path skips the registry.
  fleet::Counter* hits_counter_ = nullptr;
  fleet::Counter* misses_counter_ = nullptr;
  fleet::Counter* evictions_counter_ = nullptr;
  fleet::Counter* coalesced_counter_ = nullptr;
};

}  // namespace vmp::serve
