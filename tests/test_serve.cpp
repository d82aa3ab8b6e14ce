#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "serve/query.hpp"
#include "serve/queue.hpp"
#include "serve/token_bucket.hpp"

namespace vmp::serve {
namespace {

/// Synthetic snapshot at integer time `t`: tenant 1 has drawn 100*t J at
/// t W; VM (0,1) has drawn 10*t J. Linear trajectories make every windowed
/// expectation computable by hand.
Snapshot synthetic_at(double t) {
  Snapshot snapshot;
  snapshot.tick = static_cast<std::uint64_t>(t);
  snapshot.time_s = t;
  snapshot.vms = {{0, 1, 1, t, 10.0 * t}, {0, 2, 2, 2.0 * t, 20.0 * t}};
  snapshot.tenants = {{1, t, 100.0 * t}, {2, 2.0 * t, 200.0 * t}};
  snapshot.total_power_w = 3.0 * t;
  snapshot.total_energy_j = 300.0 * t;
  return snapshot;
}

// --- SnapshotStore ----------------------------------------------------------

TEST(SnapshotStore, PublishStampsEpochsAndSwapsLatest) {
  SnapshotStore store(8);
  EXPECT_EQ(store.latest(), nullptr);
  EXPECT_EQ(store.oldest(), nullptr);
  EXPECT_THROW(SnapshotStore(0), std::invalid_argument);

  store.publish(synthetic_at(1.0));
  store.publish(synthetic_at(2.0));
  const auto latest = store.latest();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->epoch, 2u);
  EXPECT_DOUBLE_EQ(latest->time_s, 2.0);
  EXPECT_EQ(store.oldest()->epoch, 1u);
  EXPECT_EQ(store.published(), 2u);
}

TEST(SnapshotStore, RingEvictsOldestAtRetention) {
  SnapshotStore store(3);
  for (int t = 1; t <= 5; ++t) store.publish(synthetic_at(t));
  EXPECT_EQ(store.oldest()->epoch, 3u);  // epochs 1 and 2 evicted.
  EXPECT_EQ(store.latest()->epoch, 5u);
  EXPECT_EQ(store.at_or_before(2.5), nullptr);  // evicted history.
}

TEST(SnapshotStore, AtOrBeforeUsesStepSemantics) {
  SnapshotStore store(8);
  for (int t = 1; t <= 4; ++t) store.publish(synthetic_at(t));
  EXPECT_EQ(store.at_or_before(0.5), nullptr);  // predates the first.
  EXPECT_DOUBLE_EQ(store.at_or_before(1.0)->time_s, 1.0);  // inclusive.
  EXPECT_DOUBLE_EQ(store.at_or_before(2.7)->time_s, 2.0);
  EXPECT_DOUBLE_EQ(store.at_or_before(99.0)->time_s, 4.0);  // clamps.
}

TEST(SnapshotStore, FindersBinarySearchSortedRecords) {
  const Snapshot snapshot = synthetic_at(3.0);
  ASSERT_NE(snapshot.find_vm(0, 2), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.find_vm(0, 2)->energy_j, 60.0);
  EXPECT_EQ(snapshot.find_vm(1, 1), nullptr);
  ASSERT_NE(snapshot.find_tenant(2), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.find_tenant(2)->power_w, 6.0);
  EXPECT_EQ(snapshot.find_tenant(9), nullptr);
}

TEST(SnapshotStore, PublishTickMirrorsEngineLedgers) {
  const std::vector<common::VmConfig> fleet = {common::demo_c_vm(),
                                               common::demo_c_vm()};
  core::CollectionOptions collection;
  collection.duration_s = 30.0;
  const auto dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), fleet, collection);

  fleet::FleetOptions options;
  options.hosts = 3;
  options.threads = 2;
  options.fleet_per_host = fleet;
  options.tenants = 2;
  options.seed = 7;
  fleet::FleetEngine engine(options, dataset);
  SnapshotStore store(64);
  store.attach(engine);
  engine.run(12);

  EXPECT_EQ(store.published(), 12u);
  const auto snapshot = store.latest();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->tick, 12u);
  EXPECT_EQ(snapshot->vms.size(), options.hosts * fleet.size());

  // Snapshot energies are the ledgers', verbatim.
  for (const VmRecord& record : snapshot->vms)
    EXPECT_DOUBLE_EQ(record.energy_j,
                     engine.host_ledger(record.host).energy_j(record.vm));
  const auto& tenants = engine.tenant_ledger();
  for (const TenantRecord& record : snapshot->tenants)
    EXPECT_DOUBLE_EQ(record.energy_j, tenants.tenant_energy_j(record.tenant));
  EXPECT_DOUBLE_EQ(snapshot->total_energy_j, tenants.total_energy_j());
  EXPECT_DOUBLE_EQ(snapshot->unattributed_j, tenants.unattributed_energy_j());

  // Tenant instant power is the sum of the tenant's VM shares.
  for (const TenantRecord& tenant : snapshot->tenants) {
    double sum = 0.0;
    for (const VmRecord& record : snapshot->vms)
      if (record.tenant == tenant.tenant) sum += record.power_w;
    EXPECT_DOUBLE_EQ(tenant.power_w, sum);
  }

  // Earlier epochs stay immutable and monotone in cumulative energy.
  const auto mid = store.at_or_before(6.0);
  ASSERT_NE(mid, nullptr);
  EXPECT_LT(mid->total_energy_j, snapshot->total_energy_j);
}

// Publish-vs-read race: one writer publishing while readers traverse
// latest() and at_or_before(). Run under TSan in CI; any unsynchronized
// access to the ring or a snapshot is a reported race, any torn snapshot
// shows up as an inconsistent (time_s, epoch) pair.
TEST(SnapshotStore, ConcurrentPublishAndReadIsRaceFree) {
  SnapshotStore store(16);
  constexpr int kPublishes = 2000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&store, &stop] {
      double last_time = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (const auto latest = store.latest()) {
          // Published snapshots are immutable: time never goes backwards
          // and the payload always matches the synthetic trajectory.
          EXPECT_GE(latest->time_s, last_time);
          last_time = latest->time_s;
          ASSERT_EQ(latest->tenants.size(), 2u);
          EXPECT_DOUBLE_EQ(latest->tenants[0].energy_j,
                           100.0 * latest->time_s);
        }
        if (const auto mid = store.at_or_before(kPublishes / 2.0)) {
          EXPECT_LE(mid->time_s, kPublishes / 2.0);
        }
      }
    });

  for (int t = 1; t <= kPublishes; ++t) store.publish(synthetic_at(t));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(store.latest()->epoch, static_cast<std::uint64_t>(kPublishes));
}

// --- TokenBucket ------------------------------------------------------------

TEST(TokenBucket, BurstThenRefillAtRate) {
  TokenBucket bucket(2.0, 3.0);  // 3 deep, 2 tokens/s.
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));  // burst exhausted.
  EXPECT_FALSE(bucket.try_acquire(0.4));  // 0.8 tokens: still short of 1.
  EXPECT_TRUE(bucket.try_acquire(0.6));   // 1.2 tokens refilled.
  EXPECT_FALSE(bucket.try_acquire(0.6));
}

TEST(TokenBucket, CapsAtBurstAndToleratesBackwardsClock) {
  TokenBucket bucket(1000.0, 2.0);
  EXPECT_TRUE(bucket.try_acquire(0.0));
  // A long idle refills to the cap, not beyond.
  EXPECT_DOUBLE_EQ(bucket.available(100.0), 2.0);
  EXPECT_TRUE(bucket.try_acquire(100.0));
  EXPECT_TRUE(bucket.try_acquire(99.0));  // clock skew: no refill, no throw.
  EXPECT_FALSE(bucket.try_acquire(99.0));
}

TEST(TokenBucket, RejectsBadParameters) {
  EXPECT_THROW(TokenBucket(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(-1.0, 1.0), std::invalid_argument);
}

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueue, FifoAndValidation) {
  BoundedQueue<int> queue(2);
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  // A full queue refuses the push and evicts nothing.
  EXPECT_FALSE(queue.try_push(3));
  EXPECT_EQ(queue.high_watermark(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
}

TEST(BoundedQueue, CloseWakesEveryone) {
  BoundedQueue<int> queue(1);
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  queue.close();
  consumer.join();
  EXPECT_FALSE(queue.try_push(7));  // refused after close.
}

// --- QueryEngine ------------------------------------------------------------

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() {
    for (int t = 1; t <= 24; ++t) store_.publish(synthetic_at(t));
  }

  Request window(QueryKind kind, double t0, double t1,
                 std::uint32_t tenant = 1) const {
    Request request;
    request.kind = kind;
    request.tenant = tenant;
    request.host = 0;
    request.vm = 1;
    request.t0 = t0;
    request.t1 = t1;
    return request;
  }

  SnapshotStore store_{64};
};

TEST_F(QueryEngineTest, PointQueriesReadTheLatestSnapshot) {
  QueryEngine engine(store_);
  Request request;
  request.kind = QueryKind::kVmPower;
  request.host = 0;
  request.vm = 2;
  Response response = engine.execute(request);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.epoch, 24u);
  EXPECT_DOUBLE_EQ(response.values.at(0), 48.0);

  request.kind = QueryKind::kTenantPower;
  request.tenant = 2;
  EXPECT_DOUBLE_EQ(engine.execute(request).values.at(0), 48.0);

  request.kind = QueryKind::kFleetPower;
  EXPECT_DOUBLE_EQ(engine.execute(request).values.at(0), 72.0);

  request.kind = QueryKind::kStats;
  response = engine.execute(request);
  ASSERT_EQ(response.values.size(), 7u);
  EXPECT_DOUBLE_EQ(response.values[0], 24.0);  // tick.
  EXPECT_DOUBLE_EQ(response.values[2], 2.0);   // vms.
  EXPECT_DOUBLE_EQ(response.values[3], 2.0);   // tenants.
}

TEST_F(QueryEngineTest, UnknownEntitiesAndEmptyStoreAreErrors) {
  QueryEngine engine(store_);
  Request request;
  request.kind = QueryKind::kVmPower;
  request.host = 7;
  request.vm = 7;
  Response response = engine.execute(request);
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kUnknownEntity);

  SnapshotStore empty(4);
  QueryEngine cold(empty);
  EXPECT_EQ(cold.execute(request).code, ErrorCode::kNoSnapshot);
}

TEST_F(QueryEngineTest, WindowEnergyDifferencesBracketingSnapshots) {
  QueryEngine engine(store_);
  // [6, 18]: tenant 1 accrues 100 J/s -> 1200 J.
  Response response =
      engine.execute(window(QueryKind::kTenantEnergy, 6.0, 18.0));
  ASSERT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.values.at(0), 1200.0);

  // Fractional bounds step down to the covering snapshots: [5.9, 18.2]
  // resolves to epochs 5 and 18 -> 1300 J.
  response = engine.execute(window(QueryKind::kTenantEnergy, 5.9, 18.2));
  EXPECT_DOUBLE_EQ(response.values.at(0), 1300.0);

  // VM windows difference per-VM energy: 10 J/s over [2, 10].
  response = engine.execute(window(QueryKind::kVmEnergy, 2.0, 10.0));
  EXPECT_DOUBLE_EQ(response.values.at(0), 80.0);

  // An end beyond the newest snapshot clamps to it.
  response = engine.execute(window(QueryKind::kTenantEnergy, 20.0, 500.0));
  EXPECT_DOUBLE_EQ(response.values.at(0), 400.0);
}

TEST_F(QueryEngineTest, GenesisWindowsGetZeroBaseline) {
  QueryEngine engine(store_);
  // t0 before the first snapshot while epoch 1 is retained: energy since
  // accounting start, not an error.
  const Response response =
      engine.execute(window(QueryKind::kTenantEnergy, 0.0, 12.0));
  ASSERT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.values.at(0), 1200.0);
}

TEST_F(QueryEngineTest, EvictedHistoryIsOutOfRetention) {
  SnapshotStore small(4);
  for (int t = 1; t <= 10; ++t) small.publish(synthetic_at(t));
  QueryEngine engine(small);
  const Response response =
      engine.execute(window(QueryKind::kTenantEnergy, 2.0, 9.0));
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kOutOfRetention);
}

TEST_F(QueryEngineTest, BadWindowsAreRejected) {
  QueryEngine engine(store_);
  Response response = engine.execute(window(QueryKind::kTenantEnergy, 9, 3));
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kBadWindow);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.execute(window(QueryKind::kVmEnergy, nan, 3.0)).code,
            ErrorCode::kBadWindow);
}

TEST_F(QueryEngineTest, FlatCostIsEnergyTimesTariff) {
  QueryEngineOptions options;
  options.tou.offpeak_usd_per_kwh = 0.20;
  options.tou.peak_usd_per_kwh = 0.20;
  QueryEngine engine(store_, options);
  const Response response =
      engine.execute(window(QueryKind::kTenantCost, 4.0, 14.0));
  ASSERT_TRUE(response.ok);
  ASSERT_EQ(response.values.size(), 2u);
  EXPECT_DOUBLE_EQ(response.values[1], 1000.0);  // J.
  EXPECT_NEAR(response.values[0], 1000.0 / 3.6e6 * 0.20, 1e-15);
}

TEST_F(QueryEngineTest, TouCostPricesWhenEnergyWasDrawn) {
  QueryEngineOptions options;
  options.tou.offpeak_usd_per_kwh = 0.10;
  options.tou.peak_usd_per_kwh = 0.25;
  options.tou.seconds_per_hour = 1.0;  // peak window is [17, 21) s.
  QueryEngine engine(store_, options);
  // [16, 22]: snapshots exist at every boundary, 100 J/s throughout:
  // 100 J off-peak, 400 J peak, 100 J off-peak.
  const Response response =
      engine.execute(window(QueryKind::kTenantCost, 16.0, 22.0));
  ASSERT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.values[1], 600.0);
  EXPECT_NEAR(response.values[0],
              (200.0 * 0.10 + 400.0 * 0.25) / 3.6e6, 1e-15);
  // The segmented bill exceeds the all-off-peak bill: timing matters.
  EXPECT_GT(response.values[0], 600.0 / 3.6e6 * 0.10);
}

TEST_F(QueryEngineTest, CacheHitsPointQueriesUntilNextPublish) {
  QueryEngine engine(store_);
  Request request;
  request.kind = QueryKind::kFleetPower;
  const Response first = engine.execute(request);
  const Response again = engine.execute(request);
  EXPECT_EQ(engine.cache_hits(), 1u);
  EXPECT_EQ(engine.cache_misses(), 1u);
  EXPECT_EQ(first.epoch, again.epoch);

  // A publish moves the epoch: the same point query misses and re-evaluates.
  store_.publish(synthetic_at(25.0));
  const Response fresh = engine.execute(request);
  EXPECT_EQ(engine.cache_misses(), 2u);
  EXPECT_EQ(fresh.epoch, 25u);
  EXPECT_DOUBLE_EQ(fresh.values.at(0), 75.0);
}

TEST_F(QueryEngineTest, WindowResultsSurvivePublishes) {
  QueryEngine engine(store_);
  const Request request = window(QueryKind::kTenantEnergy, 3.0, 9.0);
  (void)engine.execute(request);
  store_.publish(synthetic_at(25.0));
  (void)engine.execute(request);  // same epoch pair -> still cached.
  EXPECT_EQ(engine.cache_hits(), 1u);
  EXPECT_EQ(engine.cache_misses(), 1u);
}

TEST_F(QueryEngineTest, LruEvictsColdEntriesAndZeroCapacityDisables) {
  QueryEngineOptions tiny;
  tiny.cache_capacity = 2;
  tiny.cache_shards = 1;  // global LRU order, so the arithmetic stays exact.
  QueryEngine engine(store_, tiny);
  // Point queries carry exactly one cache entry each (windows add a second,
  // fast key), which keeps the eviction arithmetic exact.
  Request a, b, c;
  a.kind = QueryKind::kVmPower;
  a.host = 0;
  a.vm = 1;
  b.kind = QueryKind::kVmPower;
  b.host = 0;
  b.vm = 2;
  c.kind = QueryKind::kTenantPower;
  c.tenant = 1;
  (void)engine.execute(a);
  (void)engine.execute(b);
  (void)engine.execute(a);  // touch a; b is now coldest.
  (void)engine.execute(c);  // evicts b.
  (void)engine.execute(a);  // hit.
  (void)engine.execute(b);  // miss: was evicted.
  EXPECT_EQ(engine.cache_hits(), 2u);
  EXPECT_EQ(engine.cache_misses(), 4u);

  QueryEngineOptions off;
  off.cache_capacity = 0;
  QueryEngine uncached(store_, off);
  (void)uncached.execute(a);
  (void)uncached.execute(a);
  EXPECT_EQ(uncached.cache_hits(), 0u);
  EXPECT_EQ(uncached.cache_misses(), 2u);
}

TEST_F(QueryEngineTest, CoalescingDeduplicatesConcurrentIdenticalQueries) {
  constexpr int kThreads = 4;
  fleet::Metrics metrics;
  QueryEngineOptions options;
  options.metrics = &metrics;
  std::atomic<int> started{0};
  std::atomic<bool> hold_armed{true};
  // The first leader stalls until every thread has entered execute(), then
  // grants a grace period for the others to reach the in-flight slot.
  options.coalesce_hold = [&] {
    if (!hold_armed.exchange(false)) return;
    while (started.load() < kThreads)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  QueryEngine engine(store_, options);

  const Request request = window(QueryKind::kTenantCost, 3.0, 9.0);
  std::vector<Response> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      started.fetch_add(1);
      responses[i] = engine.execute(request);
    });
  for (std::thread& thread : threads) thread.join();

  // One evaluation ran; everyone else attached to it.
  EXPECT_EQ(engine.cache_misses(), 1u);
  EXPECT_EQ(engine.coalesced(), static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(engine.cache_hits(), 0u);
  ASSERT_TRUE(responses[0].ok);
  for (int i = 1; i < kThreads; ++i)
    EXPECT_EQ(format_response_text(responses[i]),
              format_response_text(responses[0]))
        << "follower " << i << " payload diverged";
  EXPECT_NE(metrics.to_prometheus().find("vmpower_serve_coalesced_total 3"),
            std::string::npos);
}

TEST_F(QueryEngineTest, CoalescedWaitersSurviveEvictionDuringComputation) {
  // Capacity 1 + one shard: *every* insert evicts the previous entry, so the
  // window between the leader's cache insert and a follower's wakeup is
  // guaranteed to see churn. The follower must still get the leader's
  // response — it reads the in-flight slot, never the cache.
  QueryEngineOptions options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::atomic<bool> hold_armed{true};
  options.coalesce_hold = [&] {
    if (!hold_armed.exchange(false)) return;  // churn queries don't stall.
    held.store(true);
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  QueryEngine engine(store_, options);

  const Request slow = window(QueryKind::kTenantEnergy, 3.0, 9.0);
  Response leader_response, follower_response;
  std::thread leader([&] { leader_response = engine.execute(slow); });
  while (!held.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread follower([&] { follower_response = engine.execute(slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // attach.

  // Churn the single cache slot while the computation is still in flight.
  Request churn;
  churn.kind = QueryKind::kFleetPower;
  (void)engine.execute(churn);
  release.store(true);
  leader.join();
  follower.join();

  ASSERT_TRUE(leader_response.ok);
  EXPECT_DOUBLE_EQ(leader_response.values.at(0), 600.0);  // 100 J/s * 6 s.
  EXPECT_EQ(engine.coalesced(), 1u);
  EXPECT_EQ(format_response_text(follower_response),
            format_response_text(leader_response));
}

TEST_F(QueryEngineTest, CoalescingWorksWithCachingDisabled) {
  QueryEngineOptions options;
  options.cache_capacity = 0;  // in-flight table lives in the shards anyway.
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::atomic<bool> hold_armed{true};
  options.coalesce_hold = [&] {
    if (!hold_armed.exchange(false)) return;
    held.store(true);
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  QueryEngine engine(store_, options);

  Request request;
  request.kind = QueryKind::kStats;
  Response first, second;
  std::thread leader([&] { first = engine.execute(request); });
  while (!held.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread follower([&] { second = engine.execute(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.store(true);
  leader.join();
  follower.join();

  EXPECT_EQ(engine.cache_misses(), 1u);
  EXPECT_EQ(engine.coalesced(), 1u);
  EXPECT_EQ(format_response_text(second), format_response_text(first));
}

TEST_F(QueryEngineTest, CoalescingCanBeDisabled) {
  QueryEngineOptions options;
  options.coalesce = false;
  QueryEngine engine(store_, options);
  Request request;
  request.kind = QueryKind::kFleetPower;
  (void)engine.execute(request);
  (void)engine.execute(request);
  EXPECT_EQ(engine.cache_misses(), 1u);
  EXPECT_EQ(engine.cache_hits(), 1u);
  EXPECT_EQ(engine.coalesced(), 0u);
}

TEST_F(QueryEngineTest, ShardedCacheExportsPerShardLookupCounters) {
  fleet::Metrics metrics;
  QueryEngineOptions options;
  options.cache_shards = 4;
  options.metrics = &metrics;
  QueryEngine engine(store_, options);
  EXPECT_EQ(engine.shard_count(), 4u);

  Request request;
  request.kind = QueryKind::kFleetPower;
  (void)engine.execute(request);  // miss in some shard.
  (void)engine.execute(request);  // hit in the same shard.
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("vmpower_serve_cache_shard_hits_total{shard="),
            std::string::npos);
  EXPECT_NE(text.find("vmpower_serve_cache_shard_misses_total{shard="),
            std::string::npos);
  EXPECT_NE(text.find("vmpower_serve_cache_hits_total 1"), std::string::npos);

  // Shard count 0 clamps to one shard rather than dividing by zero.
  QueryEngineOptions zero;
  zero.cache_shards = 0;
  QueryEngine clamped(store_, zero);
  EXPECT_EQ(clamped.shard_count(), 1u);
}

TEST_F(QueryEngineTest, CacheCountersAreExportedWhenMetricsAttached) {
  fleet::Metrics metrics;
  QueryEngineOptions options;
  options.metrics = &metrics;
  QueryEngine engine(store_, options);
  Request request;
  request.kind = QueryKind::kStats;
  (void)engine.execute(request);
  (void)engine.execute(request);
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("vmpower_serve_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("vmpower_serve_cache_misses_total 1"),
            std::string::npos);
}

TEST_F(QueryEngineTest, RejectsInvalidTouSchedule) {
  QueryEngineOptions options;
  options.tou.offpeak_usd_per_kwh = -1.0;
  EXPECT_THROW(QueryEngine(store_, options), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::serve
