// Multi-fleet federation: shard map parsing, per-shard health tracking, the
// scatter-gather frontend's Additivity roll-up (byte-identical to a single
// merged fleet), graceful partial failure, epoch-skew policy, per-query
// deadlines, and hedged requests.
#include "federate/frontend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "federate/health.hpp"
#include "federate/pool.hpp"
#include "federate/shard_map.hpp"
#include "federate/spin.hpp"
#include "obs/invariants.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"

namespace vmp::federate {
namespace {

using serve::ErrorCode;
using serve::QueryKind;
using serve::Request;
using serve::Response;

// --- shard map --------------------------------------------------------------

TEST(ShardMap, ParsesFleetsEndpointsAndReplicas) {
  const ShardMap map = ShardMap::parse("2=7002,7012;1=127.0.0.1:7001;3=7003");
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.shards()[0].fleet, 1u);  // sorted by fleet id.
  EXPECT_EQ(map.shards()[0].primary(), 7001);
  EXPECT_FALSE(map.shards()[0].has_replica());
  ASSERT_NE(map.find(2), nullptr);
  EXPECT_TRUE(map.find(2)->has_replica());
  EXPECT_EQ(map.find(2)->endpoints[1], 7012);
  EXPECT_EQ(map.find(9), nullptr);
  // Canonical spec round-trips.
  EXPECT_EQ(map.spec(), "1=7001;2=7002,7012;3=7003");
  EXPECT_EQ(ShardMap::parse(map.spec()).spec(), map.spec());
}

TEST(ShardMap, RejectsMalformedSpecs) {
  EXPECT_THROW(ShardMap::parse(""), std::invalid_argument);
  EXPECT_THROW(ShardMap::parse("1"), std::invalid_argument);
  EXPECT_THROW(ShardMap::parse("1="), std::invalid_argument);
  EXPECT_THROW(ShardMap::parse("1=0"), std::invalid_argument);
  EXPECT_THROW(ShardMap::parse("1=70000"), std::invalid_argument);
  EXPECT_THROW(ShardMap::parse("1=7001;1=7002"), std::invalid_argument);
  EXPECT_THROW(ShardMap::parse("1=10.0.0.1:7001"), std::invalid_argument);
  EXPECT_THROW(ShardMap::parse("x=7001"), std::invalid_argument);
}

// --- health tracker ---------------------------------------------------------

TEST(ShardHealth, EjectsAfterConsecutiveFailuresAndProbesBack) {
  HealthOptions options;
  options.eject_after = 3;
  options.probe_interval = 2;
  ShardHealthTracker health(options);

  EXPECT_TRUE(health.should_try(1));
  health.record_failure(1);
  health.record_failure(1);
  EXPECT_FALSE(health.ejected(1));
  // A success anywhere in the run resets the consecutive count.
  health.record_success(1);
  health.record_failure(1);
  health.record_failure(1);
  EXPECT_FALSE(health.ejected(1));
  health.record_failure(1);
  EXPECT_TRUE(health.ejected(1));
  EXPECT_EQ(health.ejections(), 1u);

  // While ejected, every probe_interval-th fan-out is a probe.
  EXPECT_FALSE(health.should_try(1));
  EXPECT_TRUE(health.should_try(1));  // probe turn.
  EXPECT_FALSE(health.should_try(1));
  EXPECT_TRUE(health.should_try(1));

  // A probe success re-admits immediately.
  health.record_success(1);
  EXPECT_FALSE(health.ejected(1));
  EXPECT_TRUE(health.should_try(1));
  EXPECT_EQ(health.readmissions(), 1u);

  // Other shards are independent.
  EXPECT_TRUE(health.should_try(2));
  EXPECT_FALSE(health.ejected(2));
}

// --- partial-response codec -------------------------------------------------

TEST(PartialResponse, BinaryRoundTripCarriesMissingShards) {
  const Response partial =
      Response::partial(7, {12.5, 3.0}, {4, 2});
  EXPECT_TRUE(partial.ok);
  EXPECT_FALSE(partial.complete);

  const std::string body = serve::encode_response(partial);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], '\2');  // partial status byte.
  const auto decoded = serve::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->ok);
  EXPECT_FALSE(decoded->complete);
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->values, partial.values);
  EXPECT_EQ(decoded->missing_shards, partial.missing_shards);

  // An empty missing list makes partial() collapse to a complete success,
  // byte-identical to the pre-federation encoding.
  const Response complete = Response::partial(7, {12.5, 3.0}, {});
  EXPECT_TRUE(complete.complete);
  EXPECT_EQ(serve::encode_response(complete),
            serve::encode_response(Response::success(7, {12.5, 3.0})));

  // Garbage partial bodies are rejected, not crashes.
  std::string truncated = body.substr(0, body.size() - 2);
  EXPECT_FALSE(serve::decode_response(truncated).has_value());
  std::string bad_status = body;
  bad_status[0] = '\3';
  EXPECT_FALSE(serve::decode_response(bad_status).has_value());
}

TEST(PartialResponse, TextFormCarriesAMissingToken) {
  const Response partial = Response::partial(9, {42.0}, {1, 3});
  const std::string line = serve::format_response_text(partial);
  EXPECT_NE(line.find("OK 9 "), std::string::npos);
  EXPECT_NE(line.find(" missing=1,3"), std::string::npos);
  // Complete responses never grow the token.
  const std::string complete =
      serve::format_response_text(Response::success(9, {42.0}));
  EXPECT_EQ(complete.find("missing"), std::string::npos);
}

// --- scatter-gather ---------------------------------------------------------

/// Shard `fleet`'s synthetic state at integer time t. Hosts are disjoint
/// (host id == fleet id); every energy is an integer number of joules and a
/// multiple of 3.6e6 (whole kWh), and the TOU rate is 0.125 $/kWh — a power
/// of two — so every cross-shard sum, difference, and cost computation is
/// exact in doubles and the Additivity roll-up must be *byte*-identical to
/// the merged fleet, not merely close.
constexpr double kJPerKwh = 3.6e6;

serve::Snapshot shard_at(std::uint32_t fleet, double t) {
  const double f = static_cast<double>(fleet);
  serve::Snapshot snapshot;
  snapshot.tick = static_cast<std::uint64_t>(t);
  snapshot.time_s = t;
  snapshot.vms = {{fleet, 1, 1, f, f * t * kJPerKwh},
                  {fleet, 2, 2, 2.0 * f, 2.0 * f * t * kJPerKwh}};
  snapshot.tenants = {{1, f, f * t * kJPerKwh},
                      {2, 2.0 * f, 2.0 * f * t * kJPerKwh}};
  snapshot.total_power_w = 3.0 * f;
  snapshot.total_energy_j = 3.0 * f * t * kJPerKwh;
  return snapshot;
}

/// The single fleet that metered all three shards' VMs itself.
serve::Snapshot merged_at(const std::vector<std::uint32_t>& fleets, double t) {
  serve::Snapshot merged;
  merged.tick = static_cast<std::uint64_t>(t);
  merged.time_s = t;
  double tenant1_w = 0.0, tenant1_j = 0.0, tenant2_w = 0.0, tenant2_j = 0.0;
  for (const std::uint32_t fleet : fleets) {
    const serve::Snapshot shard = shard_at(fleet, t);
    merged.vms.insert(merged.vms.end(), shard.vms.begin(), shard.vms.end());
    tenant1_w += shard.tenants[0].power_w;
    tenant1_j += shard.tenants[0].energy_j;
    tenant2_w += shard.tenants[1].power_w;
    tenant2_j += shard.tenants[1].energy_j;
    merged.total_power_w += shard.total_power_w;
    merged.total_energy_j += shard.total_energy_j;
  }
  std::sort(merged.vms.begin(), merged.vms.end(),
            [](const serve::VmRecord& a, const serve::VmRecord& b) {
              return a.host != b.host ? a.host < b.host : a.vm < b.vm;
            });
  merged.tenants = {{1, tenant1_w, tenant1_j}, {2, tenant2_w, tenant2_j}};
  return merged;
}

serve::QueryEngineOptions exact_tou_options() {
  serve::QueryEngineOptions options;
  options.tou.offpeak_usd_per_kwh = 0.125;
  options.tou.peak_usd_per_kwh = 0.125;
  return options;
}

serve::ServerOptions quick_server() {
  serve::ServerOptions options;
  options.port = 0;
  options.workers = 2;
  return options;
}

Request make_request(QueryKind kind, std::uint32_t host, std::uint32_t vm,
                     std::uint32_t tenant, double t0 = 0.0, double t1 = 0.0) {
  Request request;
  request.kind = kind;
  request.host = host;
  request.vm = vm;
  request.tenant = tenant;
  request.t0 = t0;
  request.t1 = t1;
  return request;
}

/// Three in-process shards (fleets 1..3) with published epochs 1..ticks.
struct Federation {
  std::vector<std::unique_ptr<InProcessShard>> shards;
  fleet::Metrics metrics;
  obs::InvariantMonitor monitor{metrics};

  explicit Federation(int ticks = 4, FrontendOptions options = {}) {
    std::vector<FleetShard> mapped;
    for (std::uint32_t fleet = 1; fleet <= 3; ++fleet) {
      InProcessShardOptions shard_options;
      shard_options.fleet = fleet;
      shard_options.engine = exact_tou_options();
      shard_options.server = quick_server();
      auto shard = std::make_unique<InProcessShard>(shard_options);
      for (int t = 1; t <= ticks; ++t)
        shard->store().publish(shard_at(fleet, t));
      mapped.push_back(FleetShard{fleet, {shard->port()}});
      shards.push_back(std::move(shard));
    }
    options.metrics = &metrics;
    options.monitor = &monitor;
    frontend = std::make_unique<FederationFrontend>(
        ShardMap(std::move(mapped)), options);
  }

  std::unique_ptr<FederationFrontend> frontend;
};

TEST(Federation, RollupIsByteIdenticalToTheMergedFleet) {
  Federation fed(/*ticks=*/4);

  // The reference: one fleet that metered every VM itself.
  serve::SnapshotStore merged_store(16);
  for (int t = 1; t <= 4; ++t) merged_store.publish(merged_at({1, 2, 3}, t));
  serve::QueryEngine merged(merged_store, exact_tou_options());

  const std::vector<Request> requests = {
      make_request(QueryKind::kFleetPower, 0, 0, 0),
      make_request(QueryKind::kTenantPower, 0, 0, 1),
      make_request(QueryKind::kTenantPower, 0, 0, 2),
      make_request(QueryKind::kVmPower, 2, 1, 0),  // lives on shard 2 only.
      make_request(QueryKind::kVmEnergy, 3, 2, 0, 1.0, 4.0),
      make_request(QueryKind::kVmEnergy, 2, 1, 0, 1.0, 4.0),
      make_request(QueryKind::kTenantEnergy, 0, 0, 1, 1.0, 3.0),
      make_request(QueryKind::kTenantEnergy, 0, 0, 2, 2.0, 4.0),
      make_request(QueryKind::kTenantCost, 0, 0, 1, 1.0, 4.0),
      make_request(QueryKind::kTenantCost, 0, 0, 2, 1.0, 4.0),
      make_request(QueryKind::kStats, 0, 0, 0),
  };
  for (const Request& request : requests) {
    const Response federated = fed.frontend->execute(request);
    const Response reference = merged.execute(request);
    ASSERT_TRUE(federated.ok) << request.canonical() << ": "
                              << federated.message;
    EXPECT_TRUE(federated.complete) << request.canonical();
    // Byte-identity on both encodings, epoch included.
    EXPECT_EQ(serve::encode_response(federated),
              serve::encode_response(reference))
        << request.canonical();
    EXPECT_EQ(serve::format_response_text(federated),
              serve::format_response_text(reference))
        << request.canonical();
  }
  // Fault-free roll-ups kept Additivity exactly: no invariant breaches, and
  // the residual gauge pinned at zero.
  EXPECT_EQ(fed.monitor.breaches(), 0u);
  EXPECT_EQ(fed.metrics.gauge("vmpower_fed_additivity_residual", "").value(),
            0.0);
}

TEST(Federation, UnknownEntitySemantics) {
  Federation fed;
  // A VM no shard owns: every shard reports kUnknownEntity, so the
  // federation does too (known-zero everywhere is "unknown", not 0 J).
  const Response unknown =
      fed.frontend->execute(make_request(QueryKind::kVmPower, 9, 9, 0));
  ASSERT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.code, ErrorCode::kUnknownEntity);

  // A VM exactly one shard owns answers with that shard's value.
  const Response owned =
      fed.frontend->execute(make_request(QueryKind::kVmPower, 3, 1, 0));
  ASSERT_TRUE(owned.ok) << owned.message;
  ASSERT_EQ(owned.values.size(), 1u);
  EXPECT_EQ(owned.values[0], 3.0);
}

TEST(Federation, KilledShardDegradesToAFlaggedPartial) {
  FrontendOptions options;
  options.deadline = std::chrono::milliseconds(300);
  options.retries = 0;
  Federation fed(/*ticks=*/4, options);
  fed.shards[1]->stop();  // fleet 2 dies mid-run.

  const Response partial = fed.frontend->execute(
      make_request(QueryKind::kTenantEnergy, 0, 0, 1, 1.0, 4.0));
  ASSERT_TRUE(partial.ok) << partial.message;
  EXPECT_FALSE(partial.complete);
  ASSERT_EQ(partial.missing_shards.size(), 1u);
  EXPECT_EQ(partial.missing_shards[0], 2u);
  // Fleets 1 and 3 still contribute: (1+3) kWh/s * 3 s window.
  ASSERT_EQ(partial.values.size(), 1u);
  EXPECT_EQ(partial.values[0], 4.0 * 3.0 * kJPerKwh);
  EXPECT_GE(
      fed.metrics.counter("vmpower_fed_partial_total", "").value(), 1u);

  // With every shard dead the query degrades to kUnavailable, not a hang.
  fed.shards[0]->stop();
  fed.shards[2]->stop();
  const Response down = fed.frontend->execute(
      make_request(QueryKind::kFleetPower, 0, 0, 0));
  ASSERT_FALSE(down.ok);
  EXPECT_EQ(down.code, ErrorCode::kUnavailable);
}

TEST(Federation, ConsecutiveFailuresEjectTheShard) {
  FrontendOptions options;
  options.deadline = std::chrono::milliseconds(200);
  options.retries = 0;
  options.health.eject_after = 2;
  options.health.probe_interval = 100;  // no probe inside this test.
  Federation fed(/*ticks=*/2, options);
  fed.shards[2]->stop();  // fleet 3 dies.

  const Request request = make_request(QueryKind::kFleetPower, 0, 0, 0);
  (void)fed.frontend->execute(request);
  (void)fed.frontend->execute(request);
  EXPECT_TRUE(fed.frontend->health().ejected(3));

  // Ejected shards are not even attempted, but still reported missing.
  const Response partial = fed.frontend->execute(request);
  ASSERT_TRUE(partial.ok);
  EXPECT_FALSE(partial.complete);
  ASSERT_EQ(partial.missing_shards.size(), 1u);
  EXPECT_EQ(partial.missing_shards[0], 3u);
}

TEST(Federation, EpochSkewPolicy) {
  // Shard 3 lags one epoch behind shards 1 and 2.
  auto build = [](FrontendOptions options, fleet::Metrics& metrics) {
    std::vector<std::unique_ptr<InProcessShard>> shards;
    std::vector<FleetShard> mapped;
    for (std::uint32_t fleet = 1; fleet <= 3; ++fleet) {
      InProcessShardOptions shard_options;
      shard_options.fleet = fleet;
      shard_options.engine = exact_tou_options();
      shard_options.server = quick_server();
      auto shard = std::make_unique<InProcessShard>(shard_options);
      const int ticks = fleet == 3 ? 3 : 4;
      for (int t = 1; t <= ticks; ++t)
        shard->store().publish(shard_at(fleet, t));
      mapped.push_back(FleetShard{fleet, {shard->port()}});
      shards.push_back(std::move(shard));
    }
    options.metrics = &metrics;
    return std::make_pair(
        std::move(shards),
        std::make_unique<FederationFrontend>(ShardMap(std::move(mapped)),
                                             options));
  };

  const Request request = make_request(QueryKind::kFleetPower, 0, 0, 0);
  {
    // Default policy: accept, roll up at the minimum epoch, export skew.
    fleet::Metrics metrics;
    auto [shards, frontend] = build(FrontendOptions{}, metrics);
    const Response accepted = frontend->execute(request);
    ASSERT_TRUE(accepted.ok) << accepted.message;
    EXPECT_EQ(accepted.epoch, 3u);  // min over {4, 4, 3}.
    EXPECT_EQ(metrics.gauge("vmpower_fed_epoch_skew", "").value(), 1.0);
  }
  {
    // Reject policy with a zero budget refuses the skewed roll-up.
    FrontendOptions options;
    options.skew_policy = SkewPolicy::kReject;
    options.max_epoch_skew = 0;
    fleet::Metrics metrics;
    auto [shards, frontend] = build(options, metrics);
    const Response rejected = frontend->execute(request);
    ASSERT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.code, ErrorCode::kEpochSkew);
    EXPECT_EQ(rejected.detail, 1u);  // the observed spread.
  }
  {
    // Reject policy with budget >= spread still answers.
    FrontendOptions options;
    options.skew_policy = SkewPolicy::kReject;
    options.max_epoch_skew = 1;
    fleet::Metrics metrics;
    auto [shards, frontend] = build(options, metrics);
    EXPECT_TRUE(frontend->execute(request).ok);
  }
}

TEST(Federation, ServedOverTheWireLikeAnyFleet) {
  // The frontend is a QueryHandler: the stock Server fronts it, and a stock
  // Client speaks to the federation exactly as to a single fleet.
  FrontendOptions options;
  options.deadline = std::chrono::milliseconds(300);
  options.retries = 0;
  Federation fed(/*ticks=*/4, options);
  serve::Server server(*fed.frontend, fed.metrics, quick_server());
  serve::Client client(server.port());

  const Response stats =
      client.query(make_request(QueryKind::kStats, 0, 0, 0));
  ASSERT_TRUE(stats.ok);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.values.at(2), 6.0);  // six VMs across the shards.

  // Text protocol, with a killed shard: the partial's missing token arrives
  // verbatim at a line-oriented client. (One connection speaks one protocol
  // — the server sniffs the mode from the first byte — so a fresh client.)
  fed.shards[0]->stop();
  serve::Client text_client(server.port());
  const std::string line = text_client.query_text("tenant-energy 1 1 4");
  EXPECT_EQ(line.rfind("OK ", 0), 0u) << line;
  EXPECT_NE(line.find(" missing=1"), std::string::npos) << line;

  // And the in-process transport drives the identical path.
  serve::InProcessTransport transport(*fed.frontend, &fed.metrics);
  const Response direct =
      transport.query(make_request(QueryKind::kFleetPower, 0, 0, 0));
  ASSERT_TRUE(direct.ok);
  EXPECT_FALSE(direct.complete);
  server.stop();
}

// --- per-query deadlines (serve::Client::set_timeout) -----------------------

TEST(ClientDeadline, TimesOutCleanlyInsteadOfBlocking) {
  InProcessShardOptions options;
  options.fleet = 1;
  options.server = quick_server();
  options.server.worker_delay = std::chrono::milliseconds(400);
  InProcessShard shard(options);
  shard.store().publish(shard_at(1, 1.0));

  serve::Client client(shard.port());
  client.set_timeout(std::chrono::milliseconds(50));
  EXPECT_EQ(client.timeout().count(), 50);
  EXPECT_THROW((void)client.query(make_request(QueryKind::kStats, 0, 0, 0)),
               serve::TimeoutError);

  // Without a timeout the same query blocks through the delay and answers.
  serve::Client patient(shard.port());
  const Response response =
      patient.query(make_request(QueryKind::kStats, 0, 0, 0));
  EXPECT_TRUE(response.ok);
  shard.stop();
}

// --- hedged requests --------------------------------------------------------

TEST(Federation, HedgedRequestBeatsASlowPrimary) {
  // One shard whose primary server stalls every request by 300 ms while its
  // replica answers immediately: with hedging on, the replica's answer wins
  // long before the primary's, and the hedge counters prove the path ran.
  InProcessShardOptions shard_options;
  shard_options.fleet = 1;
  shard_options.engine = exact_tou_options();
  shard_options.server = quick_server();
  shard_options.server.worker_delay = std::chrono::milliseconds(300);
  shard_options.replica = quick_server();
  InProcessShard shard(shard_options);
  for (int t = 1; t <= 2; ++t) shard.store().publish(shard_at(1, t));

  FrontendOptions options;
  options.deadline = std::chrono::milliseconds(2000);
  options.retries = 0;
  options.hedge = true;
  options.hedge_delay = std::chrono::milliseconds(20);
  fleet::Metrics metrics;
  options.metrics = &metrics;
  FederationFrontend frontend(
      ShardMap({FleetShard{1, {shard.port(), shard.replica_port()}}}),
      options);

  const auto start = std::chrono::steady_clock::now();
  const Response response =
      frontend.execute(make_request(QueryKind::kFleetPower, 0, 0, 0));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_TRUE(response.complete);
  EXPECT_EQ(response.values.at(0), 3.0);
  EXPECT_GE(metrics.counter("vmpower_fed_hedges_total", "").value(), 1u);
  EXPECT_GE(metrics.counter("vmpower_fed_hedge_wins_total", "").value(), 1u);
  // The win must land well inside the primary's 300 ms stall (generous
  // bound for sanitizer builds).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            290);
  shard.stop();
}

// --- distributed trace stitching --------------------------------------------

/// Arms the global tracer over a clean ring and disarms it on scope exit even
/// when an assertion bails out of the test early.
struct TracerArm {
  TracerArm() {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  ~TracerArm() { obs::Tracer::global().set_enabled(false); }
};

TEST(Federation, FederatedQueryStitchesOneTraceTreeAcrossTiers) {
  // Shard 1's primary stalls every request by 300 ms while its replica
  // answers instantly, forcing a hedge; shard 2 answers plainly. Every tier
  // lives in this process, so the one global tracer receives the frontend's
  // fan-out spans *and* the spans each shard server opens on behalf of the
  // trace context carried over the wire — the full stitched tree of a
  // federated query, inspectable span by span.
  InProcessShardOptions slow_options;
  slow_options.fleet = 1;
  slow_options.engine = exact_tou_options();
  slow_options.server = quick_server();
  slow_options.server.worker_delay = std::chrono::milliseconds(300);
  slow_options.replica = quick_server();
  InProcessShard slow_shard(slow_options);
  slow_shard.store().publish(shard_at(1, 1.0));

  InProcessShardOptions fast_options;
  fast_options.fleet = 2;
  fast_options.engine = exact_tou_options();
  fast_options.server = quick_server();
  InProcessShard fast_shard(fast_options);
  fast_shard.store().publish(shard_at(2, 1.0));

  FrontendOptions options;
  options.deadline = std::chrono::milliseconds(2000);
  options.retries = 0;
  options.hedge = true;
  options.hedge_delay = std::chrono::milliseconds(20);
  FederationFrontend frontend(
      ShardMap({FleetShard{1, {slow_shard.port(), slow_shard.replica_port()}},
                FleetShard{2, {fast_shard.port()}}}),
      options);

  obs::Tracer& tracer = obs::Tracer::global();
  TracerArm armed;
  constexpr std::uint64_t kTrace = 0xf00dull;
  std::uint64_t root_id = 0;
  Response response;
  {
    obs::TraceContext context(kTrace);
    VMP_TRACE_NAMED_SPAN(root_span, "test.fanout", "test");
    root_id = obs::current_span();
    response = frontend.execute(make_request(QueryKind::kFleetPower, 0, 0, 0));
  }
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_TRUE(response.complete);
  EXPECT_EQ(response.values.at(0), 9.0);  // fleets 1 + 2 at t = 1.
  ASSERT_NE(root_id, 0u);

  // The hedge winner returned long before the stalled primary leg finished;
  // wait for that stray to land its spans so the tree is complete.
  auto count_named = [&](const char* name) {
    std::size_t n = 0;
    for (const obs::SpanEvent& event : tracer.snapshot())
      if (std::string_view(event.name) == name) ++n;
    return n;
  };
  for (int spin = 0; spin < 5000 && count_named("fed.attempt") < 2; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const std::vector<obs::SpanEvent> events = tracer.snapshot();
  std::vector<const obs::SpanEvent*> shard_spans, leg_spans, execute_spans;
  for (const obs::SpanEvent& event : events) {
    // One query, one trace id — across the frontend and both shard servers.
    EXPECT_EQ(event.trace_id, kTrace) << event.name;
    const std::string_view name(event.name);
    if (name == "fed.shard") shard_spans.push_back(&event);
    if (name == "fed.attempt" || name == "fed.hedge")
      leg_spans.push_back(&event);
    if (name == "serve.execute") execute_spans.push_back(&event);
  }

  // One fed.shard child of the caller's root span per shard, annotated with
  // its fleet id.
  ASSERT_EQ(shard_spans.size(), 2u);
  std::vector<std::uint64_t> fleets;
  for (const obs::SpanEvent* span : shard_spans) {
    EXPECT_EQ(span->parent_id, root_id);
    ASSERT_STREQ(span->detail_key, "fleet");
    fleets.push_back(span->detail);
  }
  std::sort(fleets.begin(), fleets.end());
  EXPECT_EQ(fleets, (std::vector<std::uint64_t>{1, 2}));

  // Three legs: shard 1's primary attempt and its hedge, shard 2's attempt —
  // each a child of its own fed.shard span.
  ASSERT_EQ(leg_spans.size(), 3u);
  EXPECT_EQ(count_named("fed.hedge"), 1u);
  for (const obs::SpanEvent* leg : leg_spans) {
    const bool under_a_shard =
        leg->parent_id == shard_spans[0]->span_id ||
        leg->parent_id == shard_spans[1]->span_id;
    EXPECT_TRUE(under_a_shard) << leg->name;
  }

  // Each shard server's execute span crossed the wire: its parent is the
  // exact leg (first try or hedge) that carried the request — remote
  // parenting, not same-thread nesting.
  ASSERT_EQ(execute_spans.size(), 3u);
  for (const obs::SpanEvent* execute : execute_spans) {
    bool under_a_leg = false;
    for (const obs::SpanEvent* leg : leg_spans)
      under_a_leg = under_a_leg || execute->parent_id == leg->span_id;
    EXPECT_TRUE(under_a_leg);
  }

  // And the whole tree exports as one Chrome trace.
  const std::string jsonl = tracer.to_chrome_jsonl();
  EXPECT_NE(jsonl.find("fed.hedge"), std::string::npos);
  EXPECT_NE(jsonl.find("serve.execute"), std::string::npos);
  slow_shard.stop();
  fast_shard.stop();
}

// --- connection pool --------------------------------------------------------

/// One shard with published epoch 1, for driving a raw ConnectionPool.
std::unique_ptr<InProcessShard> pool_shard(std::uint16_t port = 0) {
  InProcessShardOptions options;
  options.fleet = 1;
  options.engine = exact_tou_options();
  options.server = quick_server();
  options.server.port = port;
  auto shard = std::make_unique<InProcessShard>(options);
  shard->store().publish(shard_at(1, 1.0));
  return shard;
}

constexpr std::chrono::milliseconds kPoolTimeout{1000};

TEST(ConnectionPool, DistinctConnectionsExactCountsAndIdleBound) {
  auto shard = pool_shard();
  PoolOptions options;
  options.max_idle_per_endpoint = 1;
  ConnectionPool pool(options);

  // Two simultaneous checkouts (what hedged legs do) can never share: a
  // checked-out connection is out of the idle list until checked back in.
  ConnectionPool::Lease a = pool.checkout(shard->port(), kPoolTimeout);
  ConnectionPool::Lease b = pool.checkout(shard->port(), kPoolTimeout);
  ASSERT_NE(a.client, nullptr);
  ASSERT_NE(b.client, nullptr);
  EXPECT_NE(a.client.get(), b.client.get());
  EXPECT_FALSE(a.reused);
  EXPECT_FALSE(b.reused);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 0u);

  const Request request = make_request(QueryKind::kFleetPower, 0, 0, 0);
  EXPECT_TRUE(a.client->query(request).ok);
  EXPECT_TRUE(b.client->query(request).ok);

  // Idle bound 1: the second check-in closes instead of parking.
  pool.checkin(std::move(a));
  pool.checkin(std::move(b));
  EXPECT_EQ(pool.idle(shard->port()), 1u);
  EXPECT_EQ(pool.evictions(), 1u);

  // The parked connection is reused, and a deliberate discard evicts it.
  ConnectionPool::Lease c = pool.checkout(shard->port(), kPoolTimeout);
  EXPECT_TRUE(c.reused);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_TRUE(c.client->query(request).ok);
  pool.discard(std::move(c));
  EXPECT_EQ(pool.idle(shard->port()), 0u);
  EXPECT_EQ(pool.evictions(), 2u);
  EXPECT_EQ(pool.misses(), 2u);  // reuse and discard dialed nothing new.
  shard->stop();
}

TEST(ConnectionPool, StaleSocketIsDetectedAndReconnectedAfterRestart) {
  auto shard = pool_shard();
  const std::uint16_t port = shard->port();
  ConnectionPool pool{PoolOptions{}};
  const Request request = make_request(QueryKind::kFleetPower, 0, 0, 0);

  ConnectionPool::Lease lease = pool.checkout(port, kPoolTimeout);
  EXPECT_TRUE(lease.client->query(request).ok);
  pool.checkin(std::move(lease));

  // Restart the shard on the same port: the parked socket is now stale —
  // alive as a file descriptor, dead as a connection.
  shard->stop();
  shard = pool_shard(port);
  ASSERT_EQ(shard->port(), port);

  lease = pool.checkout(port, kPoolTimeout);
  EXPECT_TRUE(lease.reused);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_THROW((void)lease.client->query(request), std::runtime_error);

  // reconnect() replaces the stale socket with a fresh dial; it counts as a
  // reconnect, not a miss, and the stale socket counts as an eviction.
  lease = pool.reconnect(std::move(lease), kPoolTimeout);
  EXPECT_FALSE(lease.reused);
  EXPECT_TRUE(lease.client->query(request).ok);
  pool.checkin(std::move(lease));
  EXPECT_EQ(pool.reconnects(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_GE(pool.evictions(), 1u);
  shard->stop();
}

TEST(Federation, PooledFanoutReusesConnectionsAndCountsExactlyOnce) {
  Federation fed(/*ticks=*/4);
  ASSERT_NE(fed.frontend->pool(), nullptr);
  EXPECT_GT(fed.frontend->dispatch_workers(), 0u);

  const Request request =
      make_request(QueryKind::kTenantEnergy, 0, 0, 1, 1.0, 3.0);
  const Response first = fed.frontend->execute(request);
  ASSERT_TRUE(first.ok) << first.message;
  for (int i = 0; i < 4; ++i) {
    const Response again = fed.frontend->execute(request);
    EXPECT_EQ(serve::encode_response(again), serve::encode_response(first));
  }

  // Exactly one dial per shard ever; every later leg reuses. The counter
  // families and the pool's own accounting must agree exactly — a leg is a
  // hit or a miss, never both, never neither.
  ConnectionPool& pool = *fed.frontend->pool();
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(pool.hits(), 12u);
  EXPECT_EQ(pool.reconnects(), 0u);
  EXPECT_EQ(pool.evictions(), 0u);
  EXPECT_EQ(fed.metrics.counter("vmpower_fed_pool_misses_total", "").value(),
            3u);
  EXPECT_EQ(fed.metrics.counter("vmpower_fed_pool_hits_total", "").value(),
            12u);
  EXPECT_EQ(
      fed.metrics.counter("vmpower_fed_pool_reconnects_total", "").value(),
      0u);
  EXPECT_EQ(
      fed.metrics.counter("vmpower_fed_pool_evictions_total", "").value(),
      0u);
}

TEST(Federation, PooledFrontendSurvivesAShardRestartWithoutEjection) {
  FrontendOptions options;
  options.retries = 0;
  options.health.eject_after = 1;  // any counted failure would eject.
  Federation fed(/*ticks=*/4, options);
  const Request request = make_request(QueryKind::kFleetPower, 0, 0, 0);
  ASSERT_TRUE(fed.frontend->execute(request).ok);  // pool all 3 connections.

  // Bounce fleet 2's shard on the same port.
  const std::uint16_t port = fed.shards[1]->port();
  fed.shards[1]->stop();
  InProcessShardOptions shard_options;
  shard_options.fleet = 2;
  shard_options.engine = exact_tou_options();
  shard_options.server = quick_server();
  shard_options.server.port = port;
  fed.shards[1] = std::make_unique<InProcessShard>(shard_options);
  for (int t = 1; t <= 4; ++t)
    fed.shards[1]->store().publish(shard_at(2, t));

  // The pooled leg trips over its stale socket, reconnects once, and the
  // fan-out stays complete: a restart costs one reconnect, not a health
  // failure — with eject_after = 1 an uncounted failure is observable as
  // the shard staying admitted.
  const Response response = fed.frontend->execute(request);
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_TRUE(response.complete);
  EXPECT_FALSE(fed.frontend->health().ejected(2));
  EXPECT_EQ(fed.frontend->pool()->reconnects(), 1u);
}

TEST(Federation, TimedOutPooledConnectionIsDiscardedNotReused) {
  // A timed-out connection is indeterminate — the response may still be in
  // flight — so it must never be parked for reuse.
  InProcessShardOptions shard_options;
  shard_options.fleet = 1;
  shard_options.engine = exact_tou_options();
  shard_options.server = quick_server();
  shard_options.server.worker_delay = std::chrono::milliseconds(300);
  InProcessShard shard(shard_options);
  shard.store().publish(shard_at(1, 1.0));

  FrontendOptions options;
  options.deadline = std::chrono::milliseconds(50);
  options.retries = 0;
  FederationFrontend frontend(ShardMap({FleetShard{1, {shard.port()}}}),
                              options);
  const Response response =
      frontend.execute(make_request(QueryKind::kFleetPower, 0, 0, 0));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kUnavailable);
  ASSERT_NE(frontend.pool(), nullptr);
  EXPECT_EQ(frontend.pool()->idle(shard.port()), 0u);
  EXPECT_GE(frontend.pool()->evictions(), 1u);
  EXPECT_EQ(frontend.pool()->reconnects(), 0u);  // slow is not stale.
  shard.stop();
}

TEST(Federation, RetriesAreBoundedWhereTheBackoffShiftIsDefined) {
  // Retry k sleeps backoff * (1u << (k - 1)): past 32 retries the shift
  // leaves the 32-bit range, so validation stops there.
  auto shard = pool_shard();
  const std::uint16_t port = shard->port();
  shard->stop();
  const ShardMap map({FleetShard{1, {port}}});
  for (const std::uint32_t retries : {33u, 0xFFFFFFFFu}) {
    FrontendOptions options;
    options.retries = retries;
    EXPECT_THROW(options.validate(), std::invalid_argument) << retries;
    EXPECT_THROW((void)FederationFrontend(map, options), std::invalid_argument)
        << retries;
  }

  // The largest admitted count runs every attempt against the dead shard.
  fleet::Metrics metrics;
  FrontendOptions options;
  options.retries = 32;
  options.backoff = std::chrono::milliseconds(0);
  options.metrics = &metrics;
  FederationFrontend frontend(map, options);
  const Response down =
      frontend.execute(make_request(QueryKind::kFleetPower, 0, 0, 0));
  ASSERT_FALSE(down.ok);
  EXPECT_EQ(down.code, ErrorCode::kUnavailable);
  EXPECT_EQ(metrics.counter("vmpower_fed_retries_total", "").value(), 32u);
}

TEST(Federation, HedgedLegsUseThePoolWithoutSharingAConnection) {
  // Slow primary, fast replica, hedging on, pooled transport: the hedge leg
  // must check out its own connection (checkout removes it from the idle
  // list, so concurrent legs cannot alias), and both legs' connections are
  // accounted exactly once.
  InProcessShardOptions shard_options;
  shard_options.fleet = 1;
  shard_options.engine = exact_tou_options();
  shard_options.server = quick_server();
  shard_options.server.worker_delay = std::chrono::milliseconds(200);
  shard_options.replica = quick_server();
  InProcessShard shard(shard_options);
  shard.store().publish(shard_at(1, 1.0));

  FrontendOptions options;
  options.deadline = std::chrono::milliseconds(2000);
  options.retries = 0;
  options.hedge = true;
  options.hedge_delay = std::chrono::milliseconds(20);
  FederationFrontend frontend(
      ShardMap({FleetShard{1, {shard.port(), shard.replica_port()}}}),
      options);

  const Response response =
      frontend.execute(make_request(QueryKind::kFleetPower, 0, 0, 0));
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.values.at(0), 3.0);

  // Primary and replica are distinct endpoints, and neither had an idle
  // connection: both legs dialed. Wait out the stray primary leg (bounded
  // by its 200 ms stall), then both connections must be parked — one per
  // endpoint, none shared, none lost.
  ConnectionPool& pool = *frontend.pool();
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((pool.idle(shard.port()) + pool.idle(shard.replica_port())) < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(pool.idle(shard.port()), 1u);
  EXPECT_EQ(pool.idle(shard.replica_port()), 1u);

  // A second hedged query reuses both parked connections.
  const Response again =
      frontend.execute(make_request(QueryKind::kFleetPower, 0, 0, 0));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(serve::encode_response(again), serve::encode_response(response));
  EXPECT_EQ(pool.misses(), 2u);
  shard.stop();
}

}  // namespace
}  // namespace vmp::federate
