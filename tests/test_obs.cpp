// Observability layer: tracer ring + spans, invariant monitors, and the
// end-to-end efficiency-residual acceptance property on the fleet engine.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "fleet/engine.hpp"
#include "fleet/faults.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace vmp::obs {
namespace {

// --- Tracer ring ------------------------------------------------------------

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer(8);
  EXPECT_FALSE(tracer.enabled());
  tracer.record({"x", "test"});
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, RingKeepsNewestAndCountsOverwrites) {
  Tracer tracer(3);
  tracer.set_enabled(true);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    SpanEvent event;
    event.name = "tick";
    event.category = "test";
    event.span_id = i;
    tracer.record(event);
  }
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest first: 3, 4, 5 survived.
  EXPECT_EQ(events[0].span_id, 3u);
  EXPECT_EQ(events[2].span_id, 5u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, ChromeJsonlEmitsOneCompleteEventPerLine) {
  Tracer tracer(16);
  tracer.set_anchor(0);  // pin the wall anchor so ts is the raw start offset
  tracer.set_enabled(true);
  SpanEvent event;
  event.name = "fleet.tick";
  event.category = "fleet";
  event.trace_id = 7;
  event.span_id = 1;
  event.start_us = 10;
  event.duration_us = 4;
  event.thread = 2;
  tracer.record(event);

  const std::string jsonl = tracer.to_chrome_jsonl();
  // Exactly one newline-terminated object.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
  EXPECT_NE(jsonl.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"fleet.tick\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"cat\":\"fleet\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dur\":4"), std::string::npos);
  EXPECT_NE(jsonl.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace\":7"), std::string::npos);
}

TEST(Tracer, SpansInheritContextAndNestViaParentIds) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.clear();
  {
    TraceContext context(42);
    EXPECT_EQ(TraceContext::current_trace(), 42u);
    VMP_TRACE_SPAN("outer", "test");
    { VMP_TRACE_SPAN("inner", "test"); }
  }
  EXPECT_EQ(TraceContext::current_trace(), 0u);
  tracer.set_enabled(false);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first; both carry the ambient trace id and the inner span
  // parents on the outer one.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].trace_id, 42u);
  EXPECT_EQ(events[1].trace_id, 42u);
  EXPECT_EQ(events[0].parent_id, events[1].span_id);
  EXPECT_EQ(events[1].parent_id, 0u);
  EXPECT_GE(events[1].duration_us, events[0].duration_us);
  tracer.clear();
}

TEST(Tracer, ConcurrentRecordingIsLosslessUnderCapacity) {
  Tracer tracer(4096);
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SpanEvent event;
        event.name = "worker";
        event.category = "test";
        event.trace_id = static_cast<std::uint64_t>(t);
        event.span_id = tracer.next_span_id();
        tracer.record(event);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.size(), kThreads * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
  // Span ids were handed out exactly once.
  std::set<std::uint64_t> ids;
  for (const SpanEvent& event : tracer.snapshot()) ids.insert(event.span_id);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

// --- Invariant monitors -----------------------------------------------------

TEST(InvariantMonitor, EfficiencyBreachCountsAndStampsEpoch) {
  MetricsRegistry registry;
  InvariantOptions options;
  options.efficiency_residual_warn_w = 1e-3;
  InvariantMonitor monitor(registry, options);

  monitor.observe_efficiency(5, 1e-9);  // noise: no breach.
  EXPECT_EQ(monitor.breaches(), 0u);
  monitor.observe_efficiency(6, 0.5);  // billed power no meter saw.
  EXPECT_EQ(monitor.breaches(), 1u);

  const std::string dump = registry.to_prometheus();
  EXPECT_NE(dump.find("vmpower_invariant_efficiency_residual_w 0.5\n"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_invariant_epoch 6\n"), std::string::npos);
  EXPECT_NE(
      dump.find(
          "vmpower_invariant_breaches_total{invariant=\"efficiency\"} 1\n"),
      std::string::npos);
}

TEST(InvariantMonitor, WarnLogsAreRateLimitedButBreachesAllCount) {
  MetricsRegistry registry;
  InvariantOptions options;
  options.efficiency_residual_warn_w = 1e-3;
  options.warn_log_interval = 8;
  InvariantMonitor monitor(registry, options);

  std::vector<std::string> lines;
  util::set_log_sink([&lines](util::LogLevel, std::string_view line) {
    lines.emplace_back(line);
  });
  for (std::uint64_t epoch = 1; epoch <= 20; ++epoch)
    monitor.observe_efficiency(epoch, 1.0);
  util::set_log_sink({});

  EXPECT_EQ(monitor.breaches(), 20u);
  // Epochs 1, 9, 17 log; the rest are throttled.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("invariant=efficiency"), std::string::npos);
  EXPECT_NE(lines[0].find("epoch=1 "), std::string::npos);
  EXPECT_NE(lines[1].find("epoch=9 "), std::string::npos);
  EXPECT_NE(lines[2].find("epoch=17 "), std::string::npos);
}

TEST(InvariantMonitor, ServeAccountingBreachesOnSurplusAndIdleDeficit) {
  MetricsRegistry registry;
  InvariantMonitor monitor(registry, {});
  // Balanced books: every admitted request answered, nothing in flight.
  monitor.observe_serve_accounting(1, 10, 10, 0);
  EXPECT_EQ(monitor.breaches(), 0u);
  // A deficit while work is outstanding is normal pipelining, not a breach.
  monitor.observe_serve_accounting(2, 12, 10, 2);
  EXPECT_EQ(monitor.breaches(), 0u);
  // A deficit with *nothing* in flight means a request was dropped.
  monitor.observe_serve_accounting(3, 12, 11, 0);
  EXPECT_EQ(monitor.breaches(), 1u);
  // A surplus means some request id was answered twice.
  monitor.observe_serve_accounting(4, 12, 13, 0);
  EXPECT_EQ(monitor.breaches(), 2u);

  const std::string dump = registry.to_prometheus();
  EXPECT_NE(dump.find("vmpower_serve_outstanding 0\n"), std::string::npos);
  EXPECT_NE(
      dump.find(
          "vmpower_invariant_breaches_total{invariant=\"serve_exactly_once\"}"
          " 2\n"),
      std::string::npos);
}

TEST(InvariantMonitor, RingObservationsExportWithoutWarning) {
  MetricsRegistry registry;
  InvariantMonitor monitor(registry, {});
  monitor.observe_ring(12, 4, 4, 8);  // full ring + evictions: by design.
  EXPECT_EQ(monitor.breaches(), 0u);
  const std::string dump = registry.to_prometheus();
  EXPECT_NE(dump.find("vmpower_serve_snapshot_ring_occupancy 4\n"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_snapshot_ring_retention 4\n"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_snapshot_evictions_total 8\n"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_snapshot_epoch 12\n"),
            std::string::npos);
}

// --- End-to-end efficiency residual ----------------------------------------

class ResidualTest : public ::testing::Test {
 protected:
  std::vector<common::VmConfig> fleet_ = {common::demo_c_vm(),
                                          common::demo_c_vm()};
  core::OfflineDataset dataset_ = [this] {
    core::CollectionOptions options;
    options.duration_s = 30.0;
    return core::collect_offline_dataset(sim::xeon_prototype(), fleet_,
                                         options);
  }();

  fleet::FleetOptions options_for() const {
    fleet::FleetOptions options;
    options.hosts = 3;
    options.threads = 1;
    options.fleet_per_host = fleet_;
    options.tenants = 2;
    options.seed = 7;
    options.retry_backoff_base = std::chrono::microseconds{0};
    return options;
  }
};

TEST_F(ResidualTest, FaultFreeResidualIsFloatingPointNoise) {
  fleet::FleetEngine engine(options_for(), dataset_);
  double max_residual = 0.0;
  engine.set_tick_observer([&max_residual](const fleet::FleetEngine& e,
                                           std::uint64_t,
                                           const auto&) {
    max_residual = std::max(max_residual, e.efficiency_residual_w());
  });
  engine.run(20);
  // The anchored estimator satisfies Efficiency exactly: Σφ equals the
  // measured adjusted power up to floating-point association error.
  EXPECT_LT(max_residual, 1e-6);
  EXPECT_EQ(engine.invariants().breaches(), 0u);
}

TEST_F(ResidualTest, MeterFaultsProduceNonzeroResidualAndBreach) {
  fleet::FleetOptions options = options_for();
  options.faults = fleet::parse_fault_spec("meter:1.0");
  fleet::FleetEngine engine(options, dataset_);
  double max_residual = 0.0;
  engine.set_tick_observer([&max_residual](const fleet::FleetEngine& e,
                                           std::uint64_t,
                                           const auto&) {
    max_residual = std::max(max_residual, e.efficiency_residual_w());
  });
  engine.run(20);
  // Every tick bills from carried estimates while the simulator's true draw
  // moves on: power was billed that no meter saw.
  EXPECT_GT(max_residual, 1e-3);
  EXPECT_GT(engine.invariants().breaches(), 0u);

  const std::string dump = engine.metrics().to_prometheus();
  EXPECT_NE(
      dump.find("vmpower_invariant_breaches_total{invariant=\"efficiency\"}"),
      std::string::npos);
}

}  // namespace
}  // namespace vmp::obs
