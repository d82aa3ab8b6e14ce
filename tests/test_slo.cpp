#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace vmp::obs {
namespace {

/// Tracker with a stepping fake clock (seconds granularity), over the
/// fixed 300 s fast and 3600 s slow windows.
struct Fixture {
  static_assert(kFastWindowS == 300 && kSlowWindowS == 3600);
  std::uint64_t now_s = 1000;
  SloOptions options;
  Fixture() {
    options.latency_threshold_s = 0.050;
    options.latency_objective = 0.99;
    options.clock = [this] { return now_s; };
  }
};

TEST(SloTracker, EmptyWindowsAreCompliantWithZeroBurn) {
  Fixture fx;
  SloTracker tracker(fx.options);
  const auto health = tracker.health();
  EXPECT_EQ(health.recorded, 0u);
  EXPECT_DOUBLE_EQ(health.latency_fast.compliance, 1.0);
  EXPECT_DOUBLE_EQ(health.latency_fast.burn_rate, 0.0);
  EXPECT_DOUBLE_EQ(health.availability_slow.compliance, 1.0);
}

TEST(SloTracker, LatencyBreachesBurnTheLatencyBudgetOnly) {
  Fixture fx;
  SloTracker tracker(fx.options);
  for (int i = 0; i < 99; ++i) tracker.record(0.001, false);
  tracker.record(0.200, false);  // slow but successful.
  const auto health = tracker.health();
  EXPECT_EQ(health.latency_fast.total, 100u);
  EXPECT_EQ(health.latency_fast.bad, 1u);
  EXPECT_DOUBLE_EQ(health.latency_fast.compliance, 0.99);
  // 1% bad over a 1% budget: burning exactly as provisioned.
  EXPECT_NEAR(health.latency_fast.burn_rate, 1.0, 1e-9);
  EXPECT_EQ(health.availability_fast.bad, 0u);
  EXPECT_DOUBLE_EQ(health.availability_fast.compliance, 1.0);
}

TEST(SloTracker, ErrorsCountAgainstBothObjectives) {
  // A timeout is both slow and failed; hiding it from the latency SLO would
  // flatter the tail exactly when it matters.
  Fixture fx;
  SloTracker tracker(fx.options);
  for (int i = 0; i < 9; ++i) tracker.record(0.001, false);
  tracker.record(0.250, true);
  const auto health = tracker.health();
  EXPECT_EQ(health.latency_fast.bad, 1u);
  EXPECT_EQ(health.availability_fast.bad, 1u);
  // 10% failures against a 0.1% budget: burn 100.
  EXPECT_NEAR(health.availability_fast.burn_rate, 100.0, 1e-6);
}

TEST(SloTracker, FastWindowForgetsWhatTheSlowWindowRemembers) {
  Fixture fx;
  SloTracker tracker(fx.options);
  for (int i = 0; i < 50; ++i) tracker.record(0.500, true);  // incident.
  fx.now_s += 600;  // beyond the 300 s fast window, inside the slow one.
  tracker.record(0.001, false);
  const auto health = tracker.health();
  EXPECT_EQ(health.latency_fast.total, 1u);
  EXPECT_EQ(health.latency_fast.bad, 0u);
  EXPECT_DOUBLE_EQ(health.latency_fast.compliance, 1.0);
  EXPECT_EQ(health.latency_slow.total, 51u);
  EXPECT_EQ(health.latency_slow.bad, 50u);
  EXPECT_LT(health.latency_slow.compliance, 0.05);
}

TEST(SloTracker, OldSlotsAreReclaimedAfterAFullWindowLap) {
  Fixture fx;
  SloTracker tracker(fx.options);
  tracker.record(0.500, true);
  fx.now_s += 4000;  // past even the slow window.
  tracker.record(0.001, false);
  const auto health = tracker.health();
  EXPECT_EQ(health.latency_slow.total, 1u);
  EXPECT_EQ(health.latency_slow.bad, 0u);
  EXPECT_EQ(health.recorded, 2u);  // lifetime counter never forgets.
}

TEST(SloTracker, RecordsSpreadAcrossSlotsInsideTheWindowAllCount) {
  Fixture fx;
  SloTracker tracker(fx.options);
  // Fast window 300 s over 60 slots = 5 s slots; touch many distinct slots.
  for (int i = 0; i < 30; ++i) {
    tracker.record(0.001, false);
    fx.now_s += 5;
  }
  const auto health = tracker.health();
  EXPECT_EQ(health.latency_fast.total, 30u);
}

TEST(SloTracker, PublishExportsGaugesAndCounters) {
  Fixture fx;
  MetricsRegistry metrics;
  fx.options.metrics = &metrics;
  SloTracker tracker(fx.options);
  for (int i = 0; i < 99; ++i) tracker.record(0.001, false);
  tracker.record(0.200, true);
  tracker.publish();
  const std::string dump = metrics.to_prometheus();
  EXPECT_NE(dump.find("vmpower_slo_requests_total 100"), std::string::npos);
  EXPECT_NE(dump.find("vmpower_slo_latency_breaches_total 1"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_slo_errors_total 1"), std::string::npos);
  EXPECT_NE(dump.find("vmpower_slo_compliance{objective=\"latency\","
                      "window=\"fast\"} 0.99"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_slo_burn_rate{objective=\"availability\","
                      "window=\"slow\"}"),
            std::string::npos);
}

TEST(SloTracker, TextRenderingCarriesEveryCell) {
  Fixture fx;
  SloTracker tracker(fx.options);
  tracker.record(0.001, false);
  const std::string text = tracker.to_text();
  EXPECT_NE(text.find("slo latency window=fast"), std::string::npos);
  EXPECT_NE(text.find("slo latency window=slow"), std::string::npos);
  EXPECT_NE(text.find("slo availability window=fast"), std::string::npos);
  EXPECT_NE(text.find("slo availability window=slow"), std::string::npos);
  EXPECT_NE(text.find("total=1"), std::string::npos);
  EXPECT_NE(text.find("burn="), std::string::npos);
}

TEST(SloTracker, ValidatesOptions) {
  Fixture fx;
  fx.options.latency_objective = 1.0;  // zero error budget divides by zero.
  EXPECT_THROW(SloTracker{fx.options}, std::invalid_argument);
}

}  // namespace
}  // namespace vmp::obs
