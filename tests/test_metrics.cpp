#include "fleet/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "fleet/engine.hpp"

namespace vmp::fleet {
namespace {

TEST(Metrics, CounterGaugeHistogramBasics) {
  Metrics metrics;
  Counter& counter = metrics.counter("c_total", "a counter");
  counter.inc();
  counter.inc(4);
  EXPECT_EQ(counter.value(), 5u);

  Gauge& gauge = metrics.gauge("g", "a gauge");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);

  HistogramMetric& histogram =
      metrics.histogram("h_seconds", "a histogram");
  histogram.observe(0.1);
  histogram.observe(0.3);
  histogram.observe(0.9);
  EXPECT_EQ(histogram.snapshot().count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.snapshot().sum(), 1.3);
}

TEST(Metrics, ReRegistrationReturnsSameInstrument) {
  Metrics metrics;
  Counter& first = metrics.counter("c_total", "help");
  Counter& again = metrics.counter("c_total", "different help ignored");
  EXPECT_EQ(&first, &again);
  first.inc();
  EXPECT_EQ(again.value(), 1u);
}

TEST(Metrics, KindConflictsAndReservedLabelsThrow) {
  Metrics metrics;
  metrics.counter("x", "h");
  EXPECT_THROW(metrics.gauge("x", "h"), std::invalid_argument);
  EXPECT_THROW(metrics.histogram("x", "h"), std::invalid_argument);
  // Labeled histograms are allowed, but `le` is reserved for the bucket
  // boundary the exporter appends itself. Only a key spelled exactly `le`
  // is refused: not a key ending in "le", nor "le=" inside a value.
  metrics.histogram("y{host=\"1\"}", "h");
  metrics.histogram("a_seconds{role=\"x\"}", "h");
  metrics.histogram("b_seconds{handle=\"x\"}", "h");
  metrics.histogram("c_seconds{path=\"le=1\"}", "h");
  metrics.histogram("d_seconds{path=\"a\\\",le=\\\"1\"}", "h");
  EXPECT_THROW(metrics.histogram("z{le=\"0.5\"}", "h"), std::invalid_argument);
  EXPECT_THROW(metrics.histogram("w{a=\"x\",le=\"1\"}", "h"),
               std::invalid_argument);
}

TEST(Metrics, LabeledHistogramMergesLeIntoExistingLabels) {
  Metrics metrics;
  HistogramMetric& fast =
      metrics.histogram("rpc_seconds{proto=\"binary\"}", "latency");
  HistogramMetric& slow =
      metrics.histogram("rpc_seconds{proto=\"text\"}", "latency");
  fast.observe(0.5);
  slow.observe(1.5);
  slow.observe(0.25);

  const std::string text = metrics.to_prometheus();
  // One family header; per-series buckets carry the user labels with le
  // merged after them, and sum/count keep the labels without le.
  EXPECT_NE(text.find("# TYPE rpc_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("rpc_seconds_bucket{proto=\"binary\",le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpc_seconds_bucket{proto=\"binary\",le=\"0.25\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpc_seconds_bucket{proto=\"binary\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpc_seconds_bucket{proto=\"text\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpc_seconds_bucket{proto=\"text\",le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpc_seconds_sum{proto=\"binary\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpc_seconds_count{proto=\"text\"} 2\n"),
            std::string::npos);
  // The bare-family spellings must not appear for labeled series.
  EXPECT_EQ(text.find("rpc_seconds_sum "), std::string::npos);
  EXPECT_EQ(text.find("rpc_seconds_bucket{le="), std::string::npos);
}

TEST(Metrics, PrometheusTextFormat) {
  Metrics metrics;
  metrics.counter("vmp_ticks_total", "ticks").inc(7);
  metrics.gauge("vmp_depth", "queue depth").set(3);
  HistogramMetric& histogram =
      metrics.histogram("vmp_latency_seconds", "latency");
  histogram.observe(0.5);
  histogram.observe(1.5);
  histogram.observe(1.6);

  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("# HELP vmp_ticks_total ticks\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vmp_ticks_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("vmp_ticks_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vmp_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("vmp_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vmp_latency_seconds histogram\n"),
            std::string::npos);
  // Buckets are cumulative and close with +Inf/sum/count.
  EXPECT_NE(text.find("vmp_latency_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vmp_latency_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vmp_latency_seconds_bucket{le=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("vmp_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("vmp_latency_seconds_sum 3.6\n"), std::string::npos);
  EXPECT_NE(text.find("vmp_latency_seconds_count 3\n"), std::string::npos);
}

TEST(Metrics, LabeledSeriesShareOneFamilyHeader) {
  Metrics metrics;
  metrics.gauge("err{host=\"0\"}", "per-host error").set(1);
  metrics.gauge("err{host=\"1\"}", "per-host error").set(2);
  const std::string text = metrics.to_prometheus();
  // One HELP/TYPE pair for the family, two series lines.
  std::size_t helps = 0, pos = 0;
  while ((pos = text.find("# HELP err ", pos)) != std::string::npos) {
    ++helps;
    ++pos;
  }
  EXPECT_EQ(helps, 1u);
  EXPECT_NE(text.find("err{host=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("err{host=\"1\"} 2\n"), std::string::npos);
}

TEST(Metrics, LabelValuesEscapePerExpositionGrammar) {
  Metrics metrics;
  metrics
      .gauge(obs::labeled("path_bytes", {{"path", "C:\\tmp\n\"x\""}}),
             "bytes per path")
      .set(1);
  const std::string text = metrics.to_prometheus();
  // Backslash, newline, and double quote must all be escaped in the value.
  EXPECT_NE(text.find("path_bytes{path=\"C:\\\\tmp\\n\\\"x\\\"\"} 1\n"),
            std::string::npos);

  // HELP text escapes backslash and newline (but not quotes).
  Metrics help_metrics;
  help_metrics.counter("c_total", "line1\nline2 \\ end").inc();
  const std::string help_text = help_metrics.to_prometheus();
  EXPECT_NE(help_text.find("# HELP c_total line1\\nline2 \\\\ end\n"),
            std::string::npos);
}

TEST(Metrics, FamilyHeadersSurviveUnrelatedNamesSortingBetweenSeries) {
  // '_' (0x5f) sorts before '{' (0x7b): "err_rate" lands between "err" and
  // "err{...}" in plain name order. Grouping must be by family, not by
  // sorted-name adjacency, or HELP/TYPE would repeat.
  Metrics metrics;
  metrics.gauge("err{host=\"0\"}", "per-host error").set(1);
  metrics.gauge("err_rate", "error rate").set(0.5);
  metrics.gauge("err", "total error").set(3);
  const std::string text = metrics.to_prometheus();

  std::size_t err_helps = 0, pos = 0;
  while ((pos = text.find("# HELP err ", pos)) != std::string::npos) {
    ++err_helps;
    ++pos;
  }
  EXPECT_EQ(err_helps, 1u);
  // Both err series sit in one contiguous block after their header.
  const std::size_t header = text.find("# TYPE err gauge\n");
  const std::size_t plain = text.find("\nerr 3\n");
  const std::size_t labeled_series = text.find("err{host=\"0\"} 1\n");
  const std::size_t other_header = text.find("# HELP err_rate ");
  ASSERT_NE(header, std::string::npos);
  ASSERT_NE(plain, std::string::npos);
  ASSERT_NE(labeled_series, std::string::npos);
  ASSERT_NE(other_header, std::string::npos);
  EXPECT_LT(header, plain);
  EXPECT_LT(header, labeled_series);
  EXPECT_TRUE(other_header < header ||
              (other_header > plain && other_header > labeled_series));
}

/// The cumulative counts of `family`'s bucket lines with label prefix
/// `labels` ("" or "a=\"x\","), as (le text, count) in exposition order.
std::vector<std::pair<std::string, std::uint64_t>> buckets_of(
    const std::string& text, const std::string& family,
    const std::string& labels = "") {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const std::string prefix = family + "_bucket{" + labels + "le=\"";
  std::size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const std::size_t le = pos + prefix.size();
    const std::size_t quote = text.find('"', le);
    const std::size_t space = text.find(' ', quote);
    out.emplace_back(text.substr(le, quote - le),
                     std::stoull(text.substr(space + 1)));
    pos = space;
  }
  return out;
}

TEST(Metrics, EmptyHistogramExposesZeroedCumulativeBuckets) {
  Metrics metrics;
  metrics.histogram("cold_seconds", "never observed");
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("# TYPE cold_seconds histogram\n"), std::string::npos);
  const auto buckets = buckets_of(text, "cold_seconds");
  ASSERT_EQ(buckets.size(), static_cast<std::size_t>(obs::kLadderMaxExponent -
                                                     obs::kLadderMinExponent +
                                                     2));
  for (const auto& [le, count] : buckets) EXPECT_EQ(count, 0u) << le;
  EXPECT_NE(text.find("cold_seconds_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("cold_seconds_count 0\n"), std::string::npos);
}

TEST(Metrics, EveryHistogramSharesOnePowerOfTwoLadder) {
  // le = 2^k s for k = −24 … 4, spelled so a parser reads back 2^k itself,
  // then +Inf; the same ladder for every series, whatever it observed.
  Metrics metrics;
  metrics.histogram("a_seconds", "a").observe(3e-6);
  metrics.histogram("b_seconds{host=\"1\"}", "b").observe(7.0);
  const std::string text = metrics.to_prometheus();
  const auto a = buckets_of(text, "a_seconds");
  const auto b = buckets_of(text, "b_seconds", "host=\"1\",");
  ASSERT_EQ(a.size(), 30u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    if (i + 1 < a.size()) {
      EXPECT_EQ(std::stod(a[i].first),
                std::ldexp(1.0, obs::kLadderMinExponent + static_cast<int>(i)))
          << a[i].first;
    }
  }
  EXPECT_EQ(a.front().first, "5.9604644775390625e-08");
  EXPECT_EQ(a[a.size() - 2].first, "16");
  EXPECT_EQ(a.back().first, "+Inf");
}

TEST(Metrics, HistogramBucketsAreCumulativeAndOrdered) {
  Metrics metrics;
  HistogramMetric& histogram = metrics.histogram("lat_seconds", "latency");
  // Boundary landing: a sample exactly on an edge counts in that edge's
  // bucket (le means <=) and not the one below, a negative one at every
  // edge, and one above the top edge in +Inf alone.
  histogram.observe(1.0);
  histogram.observe(-5.0);
  histogram.observe(99.0);
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"5.9604644775390625e-08\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.5\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"16\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  // Cumulative counts never decrease across ascending le.
  std::vector<std::uint64_t> counts;
  for (const auto& bucket : buckets_of(text, "lat_seconds"))
    counts.push_back(bucket.second);
  ASSERT_EQ(counts.size(), 30u);
  EXPECT_TRUE(std::is_sorted(counts.begin(), counts.end()));
}

TEST(Metrics, HistogramEdgesAreExactAtEveryRung) {
  // For every rung 2^k: a sample at 2^k counts at le=2^k and not at
  // 2^(k−1); the doubles just below and just above it land on either side.
  for (int k = obs::kLadderMinExponent + 1; k <= obs::kLadderMaxExponent;
       ++k) {
    const double edge = std::ldexp(1.0, k);
    Metrics metrics;
    metrics.histogram("at_seconds", "at").observe(edge);
    metrics.histogram("below_seconds", "below")
        .observe(std::nextafter(edge, 0.0));
    metrics.histogram("above_seconds", "above")
        .observe(std::nextafter(edge, 1e9));
    const std::string text = metrics.to_prometheus();
    const auto rung = static_cast<std::size_t>(k - obs::kLadderMinExponent);
    const auto at = buckets_of(text, "at_seconds");
    const auto below = buckets_of(text, "below_seconds");
    const auto above = buckets_of(text, "above_seconds");
    EXPECT_EQ(at[rung].second, 1u) << k;
    EXPECT_EQ(at[rung - 1].second, 0u) << k;
    EXPECT_EQ(below[rung].second, 1u) << k;
    EXPECT_EQ(below[rung - 1].second, 0u) << k;
    EXPECT_EQ(above[rung].second, 0u) << k;
    EXPECT_EQ(above[rung + 1].second, 1u) << k;  // 2^(k+1), or +Inf at the top.
  }
}

TEST(Metrics, HistogramSumIsTheSumOfTheSamples) {
  Metrics metrics;
  HistogramMetric& histogram = metrics.histogram("sum_seconds", "sum");
  double expected = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    const double value = 1e-6 * i * i;
    histogram.observe(value);
    expected += value;
  }
  EXPECT_EQ(histogram.snapshot().sum(), expected);
  EXPECT_EQ(histogram.snapshot().count(), 1000u);
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("sum_seconds_bucket{le=\"+Inf\"} 1000\n"),
            std::string::npos);
  EXPECT_NE(text.find("sum_seconds_count 1000\n"), std::string::npos);
}

TEST(Metrics, DumpIsDeterministicallySorted) {
  Metrics metrics;
  metrics.counter("b_total", "b").inc();
  metrics.counter("a_total", "a").inc();
  const std::string text = metrics.to_prometheus();
  EXPECT_LT(text.find("a_total"), text.find("b_total"));
  EXPECT_EQ(text, metrics.to_prometheus());
}

TEST(Metrics, HistogramLeBucketsCountOnlyValuesAtOrBelowTheEdge) {
  // Prometheus buckets count x <= le: a value past the top edge (16 s)
  // belongs in +Inf alone, whether or not the sketch's store reaches it,
  // and a value on an edge in that edge's bucket.
  Metrics metrics;
  HistogramMetric& histogram = metrics.histogram("lat_seconds", "latency");
  histogram.observe(20.0);
  histogram.observe(500.0);
  histogram.observe(0.25);
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.25\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"16\"} 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_seconds_count 3\n"), std::string::npos) << text;
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  Metrics metrics;
  Counter& counter = metrics.counter("hits_total", "hits");
  HistogramMetric& histogram =
      metrics.histogram("obs_seconds", "obs");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.inc();
        histogram.observe(0.5);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kIncrements);
  EXPECT_EQ(histogram.snapshot().count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, FleetExportsEstimatorLatency) {
  // End-to-end presence check: a real engine run must export the estimator's
  // per-call latency histogram, and neither a per-host table hit rate nor
  // per-kernel counters: one kernel runs, and it looks nothing up.
  const std::vector<common::VmConfig> fleet = {common::demo_c_vm(),
                                               common::demo_c_vm()};
  core::CollectionOptions collect;
  collect.duration_s = 10.0;
  const core::OfflineDataset dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), fleet, collect);

  FleetOptions options;
  options.hosts = 2;
  options.threads = 2;
  options.fleet_per_host = fleet;
  options.tenants = 2;
  options.retry_backoff_base = std::chrono::microseconds{0};
  FleetEngine engine(options, dataset);
  engine.run(3);

  const std::string text = engine.metrics().to_prometheus();
  EXPECT_NE(
      text.find("# TYPE vmpower_fleet_estimator_latency_seconds histogram"),
      std::string::npos);
  EXPECT_NE(text.find("vmpower_fleet_estimator_latency_seconds_count"),
            std::string::npos);
  EXPECT_EQ(text.find("vmpower_fleet_table_hit_rate"), std::string::npos);
  EXPECT_EQ(text.find("vmpower_fleet_kernel_selected_total"),
            std::string::npos);
}

TEST(Metrics, WritePrometheusFailsOnBadPath) {
  Metrics metrics;
  metrics.counter("c_total", "c");
  EXPECT_THROW(metrics.write_prometheus("/nonexistent-dir/metrics.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace vmp::fleet
