// Unified metrics registry: counters, gauges, and labeled histograms behind
// one Prometheus text-format exposition writer.
//
// Every subsystem (core estimator selection, fleet engine, query service,
// invariant monitors) registers into one MetricsRegistry, so a single
// scrape — the serve METRICS command, or the --metrics file dump — covers
// the whole process. Registration returns a stable typed handle; metric
// names may carry Prometheus labels inline ("...{host=\"3\"}") on every
// kind. Use labeled() to build such names: it escapes label values per the
// exposition-format grammar, which hand-built names would get wrong.
//
// A histogram is one util::QuantileSketch, the same type as the serve
// profiler's stage sketches, so a histogram takes no bucket layout: every
// series is exported on one ladder, le = 2^k s for k = kLadderMinExponent …
// kLadderMaxExponent (≈ 60 ns … 16 s), plus +Inf. Each power of two is a
// sketch bucket edge, so every cumulative count is exact.
//
// Exposition guarantees (audited against the Prometheus text-format spec,
// and machine-checked by tools/validate_prom.py in CI):
//   * # HELP / # TYPE exactly once per family, emitted before the family's
//     first sample, even when an unrelated name sorts between two series of
//     the same family ("fam_other" between "fam" and "fam{a=...}");
//   * HELP text escapes backslash and newline; label values escape
//     backslash, double-quote, and newline;
//   * histogram buckets are cumulative on the one ladder above, always
//     closed by +Inf whose count equals _count, with the series' own labels
//     merged ahead of the reserved le label;
//   * one kind per family — registering "f{a=\"1\"}" as a counter and
//     "f{b=\"2\"}" as a gauge throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "util/quantile_sketch.hpp"

namespace vmp::obs {

/// The `le` ladder of every histogram series: 2^k s for k in
/// [kLadderMinExponent, kLadderMaxExponent], then +Inf.
inline constexpr int kLadderMinExponent = -24;
inline constexpr int kLadderMaxExponent = 4;
static_assert(kLadderMinExponent >= util::QuantileSketch::kMinExponent &&
              kLadderMaxExponent < util::QuantileSketch::kMaxExponent);

/// Monotonically increasing integer metric.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins floating-point metric.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency distribution: one util::QuantileSketch behind a mutex, exported
/// as cumulative `le` counts on the ladder above plus the sum/count the
/// exposition expects. A value counts at every edge >= it, and a value above
/// the top edge in +Inf alone.
class HistogramMetric {
 public:
  void observe(double value);
  /// A copy of the sketch, taken under the lock.
  [[nodiscard]] util::QuantileSketch snapshot() const;

 private:
  mutable std::mutex mutex_;
  util::QuantileSketch sketch_;
};

/// Escapes a label value per the exposition grammar: backslash, double
/// quote, and newline.
[[nodiscard]] std::string escape_label_value(std::string_view value);

/// Builds "family{k1=\"v1\",k2=\"v2\"}" with the values escaped. An empty
/// label list returns the bare family name.
[[nodiscard]] std::string labeled(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// A registry handle resolved on first use and kept in `slot`: the first call
/// runs `resolve` (a registry lookup, so the series appears in a scrape only
/// once something uses it, as with a per-call lookup) and every later call
/// is one atomic load. Safe from any thread: racing first uses resolve the
/// same instrument.
template <typename T, typename Resolve>
T& resolve_once(std::atomic<T*>& slot, Resolve&& resolve) {
  T* handle = slot.load(std::memory_order_acquire);
  if (handle == nullptr) {
    handle = &resolve();
    slot.store(handle, std::memory_order_release);
  }
  return *handle;
}

/// Thread-safe metric registry. Registration returns a stable reference;
/// re-registering the same name returns the existing instrument (the help
/// text of the first registration wins). A name or family already
/// registered as a different kind throws std::invalid_argument.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  /// Throws std::invalid_argument when the name's labels include the
  /// reserved `le`.
  HistogramMetric& histogram(const std::string& name, const std::string& help);

  /// Prometheus text exposition format, families sorted by name.
  [[nodiscard]] std::string to_prometheus() const;

  /// Writes to_prometheus() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_prometheus(const std::filesystem::path& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  /// Registration guts: name-level and family-level kind checks, then the
  /// entry (created on first sight). Caller holds the mutex.
  Entry& entry_for(const std::string& name, const std::string& help,
                   Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;       // ordered => diffable dumps.
  std::map<std::string, Kind> family_kinds_;   // one kind per family.
};

}  // namespace vmp::obs
