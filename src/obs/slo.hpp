// Rolling-window SLO tracking for the serve/federation tiers.
//
// An SLO here is an objective over a rolling window: "99% of queries finish
// under 50 ms over the last hour", "99.9% of queries succeed". SloTracker
// accepts one record(latency, error) call per finished query and maintains
// two windows per objective — a *fast* window that reacts to incidents in
// minutes and a *slow* window that reflects sustained compliance — using
// slotted rings (fixed slot count, constant memory, O(1) record) rather
// than storing per-query samples.
//
// The exported signal is the *burn rate*: the ratio of the observed
// bad-event fraction to the error budget (1 - objective). Burn 1.0 means
// the budget is being consumed exactly as provisioned; burn 10 on the fast
// window plus burn >1 on the slow window is the classic page condition.
// Gauges land in the shared MetricsRegistry as
//   vmpower_slo_compliance{objective=...,window=...}
//   vmpower_slo_burn_rate{objective=...,window=...}
// and the same numbers render as text for the HEALTH scrape command.
//
// The clock is injectable (seconds granularity) so tests can step time
// deterministically across slot and window boundaries.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"

namespace vmp::obs {

/// Target fraction of queries that do not fail (error budget 0.1%).
inline constexpr double kAvailabilityObjective = 0.999;
/// Rolling windows, seconds. Fast reacts to incidents, slow reflects
/// sustained health.
inline constexpr std::uint64_t kFastWindowS = 300;
inline constexpr std::uint64_t kSlowWindowS = 3600;

struct SloOptions {
  /// A query at or above this latency breaches the latency objective.
  double latency_threshold_s = 0.050;
  /// Target fraction of queries under the threshold (error budget 1%).
  double latency_objective = 0.99;
  /// Seconds-granularity clock; defaults to the steady clock. Injectable
  /// for deterministic tests.
  std::function<std::uint64_t()> clock;
  /// Optional registry for the vmpower_slo_* gauges/counters.
  MetricsRegistry* metrics = nullptr;
};

class SloTracker {
 public:
  explicit SloTracker(SloOptions options);

  /// One finished query. An errored query burns the availability budget;
  /// its latency still counts against the latency objective (a timeout is
  /// both slow and failed, and hiding it from the latency SLO would flatter
  /// the tail exactly when it matters).
  void record(double latency_s, bool error);

  /// Point-in-time view of one (objective, window) cell.
  struct WindowHealth {
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
    double compliance = 1.0;  ///< good / total; 1.0 when the window is empty.
    double burn_rate = 0.0;   ///< bad fraction / (1 - objective).
  };
  struct Health {
    WindowHealth latency_fast, latency_slow;
    WindowHealth availability_fast, availability_slow;
    std::uint64_t recorded = 0;  ///< lifetime record() calls.
  };
  [[nodiscard]] Health health() const;

  /// Recomputes health and pushes it into the registry gauges (no-op
  /// without a registry). Called on scrape, not per query.
  void publish();

  /// Plain-text rendering for the HEALTH command, one cell per line:
  ///   slo latency window=fast objective=0.990 total=812 bad=3
  ///       compliance=0.996305 burn=0.369458
  [[nodiscard]] std::string to_text() const;

 private:
  static constexpr std::size_t kSlots = 60;
  static_assert(kFastWindowS % kSlots == 0 && kSlowWindowS % kSlots == 0,
                "a window is a whole number of slots");

  /// Slotted ring: slot i covers seconds [stamp*width, (stamp+1)*width).
  /// A slot whose stamp is stale is zeroed on first touch, so memory stays
  /// constant no matter how long the tracker lives.
  struct Ring {
    explicit Ring(std::uint64_t window_s) : width_s(window_s / kSlots) {}

    const std::uint64_t width_s;
    struct Slot {
      std::uint64_t stamp = 0;  ///< now_s / width_s when last written.
      std::uint64_t total = 0;
      std::uint64_t slow = 0;
      std::uint64_t errors = 0;
    };
    Slot slots[kSlots];

    void record(std::uint64_t now_s, bool slow, bool error);
    /// Sums slots still inside the window ending now.
    void sum(std::uint64_t now_s, std::uint64_t& total, std::uint64_t& slow,
             std::uint64_t& errors) const;
  };

  [[nodiscard]] static WindowHealth cell(std::uint64_t total,
                                         std::uint64_t bad, double objective);
  [[nodiscard]] Health health_locked() const;

  SloOptions options_;
  mutable std::mutex mutex_;
  Ring fast_{kFastWindowS};
  Ring slow_{kSlowWindowS};
  std::uint64_t recorded_ = 0;

  Counter* requests_ = nullptr;
  Counter* latency_breaches_ = nullptr;
  Counter* errors_ = nullptr;
  Gauge* gauges_[8] = {};  ///< compliance+burn × objective × window.
};

}  // namespace vmp::obs
