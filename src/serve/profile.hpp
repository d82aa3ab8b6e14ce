// Per-query latency profiling for the serve tier.
//
// Every admitted request can carry a StageProfile through its whole life:
// the server stamps admission and queue-wait (zero for an in-order request,
// which is answered on the reader that read it), the dispatcher stamps
// execute and serialize, the query engine stamps cache-probe and
// coalesce-hold from inside the engine (via a thread-local ambient pointer,
// so the engine needs no plumbing through its API), and the final write is
// stamped when the response bytes actually go out. The finished profile
// lands in the ServeProfiler:
//
//  * per-stage streaming quantile sketches (util::QuantileSketch — relative
//    error, no pre-declared buckets, so a 300 ns cache probe and a 2 s
//    coalesce hold are equally well resolved), published on scrape as the
//    vmpower_serve_stage_* gauge families;
//  * a bounded structured slow-query log, triggered by an absolute latency
//    threshold or by overrunning the deadline budget the client declared in
//    its trace context, each entry carrying the full stage breakdown plus
//    the trace id — the "why was *this* query slow" record;
//  * the SLO tracker (latency/availability objectives with burn rates).
//
// Everything here is null-safe by construction: a server without a profiler
// allocates no profiles, and the engine's thread-local hook is a no-op
// whenever no profile is ambient (the in-process transport, benches, the
// fleet tick path).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serve/protocol.hpp"
#include "util/quantile_sketch.hpp"

namespace vmp::serve {

/// Pipeline stages of one serve-tier query, in wall order.
enum class Stage : std::uint8_t {
  kAdmission = 0,   ///< token bucket (+ queue push for an id'd request).
  kQueueWait,       ///< enqueue -> worker pickup; 0 for in-order requests.
  kExecute,         ///< QueryHandler::execute (includes the two below).
  kCacheProbe,      ///< result-cache shard lookups inside execute.
  kCoalesceHold,    ///< follower wait on an in-flight leader's response.
  kSerialize,       ///< response encode (binary body or text line).
  kWrite,           ///< response ready -> bytes written.
};
inline constexpr std::size_t kStageCount = 7;

[[nodiscard]] const char* to_string(Stage stage) noexcept;

/// One query's breakdown; plain data, on the reader's stack for an in-order
/// request and owned by the task that carries an id'd one to its worker.
struct StageProfile {
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;  ///< request id unless the wire carried one.
  std::uint64_t budget_us = 0; ///< declared deadline budget; 0 = none.
  QueryKind kind = QueryKind::kStats;
  bool error = false;  ///< the response was an ERR (sheds included).
  double stage_s[kStageCount] = {};
  double total_s = 0.0;  ///< read edge -> write completed.

  // Server-side bookkeeping for the stages RAII timers cannot measure (the
  // queue wait spans two threads; the total spans the whole request).
  std::uint64_t start_ns = 0;    ///< read edge (steady ns).
  std::uint64_t enqueue_ns = 0;  ///< admission queued the task.

  void add(Stage stage, double seconds) noexcept {
    stage_s[static_cast<std::size_t>(stage)] += seconds;
  }
  [[nodiscard]] double stage(Stage stage) const noexcept {
    return stage_s[static_cast<std::size_t>(stage)];
  }
  /// True when a declared budget was overrun.
  [[nodiscard]] bool over_budget() const noexcept {
    return budget_us != 0 && total_s * 1e6 > static_cast<double>(budget_us);
  }
};

/// The profile ambient on this thread (null when profiling is off or the
/// caller is not answering a profiled request).
[[nodiscard]] StageProfile* current_stage_profile() noexcept;

/// Steady nanoseconds for the StageProfile timestamps above.
[[nodiscard]] std::uint64_t profile_now_ns() noexcept;

/// Makes `profile` ambient for the scope (nest-safe; restores on exit).
class StageProfileScope {
 public:
  explicit StageProfileScope(StageProfile* profile) noexcept;
  ~StageProfileScope();
  StageProfileScope(const StageProfileScope&) = delete;
  StageProfileScope& operator=(const StageProfileScope&) = delete;

 private:
  StageProfile* saved_;
};

/// Adds its scope's elapsed time to one stage of a profile. The one-argument
/// form binds to the ambient profile at construction and is free (no clock
/// read) when none is ambient.
class StageTimer {
 public:
  explicit StageTimer(Stage stage) noexcept
      : StageTimer(stage, current_stage_profile()) {}
  StageTimer(Stage stage, StageProfile* profile) noexcept;
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageProfile* profile_;
  Stage stage_;
  std::uint64_t start_ns_ = 0;
};

/// One slow-query log entry: the full breakdown plus why it was logged.
struct SlowQueryRecord {
  StageProfile profile;
  std::uint64_t seq = 0;        ///< monotone slow-query index (never reused).
  const char* trigger = "";     ///< "threshold" or "budget".
};

/// Slow-query log depth; the oldest entry is dropped (and counted) when full.
inline constexpr std::size_t kSlowLogCapacity = 64;

struct ServeProfilerOptions {
  /// Queries at or over this total latency enter the slow-query log.
  double slow_threshold_s = 0.050;
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional: every finished profile feeds record(total_s, error).
  obs::SloTracker* slo = nullptr;
};

/// Thread-safe sink for finished StageProfiles; the server owns one and the
/// dispatcher renders it for the HEALTH scrape command.
class ServeProfiler {
 public:
  explicit ServeProfiler(ServeProfilerOptions options = {});

  void observe(const StageProfile& profile);

  [[nodiscard]] std::uint64_t observed() const;
  /// Copy of one stage's sketch (for tests and HEALTH rendering).
  [[nodiscard]] util::QuantileSketch stage_sketch(Stage stage) const;
  [[nodiscard]] util::QuantileSketch total_sketch() const;
  /// Slow-log snapshot, oldest first.
  [[nodiscard]] std::vector<SlowQueryRecord> slow_queries() const;
  [[nodiscard]] std::uint64_t slow_dropped() const;

  /// Pushes current sketch quantiles into the vmpower_serve_stage_* gauges
  /// and the SLO gauges. Called on scrape, not per query.
  void publish();

  /// Plain-text health payload (stage quantiles, SLO cells, slow-query
  /// log) for the HEALTH command; also publishes.
  [[nodiscard]] std::string health_text();

  [[nodiscard]] obs::SloTracker* slo() const noexcept { return options_.slo; }

 private:
  ServeProfilerOptions options_;
  obs::Counter* slow_threshold_counter_ = nullptr;
  obs::Counter* slow_budget_counter_ = nullptr;
  obs::Counter* profiled_counter_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<util::QuantileSketch> stage_sketches_;  ///< kStageCount of them.
  util::QuantileSketch total_sketch_;
  std::uint64_t observed_ = 0;
  std::deque<SlowQueryRecord> slow_log_;
  std::uint64_t slow_seq_ = 0;
  std::uint64_t slow_dropped_ = 0;
};

}  // namespace vmp::serve
