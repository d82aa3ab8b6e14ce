// End-to-end tracing: RAII spans over the metering, serve, and federation
// pipelines.
//
// A Span measures one named phase (collect, worth lookup, Shapley kernel,
// aggregate, snapshot publish, parse, admission, shard fan-out, ...) and
// records a completed event into the process-wide Tracer's bounded in-memory
// ring. Spans carry explicit ids: a *trace id* groups every span of one
// logical unit of work (a fleet tick, or one query — stamped from the
// client's request id when the wire framing carries one), a *span id* names
// the span itself, and a *parent id* links nested spans, maintained through
// a thread-local context so instrumentation sites never thread ids by hand.
// TraceContext carries the trace id across explicit boundaries (the engine
// sets it inside each worker-pool task, the dispatcher per request); the
// two-argument form additionally seeds the *parent span*, which is how a
// remote parent — a federation frontend's per-shard attempt span, carried
// over the wire as serve::TraceContextWire — adopts the spans a shard server
// opens on its behalf. current_span() exposes the innermost open span id so
// a caller can hand it to a downstream process as that parent. ManualSpan is
// the unscoped form for phases that overlap on one thread (the shard legs of
// a federated fan-out): it takes its parent explicitly and ends on request.
//
// Clock model: span timestamps are *steady-clock* offsets from the tracer's
// construction, so a wall-clock adjustment (NTP step, manual set) can never
// reorder or negate exported durations. Export adds a fixed *wall-clock
// anchor* sampled once at construction (overridable via set_anchor), which
// places every process's spans on the shared wall-clock axis: two processes
// tracing one federated query emit directly overlayable timestamps, and the
// child spans of a fan-out share the parent's anchor axis by construction.
//
// The ring exports Chrome trace-event JSONL — one complete-event ("ph":"X")
// object per line, loadable by chrome://tracing and Perfetto — via
// `vmpower trace`, the serve text-protocol TRACE command, or
// Tracer::write_chrome_jsonl.
//
// Cost model: tracing is OFF at runtime by default; a disarmed span is one
// relaxed atomic load. Configuring with -DVMPOWER_TRACING=OFF compiles the
// macros down to nothing, for the zero-cost proof in EXPERIMENTS.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#ifndef VMPOWER_TRACING_COMPILED
#define VMPOWER_TRACING_COMPILED 1
#endif

namespace vmp::obs {

/// One completed span. `name` and `category` must be string literals (the
/// instrumentation sites all use them; events never outlive the binary).
struct SpanEvent {
  const char* name = "";
  const char* category = "";
  std::uint64_t trace_id = 0;   ///< logical unit of work (tick / request id).
  std::uint64_t span_id = 0;    ///< unique per recorded span.
  std::uint64_t parent_id = 0;  ///< enclosing span (same thread or remote).
  std::uint32_t thread = 0;     ///< small per-thread ordinal, stable per run.
  std::uint64_t start_us = 0;   ///< steady microseconds since construction.
  std::uint64_t duration_us = 0;
  /// Optional single numeric annotation ("fleet"=3, "attempt"=1, ...);
  /// `detail_key` must be a string literal, null when unused.
  const char* detail_key = nullptr;
  std::uint64_t detail = 0;
};

/// Thread-safe bounded ring of completed spans. When full, the oldest event
/// is overwritten and counted in dropped() — tracing never grows unbounded
/// and never blocks the pipeline on an exporter.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 32768);

  /// The process-wide tracer every span records into.
  [[nodiscard]] static Tracer& global();

  /// Runtime arm/disarm; a disarmed tracer makes spans free apart from one
  /// relaxed load. Also reachable via the VMPOWER_TRACING environment
  /// variable ("1"/"ON" arms the global tracer at first use).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const SpanEvent& event);
  [[nodiscard]] std::uint64_t next_span_id() noexcept {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Small stable ordinal for the calling thread (Chrome's tid field).
  [[nodiscard]] std::uint32_t thread_ordinal();

  /// Copy of the ring, oldest first.
  [[nodiscard]] std::vector<SpanEvent> snapshot() const;
  void clear();
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Steady microseconds since tracer construction (the event clock). Immune
  /// to wall-clock adjustment, so recorded spans are always monotone.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Wall-clock microseconds (Unix epoch) corresponding to event time 0.
  /// Sampled once at construction; exported timestamps are
  /// anchor_us() + start_us, which keeps them monotone (the anchor never
  /// moves) while placing them on the shared cross-process wall axis.
  [[nodiscard]] std::uint64_t anchor_us() const noexcept {
    return anchor_us_.load(std::memory_order_relaxed);
  }
  /// Rebases the export anchor (tests pin it; a federation driver may copy
  /// the parent process's anchor so stitched trees share one axis exactly).
  void set_anchor(std::uint64_t wall_us) noexcept {
    anchor_us_.store(wall_us, std::memory_order_relaxed);
  }

  /// Chrome trace-event JSONL: one {"ph":"X",...} object per line, with
  /// ts = anchor_us() + start_us.
  [[nodiscard]] std::string to_chrome_jsonl() const;
  /// Writes to_chrome_jsonl() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_chrome_jsonl(const std::filesystem::path& path) const;

 private:
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_span_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint32_t> next_thread_{0};
  std::uint64_t epoch_ns_;  ///< steady_clock at construction.
  std::atomic<std::uint64_t> anchor_us_{0};  ///< wall clock at construction.
  mutable std::mutex mutex_;
  std::vector<SpanEvent> ring_;  ///< circular; head_ is the oldest slot.
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Formats one event as a Chrome trace-event JSON object (no newline);
/// `anchor_us` shifts the exported ts onto the wall-clock axis.
[[nodiscard]] std::string to_chrome_json(const SpanEvent& event,
                                         std::uint64_t anchor_us = 0);

namespace detail {
/// Thread-local ambient ids spans inherit; exposed for the Span/TraceContext
/// implementations only.
struct ThreadTraceState {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};
[[nodiscard]] ThreadTraceState& thread_trace_state() noexcept;
}  // namespace detail

/// Scoped trace id: every span opened on this thread inside the scope
/// belongs to `trace_id` (unless it overrides explicitly). The optional
/// `parent_span` seeds the ambient parent, so the scope's first spans become
/// children of a span owned elsewhere — another thread, or another process
/// that shipped its span id over the wire. Nest-safe.
class TraceContext {
 public:
  explicit TraceContext(std::uint64_t trace_id,
                        std::uint64_t parent_span = 0) noexcept
      : saved_(detail::thread_trace_state()) {
    detail::thread_trace_state().trace_id = trace_id;
    detail::thread_trace_state().parent_span = parent_span;
  }
  ~TraceContext() { detail::thread_trace_state() = saved_; }

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  [[nodiscard]] static std::uint64_t current_trace() noexcept {
    return detail::thread_trace_state().trace_id;
  }

 private:
  detail::ThreadTraceState saved_;
};

/// The innermost open span on this thread (0 outside any span). This is the
/// id to hand a downstream process as its remote parent.
[[nodiscard]] inline std::uint64_t current_span() noexcept {
  return detail::thread_trace_state().parent_span;
}

/// RAII span: armed only when the global tracer is enabled; records one
/// SpanEvent on destruction. Name/category must be string literals.
class Span {
 public:
  Span(const char* name, const char* category) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches one numeric annotation exported in the Chrome args object
  /// ("fleet": 3). `key` must be a string literal; no-op when disarmed.
  void note(const char* key, std::uint64_t value) noexcept {
    if (!armed_) return;
    detail_key_ = key;
    detail_ = value;
  }

 private:
  const char* name_;
  const char* category_;
  bool armed_ = false;
  std::uint64_t span_id_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t start_us_ = 0;
  const char* detail_key_ = nullptr;
  std::uint64_t detail_ = 0;
};

/// A span begun and ended by explicit calls instead of a scope, for work that
/// interleaves on one thread and so cannot nest: the overlapping shard legs
/// of one federated fan-out. It neither reads nor moves the thread's ambient
/// parent; a child names it through id(). Disarmed (id() 0, end() records
/// nothing) when the tracer was off at construction or tracing is compiled
/// out. Name, category and detail key must be string literals.
class ManualSpan {
 public:
  ManualSpan() noexcept = default;
  ManualSpan(const char* name, const char* category, std::uint64_t trace_id,
             std::uint64_t parent_id, const char* detail_key,
             std::uint64_t detail) noexcept;

  [[nodiscard]] std::uint64_t id() const noexcept { return event_.span_id; }
  /// Records the span as ending now; later calls record nothing.
  void end() noexcept;

 private:
  SpanEvent event_;
};

/// No-op stand-in for Span, declared by the compiled-out expansion of
/// VMP_TRACE_NAMED_SPAN so call sites can keep their .note() calls.
struct NullSpan {
  void note(const char*, std::uint64_t) noexcept {}
};

}  // namespace vmp::obs

// Span macros: compiled out entirely under -DVMPOWER_TRACING=OFF so the
// tracing-off build carries zero instrumentation cost.
#if VMPOWER_TRACING_COMPILED
#define VMP_TRACE_CONCAT_INNER(a, b) a##b
#define VMP_TRACE_CONCAT(a, b) VMP_TRACE_CONCAT_INNER(a, b)
#define VMP_TRACE_SPAN(name, category) \
  ::vmp::obs::Span VMP_TRACE_CONCAT(vmp_span_, __LINE__) { name, category }
// Named span for sites that annotate (span.note("fleet", 3)).
#define VMP_TRACE_NAMED_SPAN(var, name, category) \
  ::vmp::obs::Span var { name, category }
#define VMP_TRACE_CONTEXT(trace_id) \
  ::vmp::obs::TraceContext VMP_TRACE_CONCAT(vmp_trace_ctx_, __LINE__) { \
    trace_id \
  }
#define VMP_TRACE_CONTEXT_PARENTED(trace_id, parent_span) \
  ::vmp::obs::TraceContext VMP_TRACE_CONCAT(vmp_trace_ctx_, __LINE__) { \
    trace_id, parent_span \
  }
#else
#define VMP_TRACE_SPAN(name, category) ((void)0)
#define VMP_TRACE_NAMED_SPAN(var, name, category) ::vmp::obs::NullSpan var {}
// Evaluate the id expressions so arguments that only feed tracing do not
// become unused-variable warnings in the tracing-off build.
#define VMP_TRACE_CONTEXT(trace_id) ((void)(trace_id))
#define VMP_TRACE_CONTEXT_PARENTED(trace_id, parent_span) \
  ((void)(trace_id), (void)(parent_span))
#endif
