#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace vmp::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t wall_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

bool env_requests_tracing() {
  const char* value = std::getenv("VMPOWER_TRACING");
  if (value == nullptr) return false;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "ON") == 0 ||
         std::strcmp(value, "on") == 0;
}

thread_local std::uint32_t t_thread_ordinal = 0;  // 0 = unassigned.

}  // namespace

namespace detail {

ThreadTraceState& thread_trace_state() noexcept {
  thread_local ThreadTraceState state;
  return state;
}

}  // namespace detail

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_ns_(steady_ns()) {
  // The anchor is the only place the wall clock is ever consulted; events
  // themselves are timed against the steady epoch captured just above, so a
  // later wall adjustment shifts nothing and reorders nothing.
  anchor_us_.store(wall_us(), std::memory_order_relaxed);
  ring_.reserve(capacity_);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  static const bool armed_from_env = [] {
    if (env_requests_tracing()) tracer.set_enabled(true);
    return true;
  }();
  (void)armed_from_env;
  return tracer;
}

std::uint64_t Tracer::now_us() const {
  return (steady_ns() - epoch_ns_) / 1000;
}

std::uint32_t Tracer::thread_ordinal() {
  if (t_thread_ordinal == 0)
    t_thread_ordinal = next_thread_.fetch_add(1, std::memory_order_relaxed) + 1;
  return t_thread_ordinal;
}

void Tracer::record(const SpanEvent& event) {
  if (!enabled()) return;  // a disarmed tracer records nothing, ever.
  std::lock_guard lock(mutex_);
  if (count_ < capacity_) {
    if (ring_.size() < capacity_) ring_.push_back(event);
    else ring_[(head_ + count_) % capacity_] = event;
    ++count_;
  } else {
    ring_[head_] = event;  // overwrite the oldest.
    head_ = (head_ + 1) % capacity_;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<SpanEvent> Tracer::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<SpanEvent> events;
  events.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i)
    events.push_back(ring_[(head_ + i) % capacity_]);
  return events;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  count_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return count_;
}

std::string to_chrome_json(const SpanEvent& event, std::uint64_t anchor_us) {
  // Names/categories/detail keys are instrumentation literals (no quotes or
  // control characters), so no JSON string escaping is needed here.
  char buffer[320];
  int written = std::snprintf(
      buffer, sizeof buffer,
      "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%llu,"
      "\"dur\":%llu,\"pid\":1,\"tid\":%u,\"args\":{\"trace\":%llu,"
      "\"span\":%llu,\"parent\":%llu",
      event.name, event.category,
      static_cast<unsigned long long>(anchor_us + event.start_us),
      static_cast<unsigned long long>(event.duration_us), event.thread,
      static_cast<unsigned long long>(event.trace_id),
      static_cast<unsigned long long>(event.span_id),
      static_cast<unsigned long long>(event.parent_id));
  if (written < 0) return "{}";
  std::size_t used = static_cast<std::size_t>(written);
  if (event.detail_key != nullptr && used < sizeof buffer) {
    written = std::snprintf(buffer + used, sizeof buffer - used,
                            ",\"%s\":%llu", event.detail_key,
                            static_cast<unsigned long long>(event.detail));
    if (written > 0) used += static_cast<std::size_t>(written);
  }
  if (used < sizeof buffer)
    std::snprintf(buffer + used, sizeof buffer - used, "}}");
  return buffer;
}

std::string Tracer::to_chrome_jsonl() const {
  const std::uint64_t anchor = anchor_us();
  std::string out;
  for (const SpanEvent& event : snapshot()) {
    out += to_chrome_json(event, anchor);
    out += '\n';
  }
  return out;
}

void Tracer::write_chrome_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("Tracer: cannot open for write: " + path.string());
  out << to_chrome_jsonl();
  if (!out) throw std::runtime_error("Tracer: write failed: " + path.string());
}

Span::Span(const char* name, const char* category) noexcept
    : name_(name), category_(category) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  armed_ = true;
  span_id_ = tracer.next_span_id();
  auto& state = detail::thread_trace_state();
  saved_parent_ = state.parent_span;
  state.parent_span = span_id_;
  start_us_ = tracer.now_us();
}

Span::~Span() {
  if (!armed_) return;
  Tracer& tracer = Tracer::global();
  auto& state = detail::thread_trace_state();
  state.parent_span = saved_parent_;
  SpanEvent event;
  event.name = name_;
  event.category = category_;
  event.trace_id = state.trace_id;
  event.span_id = span_id_;
  event.parent_id = saved_parent_;
  event.thread = tracer.thread_ordinal();
  event.start_us = start_us_;
  const std::uint64_t end_us = tracer.now_us();
  event.duration_us = end_us > start_us_ ? end_us - start_us_ : 0;
  event.detail_key = detail_key_;
  event.detail = detail_;
  tracer.record(event);
}

ManualSpan::ManualSpan(const char* name, const char* category,
                       std::uint64_t trace_id, std::uint64_t parent_id,
                       const char* detail_key, std::uint64_t detail) noexcept {
#if VMPOWER_TRACING_COMPILED
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  event_.name = name;
  event_.category = category;
  event_.trace_id = trace_id;
  event_.span_id = tracer.next_span_id();
  event_.parent_id = parent_id;
  event_.start_us = tracer.now_us();
  event_.detail_key = detail_key;
  event_.detail = detail;
#else
  (void)name, (void)category, (void)trace_id, (void)parent_id,
      (void)detail_key, (void)detail;
#endif
}

void ManualSpan::end() noexcept {
  if (event_.span_id == 0) return;
  Tracer& tracer = Tracer::global();
  event_.thread = tracer.thread_ordinal();
  const std::uint64_t end_us = tracer.now_us();
  event_.duration_us = end_us > event_.start_us ? end_us - event_.start_us : 0;
  tracer.record(event_);
  event_.span_id = 0;
}

}  // namespace vmp::obs
