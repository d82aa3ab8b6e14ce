// In-memory span recorder for the benchmark's traced run.
//
// Spans are taken in the benchmark's own code, around calls into the
// program's public functions (FleetEngine::run, SnapshotStore::publish_tick,
// Ledger::append, QueryEngine::execute, ...); the program's own obs::Tracer
// stays disarmed. Each recording thread appends to its own SpanBuffer with no
// locking, the buffers are merged into one SpanLog after the threads join,
// and the log is written out as Chrome trace-event JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pipebench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  ///< a string literal naming the call.
  /// The tick or query the span belongs to; spans of one tick (run, publish,
  /// append) share it, which is how a layer's self time is joined.
  std::uint64_t id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;

  [[nodiscard]] double us() const noexcept {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// One thread's spans; null means "not tracing" and costs nothing.
using SpanBuffer = std::vector<Span>;

/// Times its scope into `buffer` when one is attached.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint64_t id,
             std::uint32_t thread = 0) noexcept
      : buffer_(buffer), name_(name), id_(id), thread_(thread),
        start_ns_(buffer ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr)
      buffer_->push_back({name_, id_, start_ns_, now_ns(), thread_});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  const char* name_;
  std::uint64_t id_;
  std::uint32_t thread_;
  std::uint64_t start_ns_;
};

class SpanLog {
 public:
  /// Moves a joined thread's buffer into the log.
  void merge(SpanBuffer& buffer) {
    spans_.insert(spans_.end(), buffer.begin(), buffer.end());
    buffer.clear();
  }

  /// Durations (µs) of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const {
    std::vector<double> out;
    for (const Span& span : spans_)
      if (name == span.name) out.push_back(span.us());
    return out;
  }

  /// Durations (µs) of the spans named `name`, keyed by span id.
  [[nodiscard]] std::unordered_map<std::uint64_t, double> by_id_us(
      std::string_view name) const {
    std::unordered_map<std::uint64_t, double> out;
    for (const Span& span : spans_)
      if (name == span.name) out[span.id] = span.us();
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, µs relative to the
  /// first span), loadable in chrome://tracing or Perfetto.
  void write_chrome_json(const std::filesystem::path& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path.string());
    std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& span : spans_)
      if (span.start_ns < origin) origin = span.start_ns;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << span.thread << ",\"ts\":"
          << static_cast<double>(span.start_ns - origin) / 1e3
          << ",\"dur\":" << span.us() << ",\"args\":{\"id\":" << span.id
          << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace pipebench
