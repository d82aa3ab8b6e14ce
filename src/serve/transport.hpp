// The single request path shared by every transport.
//
// Dispatcher turns request bytes into response bytes: decode (binary body or
// text line) -> QueryEngine::execute -> encode, with per-protocol and
// per-query-kind latency histograms, a protocol-error counter, and trace
// spans over the parse/evaluate/encode phases (the client's request id, when
// the framing carried one, becomes the spans' trace id). Each instrument is
// resolved from the registry on its first use and kept, so a request makes
// no registry lookup. The TCP server (its readers for in-order requests,
// its workers for id'd ones) and the in-process transport all call it,
// which is what makes "the same query returns byte-identical responses on
// every transport" true by construction rather than by test luck — and
// lets tests and benches drive the exact production path deterministically,
// no sockets involved.
//
// Three text-protocol *commands* ride the same path next to the query
// verbs: "METRICS" answers with the full Prometheus exposition of the wired
// registry, "TRACE" with the tracer ring as Chrome trace-event JSONL, and
// "HEALTH" with the profiler's stage-quantile / SLO / slow-query-log
// rendering — all multi-line payloads terminated by a lone "# EOF" line, so
// a line-oriented client knows where the scrape ends.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

#include "fleet/metrics.hpp"
#include "serve/profile.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"

namespace vmp::serve {

class Dispatcher {
 public:
  explicit Dispatcher(QueryHandler& engine, fleet::Metrics* metrics = nullptr,
                      ServeProfiler* profiler = nullptr);

  /// Handles one binary request body (unframed); returns the response body.
  /// `trace_id` (the frame's request id, 0 when absent) groups the request's
  /// spans. When the frame carried a trace-context block, `trace` overrides
  /// the span grouping with the caller's trace id and nests this request's
  /// spans under the caller's parent span. Framing-level id echo is the
  /// transport's job.
  [[nodiscard]] std::string handle_binary(
      std::string_view body, std::uint64_t trace_id = 0,
      const TraceContextWire* trace = nullptr);

  /// Single-copy sibling of handle_binary: appends the response body to
  /// `out` instead of returning it, so a caller that already opened a frame
  /// with begin_frame gets the encoded response without an intermediate
  /// body string.
  void handle_binary_into(std::string_view body, std::string& out,
                          std::uint64_t trace_id = 0,
                          const TraceContextWire* trace = nullptr);

  /// Handles one request line (no newline); returns the response line. A
  /// leading "#<id>" (or traced "#<id>@<trace>:<parent>:<budget>") token is
  /// consumed, used as the trace id, and echoed — id alone — as the first
  /// token of the response. A malformed trace suffix earns kMalformed
  /// without touching the engine.
  [[nodiscard]] std::string handle_text(std::string_view line);

  /// Single-copy sibling of handle_text: appends the response line (no
  /// trailing newline) to `out` — the id echo, scrape payload, or formatted
  /// response land directly in the caller's write buffer.
  void handle_text_into(std::string_view line, std::string& out);

 private:
  /// The `proto` label of the request metrics; indexes the tables below.
  enum Proto : std::size_t { kBinary = 0, kText = 1, kProtoCount = 2 };
  /// QueryKind values are 1..7; slot 0 stays empty.
  static constexpr std::size_t kKindSlots = 8;

  [[nodiscard]] Response run(const std::optional<Request>& request,
                             Proto proto);
  /// nullopt when `line` is not a command; otherwise the full multi-line
  /// payload, "# EOF"-terminated.
  [[nodiscard]] std::optional<std::string> run_command(std::string_view line);
  void count_protocol_error();

  QueryHandler& engine_;
  fleet::Metrics* metrics_;
  ServeProfiler* profiler_ = nullptr;
  // Request instruments, each resolved on first use (obs::resolve_once), so
  // a scrape shows exactly the series that per-request lookups would.
  std::atomic<fleet::Counter*> protocol_errors_{nullptr};
  std::atomic<fleet::Counter*> requests_[kProtoCount][kKindSlots] = {};
  std::atomic<fleet::HistogramMetric*> proto_latency_[kProtoCount] = {};
  std::atomic<fleet::HistogramMetric*> kind_latency_[kKindSlots] = {};
};

/// Drives the dispatcher with the server's framing rules, in process.
class InProcessTransport {
 public:
  explicit InProcessTransport(QueryHandler& engine,
                              fleet::Metrics* metrics = nullptr);

  /// Full binary round trip: a framed request in, a framed response out.
  /// Applies the server's frame checks (oversized, truncated, trailing
  /// bytes all yield protocol-error responses, never exceptions).
  [[nodiscard]] std::string roundtrip_binary(std::string_view frame);

  /// Text round trip: one request line in (trailing newline optional), the
  /// response line out (no newline).
  [[nodiscard]] std::string roundtrip_text(std::string_view line);

  /// Struct-level convenience over the binary path.
  [[nodiscard]] Response query(const Request& request);

 private:
  Dispatcher dispatcher_;
};

}  // namespace vmp::serve
