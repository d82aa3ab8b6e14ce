#include "serve/transport.hpp"

#include "obs/trace.hpp"

namespace vmp::serve {

namespace {

std::uint32_t read_prefix(std::string_view frame) {
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i)
    length = (length << 8) | static_cast<std::uint8_t>(frame[i]);
  return length;
}

std::uint64_t read_frame_id(std::string_view frame) {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < kFrameIdBytes; ++i)
    id = (id << 8) |
         static_cast<std::uint8_t>(frame[kFramePrefixBytes + i]);
  return id;
}

}  // namespace

Dispatcher::Dispatcher(QueryHandler& engine, fleet::Metrics* metrics,
                       ServeProfiler* profiler)
    : engine_(engine), metrics_(metrics), profiler_(profiler) {}

void Dispatcher::count_protocol_error() {
  if (metrics_ == nullptr) return;
  obs::resolve_once(protocol_errors_, [&]() -> fleet::Counter& {
    return metrics_->counter("vmpower_serve_protocol_errors_total",
                             "Requests rejected as unparseable");
  }).inc();
}

Response Dispatcher::run(const std::optional<Request>& request, Proto proto) {
  if (!request) {
    count_protocol_error();
    if (StageProfile* profile = current_stage_profile())
      profile->error = true;
    return Response::error(ErrorCode::kMalformed, "unparseable request");
  }
  // One pair of clock reads times execute for the profile's stage and both
  // latency histograms alike.
  StageProfile* profile = current_stage_profile();
  if (profile != nullptr) profile->kind = request->kind;
  const bool timed = profile != nullptr || metrics_ != nullptr;
  const std::uint64_t start_ns = timed ? profile_now_ns() : 0;
  Response response;
  {
    VMP_TRACE_SPAN("serve.execute", "serve");
    response = engine_.execute(*request);
  }
  const double elapsed_s =
      timed ? static_cast<double>(profile_now_ns() - start_ns) * 1e-9 : 0.0;
  if (profile != nullptr) {
    profile->error = !response.ok;
    profile->add(Stage::kExecute, elapsed_s);
  }
  const auto kind = static_cast<std::size_t>(request->kind);
  if (metrics_ != nullptr && kind < kKindSlots) {
    const std::string_view proto_label = proto == kBinary ? "binary" : "text";
    const std::string_view kind_label = to_string(request->kind);
    obs::resolve_once(requests_[proto][kind], [&]() -> fleet::Counter& {
      return metrics_->counter(
          obs::labeled("vmpower_serve_requests_total",
                       {{"proto", proto_label}, {"kind", kind_label}}),
          "Requests dispatched, by protocol and query kind");
    }).inc();
    obs::resolve_once(proto_latency_[proto], [&]() -> fleet::HistogramMetric& {
      return metrics_->histogram(
          obs::labeled("vmpower_serve_request_latency_seconds",
                       {{"proto", proto_label}}),
          "Query execution latency by protocol");
    }).observe(elapsed_s);
    obs::resolve_once(kind_latency_[kind], [&]() -> fleet::HistogramMetric& {
      return metrics_->histogram(
          obs::labeled("vmpower_serve_query_latency_seconds",
                       {{"kind", kind_label}}),
          "Query execution latency by query kind");
    }).observe(elapsed_s);
  }
  return response;
}

std::string Dispatcher::handle_binary(std::string_view body,
                                      std::uint64_t trace_id,
                                      const TraceContextWire* trace) {
  std::string out;
  handle_binary_into(body, out, trace_id, trace);
  return out;
}

void Dispatcher::handle_binary_into(std::string_view body, std::string& out,
                                    std::uint64_t trace_id,
                                    const TraceContextWire* trace) {
  // A carried trace context adopts the caller's trace and parents this
  // request's spans under the caller's span; otherwise the request id is
  // the trace and the spans are roots.
  VMP_TRACE_CONTEXT_PARENTED(trace != nullptr ? trace->trace_id : trace_id,
                             trace != nullptr ? trace->parent_span : 0);
  if (StageProfile* profile = current_stage_profile()) {
    if (trace != nullptr) {
      profile->trace_id = trace->trace_id;
      profile->budget_us = trace->budget_us;
    }
  }
  std::optional<Request> request;
  {
    VMP_TRACE_SPAN("serve.parse", "serve");
    request = decode_request(body);
  }
  const Response response = run(request, kBinary);
  StageTimer serialize(Stage::kSerialize);
  VMP_TRACE_SPAN("serve.encode", "serve");
  encode_response_into(response, out);
}

std::optional<std::string> Dispatcher::run_command(std::string_view line) {
  std::string payload;
  const char* command = nullptr;
  if (line == "METRICS") {
    command = "metrics";
    // Sketch quantiles and SLO burn rates are published on scrape, not per
    // query, so the gauges are fresh exactly when someone looks.
    if (profiler_ != nullptr) profiler_->publish();
    if (metrics_) payload = metrics_->to_prometheus();
  } else if (line == "TRACE") {
    command = "trace";
    payload = obs::Tracer::global().to_chrome_jsonl();
  } else if (line == "HEALTH") {
    command = "health";
    payload = profiler_ != nullptr ? profiler_->health_text()
                                   : "health profiler=off\n";
  } else {
    return std::nullopt;
  }
  if (metrics_)
    metrics_
        ->counter("vmpower_serve_scrapes_total{command=\"" +
                      std::string(command) + "\"}",
                  "METRICS / TRACE / HEALTH scrape commands served")
        .inc();
  payload.append(kScrapeEof);
  return payload;
}

std::string Dispatcher::handle_text(std::string_view line) {
  std::string out;
  handle_text_into(line, out);
  return out;
}

void Dispatcher::handle_text_into(std::string_view line, std::string& out) {
  std::uint64_t request_id = 0;
  TraceContextWire wire;
  const TextEnvelope envelope = strip_text_envelope(line, request_id, wire);
  if (envelope == TextEnvelope::kMalformed) {
    count_protocol_error();
    if (StageProfile* profile = current_stage_profile())
      profile->error = true;
    out += '#';
    out += std::to_string(request_id);
    out += ' ';
    format_response_text_into(
        Response::error(ErrorCode::kMalformed, "malformed trace context"),
        out);
    return;
  }
  const bool has_id = envelope != TextEnvelope::kNone;
  const bool traced = envelope == TextEnvelope::kTraced;
  VMP_TRACE_CONTEXT_PARENTED(traced ? wire.trace_id : request_id,
                             traced ? wire.parent_span : 0);
  if (StageProfile* profile = current_stage_profile()) {
    if (traced) {
      profile->trace_id = wire.trace_id;
      profile->budget_us = wire.budget_us;
    }
  }
  if (has_id) {
    out += '#';
    out += std::to_string(request_id);
    out += ' ';
  }
  if (auto scrape = run_command(line)) {
    out += *scrape;
    return;
  }
  std::optional<Request> request;
  {
    VMP_TRACE_SPAN("serve.parse", "serve");
    request = parse_request_text(line);
  }
  const Response response = run(request, kText);
  StageTimer serialize(Stage::kSerialize);
  VMP_TRACE_SPAN("serve.encode", "serve");
  format_response_text_into(response, out);
}

InProcessTransport::InProcessTransport(QueryHandler& engine,
                                       fleet::Metrics* metrics)
    : dispatcher_(engine, metrics) {}

std::string InProcessTransport::roundtrip_binary(std::string_view frame) {
  if (frame.size() < kFramePrefixBytes)
    return encode_frame(encode_response(
        Response::error(ErrorCode::kMalformed, "truncated frame prefix")));
  const std::uint32_t prefix = read_prefix(frame);
  const bool has_id = (prefix & kFrameIdFlag) != 0;
  const bool has_trace = (prefix & kFrameTraceFlag) != 0;
  const std::uint32_t length = prefix & kFrameLenMask;
  const std::size_t header = kFramePrefixBytes + (has_id ? kFrameIdBytes : 0) +
                             (has_trace ? kFrameTraceBytes : 0);
  if (length > kMaxFrameBytes)
    return encode_frame(encode_response(Response::error(
        ErrorCode::kFrameTooLarge, "frame exceeds 64 KiB limit")));
  if (frame.size() != header + length || frame.size() < header)
    return encode_frame(encode_response(
        Response::error(ErrorCode::kMalformed, "frame length mismatch")));
  const std::uint64_t request_id = has_id ? read_frame_id(frame) : 0;
  TraceContextWire trace;
  if (has_trace) {
    // The trace flag rides on the id flag (a lone trace flag would make the
    // first frame byte printable and defeat the server's protocol sniff),
    // and the block must carry a known version.
    const std::string error_body = encode_response(Response::error(
        ErrorCode::kMalformed, "malformed trace context"));
    if (!has_id)
      return encode_frame(error_body);
    if (!decode_trace_block(
            frame.substr(kFramePrefixBytes + kFrameIdBytes, kFrameTraceBytes),
            trace))
      return encode_frame_with_id(error_body, request_id);
  }
  std::string out;
  const std::size_t start = begin_frame(out, has_id, request_id);
  dispatcher_.handle_binary_into(frame.substr(header), out, request_id,
                                 has_trace ? &trace : nullptr);
  finish_frame(out, start);
  return out;
}

std::string InProcessTransport::roundtrip_text(std::string_view line) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return dispatcher_.handle_text(line);
}

Response InProcessTransport::query(const Request& request) {
  const std::string frame =
      roundtrip_binary(encode_frame(encode_request(request)));
  const auto response = decode_response(
      std::string_view(frame).substr(kFramePrefixBytes));
  return response ? *response
                  : Response::error(ErrorCode::kMalformed,
                                    "undecodable response");
}

}  // namespace vmp::serve
