#include "serve/protocol.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fleet/metrics.hpp"
#include "obs/invariants.hpp"
#include "serve/client.hpp"
#include "serve/profile.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"
#include "seeded_mutation.hpp"

namespace vmp::serve {
namespace {

Snapshot synthetic_at(double t) {
  Snapshot snapshot;
  snapshot.tick = static_cast<std::uint64_t>(t);
  snapshot.time_s = t;
  snapshot.vms = {{0, 1, 1, t, 10.0 * t}, {1, 4, 2, 2.0 * t, 20.0 * t}};
  snapshot.tenants = {{1, t, 100.0 * t}, {2, 2.0 * t, 200.0 * t}};
  snapshot.total_power_w = 3.0 * t;
  snapshot.total_energy_j = 300.0 * t;
  return snapshot;
}

Request make_request(QueryKind kind) {
  Request request;
  request.kind = kind;
  request.host = 7;
  request.vm = 11;
  request.tenant = 3;
  request.t0 = 1.5;
  request.t1 = 0x1.fffffffffffffp+9;  // bit-pattern survival matters.
  return request;
}

// --- binary codec -----------------------------------------------------------

TEST(ProtocolCodec, BinaryRequestsRoundTripEveryKind) {
  for (const QueryKind kind :
       {QueryKind::kVmPower, QueryKind::kTenantPower, QueryKind::kFleetPower,
        QueryKind::kVmEnergy, QueryKind::kTenantEnergy, QueryKind::kTenantCost,
        QueryKind::kStats}) {
    const Request request = make_request(kind);
    const auto decoded = decode_request(encode_request(request));
    ASSERT_TRUE(decoded.has_value()) << to_string(kind);
    EXPECT_EQ(decoded->kind, request.kind);
    EXPECT_EQ(decoded->canonical(), request.canonical());
  }
}

TEST(ProtocolCodec, BinaryDecodeRejectsMalformedBodies) {
  EXPECT_FALSE(decode_request("").has_value());
  EXPECT_FALSE(decode_request(std::string(1, '\x63')).has_value());  // opcode.
  // Truncated operands: vm-power needs two u32s.
  std::string body = encode_request(make_request(QueryKind::kVmPower));
  EXPECT_FALSE(decode_request(body.substr(0, body.size() - 1)).has_value());
  // Trailing bytes after a complete operand layout are an error, not slack.
  EXPECT_FALSE(decode_request(body + '\0').has_value());
  // Window bounds must be finite.
  Request nan_window = make_request(QueryKind::kVmEnergy);
  nan_window.t0 = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(decode_request(encode_request(nan_window)).has_value());
}

TEST(ProtocolCodec, BinaryResponsesRoundTrip) {
  const Response ok = Response::success(42, {1.0, -2.5, 1e-300});
  const auto ok_decoded = decode_response(encode_response(ok));
  ASSERT_TRUE(ok_decoded.has_value());
  EXPECT_TRUE(ok_decoded->ok);
  EXPECT_EQ(ok_decoded->epoch, 42u);
  EXPECT_EQ(ok_decoded->values, ok.values);

  const Response error =
      Response::error(ErrorCode::kOutOfRetention, "window too old");
  const auto error_decoded = decode_response(encode_response(error));
  ASSERT_TRUE(error_decoded.has_value());
  EXPECT_FALSE(error_decoded->ok);
  EXPECT_EQ(error_decoded->code, ErrorCode::kOutOfRetention);
  EXPECT_EQ(error_decoded->message, "window too old");
  EXPECT_EQ(error_decoded->detail, 0u);
  EXPECT_FALSE(decode_response("").has_value());
}

TEST(ProtocolCodec, ErrorDetailRoundTripsOnBothEncodings) {
  // The window errors carry the oldest still-answerable epoch so a client
  // can clamp its window instead of guessing.
  const Response error = Response::error(
      ErrorCode::kOutOfHistory, "window start predates the durable ledger",
      77);
  const auto decoded = decode_response(encode_response(error));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->code, ErrorCode::kOutOfHistory);
  EXPECT_EQ(decoded->detail, 77u);
  EXPECT_EQ(decoded->message, error.message);

  // Text spells the detail as an `oldest=` token — but only when set, so
  // detail-free errors keep their exact pre-ledger shape.
  EXPECT_EQ(format_response_text(error),
            "ERR 10 oldest=77 window start predates the durable ledger");
  EXPECT_EQ(format_response_text(
                Response::error(ErrorCode::kOutOfRetention, "gone", 12)),
            "ERR 5 oldest=12 gone");
  EXPECT_EQ(format_response_text(
                Response::error(ErrorCode::kOutOfRetention, "gone")),
            "ERR 5 gone");
}

TEST(ProtocolCodec, FramePrefixIsBigEndianLength) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), kFramePrefixBytes + 3);
  EXPECT_EQ(frame[0], 0);
  EXPECT_EQ(frame[1], 0);
  EXPECT_EQ(frame[2], 0);
  EXPECT_EQ(frame[3], 3);
  EXPECT_EQ(frame.substr(4), "abc");
}

// --- text codec -------------------------------------------------------------

TEST(ProtocolCodec, TextRequestsRoundTripAndMatchCanonicalForm) {
  for (const QueryKind kind :
       {QueryKind::kVmPower, QueryKind::kTenantPower, QueryKind::kFleetPower,
        QueryKind::kVmEnergy, QueryKind::kTenantEnergy, QueryKind::kTenantCost,
        QueryKind::kStats}) {
    const Request request = make_request(kind);
    const std::string line = format_request_text(request);
    const auto parsed = parse_request_text(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->canonical(), request.canonical());
  }
  // Whitespace is flexible; verbs are not.
  EXPECT_TRUE(parse_request_text("  fleet-power  ").has_value());
  EXPECT_FALSE(parse_request_text("fleet-pwr").has_value());
  EXPECT_FALSE(parse_request_text("").has_value());
  EXPECT_FALSE(parse_request_text("vm-power 0").has_value());     // arity.
  EXPECT_FALSE(parse_request_text("vm-power 0 1 2").has_value());
  EXPECT_FALSE(parse_request_text("vm-power x y").has_value());
  EXPECT_FALSE(parse_request_text("vm-energy 0 1 0 inf").has_value());
}

TEST(ProtocolCodec, TextResponsesRoundTripDoublesExactly) {
  const double awkward = 0.1 + 0.2;  // not representable as a short decimal.
  const std::string line =
      format_response_text(Response::success(9, {awkward}));
  EXPECT_EQ(line.rfind("OK 9 ", 0), 0u);
  EXPECT_EQ(std::stod(line.substr(5)), awkward);  // %.17g round-trips.
  EXPECT_EQ(format_response_text(
                Response::error(ErrorCode::kThrottled, "slow down")),
            "ERR 8 slow down");
}

TEST(ProtocolCodec, SingleCopyFramingMatchesTheLegacyEncodersByte) {
  // begin_frame / finish_frame + the *_into encoders write straight into
  // one buffer; the frames must equal the copying encoders bit for bit in
  // all three header shapes (plain, id, traced).
  Request request;
  request.kind = QueryKind::kTenantCost;
  request.tenant = 3;
  request.t0 = 1.5;
  request.t1 = 17.25;
  const std::string body = encode_request(request);
  {
    std::string single;
    single.reserve(64);
    const std::size_t start = begin_frame(single, false, 0);
    encode_request_into(request, single);
    finish_frame(single, start);
    EXPECT_EQ(single, encode_frame(body));
  }
  {
    std::string single;
    const std::size_t start = begin_frame(single, true, 0xdeadbeefcafef00dull);
    encode_request_into(request, single);
    finish_frame(single, start);
    EXPECT_EQ(single, encode_frame_with_id(body, 0xdeadbeefcafef00dull));
  }
  {
    TraceContextWire trace;
    trace.trace_id = 0x1111222233334444ull;
    trace.parent_span = 0x5555666677778888ull;
    trace.budget_us = 250000;
    std::string single;
    const std::size_t start = begin_frame(single, true, 42, &trace);
    encode_request_into(request, single);
    finish_frame(single, start);
    EXPECT_EQ(single, encode_frame_with_trace(body, 42, trace));
  }
  // Appending into a non-empty buffer leaves what it held untouched and
  // frames only the new bytes.
  {
    std::string wire = "already-sent";
    const std::size_t start = begin_frame(wire, true, 7);
    encode_request_into(request, wire);
    finish_frame(wire, start);
    EXPECT_EQ(wire.substr(0, 12), "already-sent");
    EXPECT_EQ(wire.substr(12), encode_frame_with_id(body, 7));
  }
  // Response and text formatting share the same into-variants.
  const Response ok = Response::success(24, {1.0, 2.5});
  const Response err = Response::error(ErrorCode::kThrottled, "slow down");
  for (const Response& response : {ok, err}) {
    std::string into;
    encode_response_into(response, into);
    EXPECT_EQ(into, encode_response(response));
    std::string text = "#9 ";
    format_response_text_into(response, text);
    EXPECT_EQ(text, "#9 " + format_response_text(response));
  }
}

// --- shared dispatch path ---------------------------------------------------

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() {
    for (int t = 1; t <= 24; ++t) store_.publish(synthetic_at(t));
  }

  static QueryEngineOptions engine_options(fleet::Metrics* metrics) {
    QueryEngineOptions options;
    options.cache_capacity = 1024;
    options.metrics = metrics;
    return options;
  }

  SnapshotStore store_{64};
  fleet::Metrics metrics_;
  QueryEngine engine_{store_, engine_options(&metrics_)};
};

TEST_F(TransportTest, InProcessRejectsBadFramesWithoutThrowing) {
  InProcessTransport transport(engine_, &metrics_);

  const auto error_of = [](const std::string& frame) {
    const auto response =
        decode_response(std::string_view(frame).substr(kFramePrefixBytes));
    EXPECT_TRUE(response.has_value());
    EXPECT_FALSE(response->ok);
    return response->code;
  };

  EXPECT_EQ(error_of(transport.roundtrip_binary("ab")), ErrorCode::kMalformed);
  // Declared length exceeding the limit is rejected before any body read.
  std::string oversized = {'\x7f', '\x00', '\x00', '\x00'};
  EXPECT_EQ(error_of(transport.roundtrip_binary(oversized)),
            ErrorCode::kFrameTooLarge);
  // Prefix promising more bytes than supplied.
  EXPECT_EQ(error_of(transport.roundtrip_binary(encode_frame("xy") + "junk")),
            ErrorCode::kMalformed);
  // Garbage body of the right shape decodes to no known opcode.
  EXPECT_EQ(error_of(transport.roundtrip_binary(encode_frame("\xee\xff"))),
            ErrorCode::kMalformed);
  EXPECT_EQ(transport.roundtrip_text("gibberish"),
            "ERR 1 unparseable request");

  const std::string dump = metrics_.to_prometheus();
  EXPECT_NE(dump.find("vmpower_serve_protocol_errors_total"),
            std::string::npos);
}

TEST_F(TransportTest, DispatcherExportsLabeledLatencyHistograms) {
  InProcessTransport transport(engine_, &metrics_);
  Request request;
  request.kind = QueryKind::kFleetPower;
  ASSERT_TRUE(transport.query(request).ok);
  (void)transport.roundtrip_text("fleet-power");

  const std::string dump = metrics_.to_prometheus();
  EXPECT_NE(dump.find("vmpower_serve_requests_total{proto=\"binary\","
                      "kind=\"fleet-power\"} 1"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_requests_total{proto=\"text\","
                      "kind=\"fleet-power\"} 1"),
            std::string::npos);
  // Labeled histograms merge le into the existing label set (satellite:
  // the old exporter restriction is gone).
  EXPECT_NE(dump.find(
                "vmpower_serve_request_latency_seconds_bucket{proto=\"binary\","
                "le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(
      dump.find("vmpower_serve_request_latency_seconds_count{proto=\"text\"} 1"),
      std::string::npos);
}

TEST_F(TransportTest, ExecuteIsTimedOnceForProfileAndHistograms) {
  // One pair of clock reads feeds the profile's execute stage and both
  // latency histograms, so all three hold the same double.
  Dispatcher dispatcher(engine_, &metrics_);
  Request request;
  request.kind = QueryKind::kStats;
  StageProfile profile;
  {
    StageProfileScope scope(&profile);
    ASSERT_TRUE(
        decode_response(dispatcher.handle_binary(encode_request(request)))
            ->ok);
  }
  const double execute_s = profile.stage(Stage::kExecute);
  EXPECT_GT(execute_s, 0.0);
  EXPECT_EQ(metrics_
                .histogram(obs::labeled("vmpower_serve_request_latency_seconds",
                                        {{"proto", "binary"}}),
                           "")
                .snapshot()
                .sum(),
            execute_s);
  EXPECT_EQ(metrics_
                .histogram(obs::labeled("vmpower_serve_query_latency_seconds",
                                        {{"kind", to_string(request.kind)}}),
                           "")
                .snapshot()
                .sum(),
            execute_s);
}

// --- TCP end to end ---------------------------------------------------------

class ServerTest : public TransportTest {
 protected:
  ServerOptions quick_options() const {
    ServerOptions options;
    options.workers = 2;
    options.queue_capacity = 16;
    return options;
  }
};

TEST_F(ServerTest, AnswersPointWindowAndCostQueriesOverTcp) {
  Server server(engine_, metrics_, quick_options());
  Client client(server.port());

  Request point;
  point.kind = QueryKind::kVmPower;
  point.host = 1;
  point.vm = 4;
  Response response = client.query(point);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.epoch, 24u);
  EXPECT_DOUBLE_EQ(response.values.at(0), 48.0);

  Request window;
  window.kind = QueryKind::kTenantEnergy;
  window.tenant = 2;
  window.t0 = 6.0;
  window.t1 = 18.0;
  response = client.query(window);
  ASSERT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.values.at(0), 2400.0);

  window.kind = QueryKind::kTenantCost;
  response = client.query(window);
  ASSERT_TRUE(response.ok);
  ASSERT_EQ(response.values.size(), 2u);
  EXPECT_DOUBLE_EQ(response.values.at(1), 2400.0);

  // A second, text-mode connection against the same server.
  Client text_client(server.port());
  EXPECT_EQ(text_client.query_text("fleet-power"), "OK 24 72");
  EXPECT_EQ(text_client.query_text("tenant-power 9"), "ERR 4 unknown tenant 9");
  server.stop();
}

TEST_F(ServerTest, TcpAndInProcessResponsesAreByteIdentical) {
  Server server(engine_, metrics_, quick_options());
  // A separate uncached engine would re-evaluate; byte identity must hold
  // through the cache too, so use the server's own engine in process.
  InProcessTransport in_process(engine_, &metrics_);
  Client client(server.port());
  Client text_client(server.port());

  std::vector<std::string> lines = {
      "stats",           "fleet-power",          "vm-power 0 1",
      "tenant-power 2",  "vm-energy 0 1 2 10",   "tenant-energy 1 0 24",
      "tenant-cost 2 6 18", "tenant-power 777",  "vm-power 9 9",
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    // Text path: the TCP response line equals the in-process line.
    EXPECT_EQ(text_client.query_text(line), in_process.roundtrip_text(line));
    // Binary path: encoded response bodies are byte-identical.
    const auto request = parse_request_text(line);
    ASSERT_TRUE(request.has_value());
    client.send_raw(encode_frame(encode_request(*request)));
    const std::string tcp_frame = client.recv_frame();
    EXPECT_EQ(tcp_frame,
              in_process.roundtrip_binary(
                  encode_frame(encode_request(*request))));
  }
  server.stop();
}

TEST_F(ServerTest, GarbageAndTruncatedFramesNeverCrashTheServer) {
  Server server(engine_, metrics_, quick_options());

  {  // Oversized declared length (prefix first byte stays < 0x20 so the
    // sniffer sees binary): explicit error, connection dropped.
    Client client(server.port());
    client.send_raw(std::string{'\x00', '\x11', '\x00', '\x00'});
    const auto response = decode_response(
        std::string_view(client.recv_frame()).substr(kFramePrefixBytes));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->code, ErrorCode::kFrameTooLarge);
  }
  {  // Garbage binary body: protocol error response, connection lives on.
    Client client(server.port());
    client.send_raw(encode_frame(std::string("\x19\xff\xff", 3)));
    const auto response = decode_response(
        std::string_view(client.recv_frame()).substr(kFramePrefixBytes));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->code, ErrorCode::kMalformed);
    // Same connection still answers a well-formed request.
    Request request;
    request.kind = QueryKind::kFleetPower;
    EXPECT_TRUE(client.query(request).ok);
  }
  {  // Mid-request disconnect: frame promises 12 bytes, client sends 2 and
    // hangs up. The server must just drop the connection.
    Client client(server.port());
    client.send_raw(encode_frame("full body").substr(0, 6));
    client.shutdown_write();
  }
  {  // Text line over the limit.
    Client client(server.port());
    client.send_raw(std::string(2 * kMaxLineBytes, 'a'));
    EXPECT_EQ(client.recv_line(), "ERR 1 line exceeds 1 KiB limit");
  }
  {  // Abrupt close with no bytes at all.
    Client client(server.port());
  }

  // After all of the above the server still serves.
  Client client(server.port());
  EXPECT_EQ(client.query_text("fleet-power"), "OK 24 72");
  server.stop();
}

TEST_F(ServerTest, TokenBucketShedsAndCountsThrottledRequests) {
  ServerOptions options = quick_options();
  options.tokens_per_s = 0.0;  // no refill: exactly `burst` admissions.
  options.token_burst = 3.0;
  Server server(engine_, metrics_, options);
  Client client(server.port());

  int ok = 0, throttled = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string line = client.query_text("fleet-power");
    if (line.rfind("OK", 0) == 0)
      ++ok;
    else if (line == "ERR 8 client exceeded its request rate")
      ++throttled;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(throttled, 7);
  // Sheds are per-connection: a fresh client gets a fresh bucket.
  Client fresh(server.port());
  EXPECT_EQ(fresh.query_text("stats").rfind("OK", 0), 0u);
  EXPECT_NE(metrics_.to_prometheus().find(
                "vmpower_serve_shed_total{reason=\"throttle\"} 7"),
            std::string::npos);
  server.stop();
}

/// Eight pipelined frames alternating stats and fleet-power (told apart by
/// their value counts), each stamped with its index as id when `with_ids`.
std::string overload_burst(bool with_ids) {
  std::string pipelined;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Request request;
    request.kind = i % 2 == 0 ? QueryKind::kStats : QueryKind::kFleetPower;
    const std::string body = encode_request(request);
    pipelined += with_ids ? encode_frame_with_id(body, i) : encode_frame(body);
  }
  return pipelined;
}

TEST_F(ServerTest, FullQueueShedsWithOverloadedError) {
  ServerOptions options = quick_options();
  options.workers = 1;
  options.queue_capacity = 1;
  options.worker_delay = std::chrono::milliseconds(40);
  Server server(engine_, metrics_, options);

  // Burst id'd pipelined requests on one connection: only id'd requests are
  // queued, and the worker is stalled, so at most (1 in flight + 1 queued)
  // are admitted per round.
  Client client(server.port());
  constexpr int kBurst = 8;
  client.send_raw(overload_burst(/*with_ids=*/true));

  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto [id, response] = client.recv_response_with_id();
    EXPECT_LT(id, static_cast<std::uint64_t>(kBurst));
    if (response.ok)
      ++ok;
    else if (response.code == ErrorCode::kOverloaded)
      ++overloaded;
  }
  EXPECT_GT(overloaded, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_NE(metrics_.to_prometheus().find(
                "vmpower_serve_shed_total{reason=\"queue\"}"),
            std::string::npos);
  server.stop();
}

TEST_F(ServerTest, IdLessBurstIsAnsweredInFullAndInOrderWithoutShedding) {
  // The same burst and stall without ids: each request is answered on the
  // connection's reader before it reads the next, so none is ever queued,
  // and a one-slot queue sheds nothing.
  ServerOptions options = quick_options();
  options.workers = 1;
  options.queue_capacity = 1;
  options.worker_delay = std::chrono::milliseconds(40);
  Server server(engine_, metrics_, options);

  Client client(server.port());
  client.send_raw(overload_burst(/*with_ids=*/false));
  for (std::size_t i = 0; i < 8; ++i) {
    const Response response = client.recv_response();
    ASSERT_TRUE(response.ok) << "response " << i << ": " << response.message;
    EXPECT_EQ(response.values.size(), i % 2 == 0 ? 7u : 1u) << i;
  }
  const std::string dump = metrics_.to_prometheus();
  EXPECT_EQ(dump.find("vmpower_serve_shed_total"), std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_answered_total 8"), std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_queue_high_watermark 0"),
            std::string::npos);
  server.stop();
}

// --- request ids ------------------------------------------------------------

TEST(ProtocolCodec, FrameWithIdSetsFlagAndCarriesBigEndianId) {
  const std::string frame = encode_frame_with_id("body", 0x0102030405060708ull);
  ASSERT_EQ(frame.size(), kFramePrefixBytes + kFrameIdBytes + 4);
  // Prefix: length 4 with bit 31 set.
  EXPECT_EQ(static_cast<std::uint8_t>(frame[0]), 0x80);
  EXPECT_EQ(static_cast<std::uint8_t>(frame[3]), 0x04);
  // Big-endian id between prefix and body.
  for (std::size_t i = 0; i < kFrameIdBytes; ++i)
    EXPECT_EQ(static_cast<std::uint8_t>(frame[kFramePrefixBytes + i]), i + 1);
  EXPECT_EQ(frame.substr(kFramePrefixBytes + kFrameIdBytes), "body");
  // Unflagged framing is byte-identical to the pre-id protocol.
  EXPECT_EQ(encode_frame("body")[0], '\0');
}

TEST(ProtocolCodec, StripTextRequestIdParsesAndEchoPreservesLine) {
  std::string_view line = "#42 stats";
  std::uint64_t id = 0;
  ASSERT_TRUE(strip_text_request_id(line, id));
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(line, "stats");

  line = "#7\tfleet-power";
  ASSERT_TRUE(strip_text_request_id(line, id));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(line, "fleet-power");

  line = "#9";  // id alone: valid, empty remainder.
  ASSERT_TRUE(strip_text_request_id(line, id));
  EXPECT_EQ(id, 9u);
  EXPECT_TRUE(line.empty());

  // Rejections leave the line untouched.
  for (const std::string_view bad :
       {"stats", "#", "# 42 stats", "#x1 stats", "#42x stats",
        "#99999999999999999999 stats"}) {
    std::string_view untouched = bad;
    EXPECT_FALSE(strip_text_request_id(untouched, id)) << bad;
    EXPECT_EQ(untouched, bad);
  }
}

TEST_F(TransportTest, BinaryIdIsEchoedInTheResponseFrame) {
  InProcessTransport transport(engine_, &metrics_);
  Request request;
  request.kind = QueryKind::kFleetPower;
  const std::string frame = transport.roundtrip_binary(
      encode_frame_with_id(encode_request(request), 0xdeadbeefull));

  std::uint32_t prefix = 0;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i)
    prefix = (prefix << 8) | static_cast<std::uint8_t>(frame[i]);
  ASSERT_TRUE(prefix & kFrameIdFlag);
  std::uint64_t echoed = 0;
  for (std::size_t i = 0; i < kFrameIdBytes; ++i)
    echoed = (echoed << 8) |
             static_cast<std::uint8_t>(frame[kFramePrefixBytes + i]);
  EXPECT_EQ(echoed, 0xdeadbeefull);
  const auto response = decode_response(std::string_view(frame).substr(
      kFramePrefixBytes + kFrameIdBytes));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->ok);
}

TEST_F(TransportTest, TextIdIsEchoedAsFirstToken) {
  InProcessTransport transport(engine_, &metrics_);
  EXPECT_EQ(transport.roundtrip_text("#31 fleet-power"), "#31 OK 24 72");
  // Errors echo too, and an id-less line stays id-less.
  EXPECT_EQ(transport.roundtrip_text("#32 gibberish"),
            "#32 ERR 1 unparseable request");
  EXPECT_EQ(transport.roundtrip_text("fleet-power"), "OK 24 72");
}

TEST_F(TransportTest, RequestIdDoesNotSplitTheResultCache) {
  InProcessTransport transport(engine_, &metrics_);
  (void)transport.roundtrip_text("#1 fleet-power");
  (void)transport.roundtrip_text("#2 fleet-power");
  (void)transport.roundtrip_text("fleet-power");
  // One miss filled the cache; the differently-id'd repeats all hit.
  EXPECT_EQ(engine_.cache_misses(), 1u);
  EXPECT_EQ(engine_.cache_hits(), 2u);
}

TEST_F(TransportTest, MetricsAndTraceCommandsReturnEofTerminatedPayloads) {
  InProcessTransport transport(engine_, &metrics_);
  metrics_.counter("vmpower_test_counter_total", "test").inc();
  const std::string metrics_payload = transport.roundtrip_text("METRICS");
  EXPECT_NE(metrics_payload.find("# TYPE vmpower_test_counter_total counter"),
            std::string::npos);
  EXPECT_EQ(metrics_payload.substr(metrics_payload.size() -
                                   std::string(kScrapeEof).size()),
            kScrapeEof);

  const std::string trace_payload = transport.roundtrip_text("TRACE");
  EXPECT_NE(trace_payload.find(kScrapeEof), std::string::npos);
  EXPECT_NE(metrics_.to_prometheus().find(
                "vmpower_serve_scrapes_total{command=\"metrics\"} 1"),
            std::string::npos);
}

TEST_F(ServerTest, IdFlaggedBinaryFramesRoundTripOverTcp) {
  Server server(engine_, metrics_, quick_options());
  Client client(server.port());
  Request request;
  request.kind = QueryKind::kFleetPower;
  // The flagged prefix's first byte is 0x80: the sniff must still route the
  // connection to the binary handler, and the echo must match.
  const Response response = client.query_with_id(request, 77);
  ASSERT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.values.at(0), 72.0);
  // Mixed traffic on one connection: unflagged frames still work after.
  EXPECT_TRUE(client.query(request).ok);
  server.stop();
}

TEST_F(ServerTest, TextIdsEchoOnRepliesAndShedsOverTcp) {
  ServerOptions options = quick_options();
  options.tokens_per_s = 0.0;  // burst only: the bucket never refills.
  options.token_burst = 2.0;
  Server server(engine_, metrics_, options);
  Client client(server.port());
  EXPECT_EQ(client.query_text("#5 fleet-power"), "#5 OK 24 72");
  (void)client.query_text("#6 fleet-power");  // drains the bucket.
  // The shed path never reaches the dispatcher, yet still echoes the id.
  EXPECT_EQ(client.query_text("#7 fleet-power"),
            "#7 ERR 8 client exceeded its request rate");
  server.stop();
}

TEST_F(ServerTest, MetricsScrapeOverTcpIsExpositionShaped) {
  Server server(engine_, metrics_, quick_options());
  Client client(server.port());
  const std::string payload = client.scrape("METRICS");
  EXPECT_NE(payload.find("# HELP "), std::string::npos);
  EXPECT_NE(payload.find("# TYPE "), std::string::npos);
  // The terminator was consumed, not included.
  EXPECT_EQ(payload.find(kScrapeEof), std::string::npos);
  // The scrape itself was counted, so a second scrape sees the counter.
  const std::string again = client.scrape("METRICS");
  EXPECT_NE(again.find("vmpower_serve_scrapes_total{command=\"metrics\"}"),
            std::string::npos);
  server.stop();
}

// --- out-of-order completion ------------------------------------------------

TEST_F(ServerTest, OutOfOrderBinaryCompletionMapsResponsesToIds) {
  ServerOptions options = quick_options();
  options.cost_query_delay = std::chrono::milliseconds(80);
  Server server(engine_, metrics_, options);
  Client client(server.port());

  Request slow;  // stalled by the hook: arrives first, completes last.
  slow.kind = QueryKind::kTenantCost;
  slow.tenant = 1;
  slow.t0 = 6.0;
  slow.t1 = 18.0;
  Request cheap;
  cheap.kind = QueryKind::kFleetPower;
  client.send_query_with_id(slow, 1);
  client.send_query_with_id(cheap, 2);

  // The cheap query overtakes the stalled one; each echoed id still names
  // the request it answers.
  const auto first = client.recv_response_with_id();
  const auto second = client.recv_response_with_id();
  EXPECT_EQ(first.first, 2u);
  ASSERT_TRUE(first.second.ok);
  EXPECT_DOUBLE_EQ(first.second.values.at(0), 72.0);
  EXPECT_EQ(second.first, 1u);
  ASSERT_TRUE(second.second.ok);
  EXPECT_DOUBLE_EQ(second.second.values.at(1), 1200.0);

  const std::string dump = metrics_.to_prometheus();
  EXPECT_NE(dump.find("vmpower_serve_responses_reordered_total 1"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_admitted_total 2"), std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_answered_total 2"), std::string::npos);
  server.stop();
}

TEST_F(ServerTest, OutOfOrderTextCompletionMapsResponsesToIds) {
  ServerOptions options = quick_options();
  options.cost_query_delay = std::chrono::milliseconds(80);
  Server server(engine_, metrics_, options);
  Client client(server.port());

  client.send_raw("#1 tenant-cost 1 6 18\n#2 fleet-power\n");
  EXPECT_EQ(client.recv_line(), "#2 OK 24 72");
  const std::string slow_line = client.recv_line();
  EXPECT_EQ(slow_line.rfind("#1 OK 18 ", 0), 0u) << slow_line;
  server.stop();
}

TEST_F(ServerTest, IdLessPipelinedClientsKeepArrivalOrder) {
  ServerOptions options = quick_options();
  options.cost_query_delay = std::chrono::milliseconds(80);
  Server server(engine_, metrics_, options);

  Request slow;
  slow.kind = QueryKind::kTenantCost;
  slow.tenant = 1;
  slow.t0 = 6.0;
  slow.t1 = 18.0;
  Request cheap;
  cheap.kind = QueryKind::kFleetPower;

  {  // A slow head and three cheap requests, pipelined without ids: the
    // tail is never written ahead of the head, every response is
    // byte-identical to the in-process answer, and nothing is reordered.
    Client client(server.port());
    client.send_query(slow);
    for (int i = 0; i < 3; ++i) client.send_query(cheap);
    std::vector<std::string> frames;
    for (int i = 0; i < 4; ++i) frames.push_back(client.recv_frame());

    const auto head = decode_response(
        std::string_view(frames[0]).substr(kFramePrefixBytes));
    ASSERT_TRUE(head.has_value());
    ASSERT_TRUE(head->ok) << head->message;
    ASSERT_EQ(head->values.size(), 2u);  // the cost response: came first.
    EXPECT_DOUBLE_EQ(head->values.at(1), 1200.0);
    const std::string dump = metrics_.to_prometheus();
    EXPECT_NE(dump.find("vmpower_serve_answered_total 4"), std::string::npos);
    EXPECT_NE(dump.find("vmpower_serve_responses_reordered_total 0"),
              std::string::npos);

    InProcessTransport in_process(engine_);
    EXPECT_EQ(frames[0],
              in_process.roundtrip_binary(encode_frame(encode_request(slow))));
    const std::string cheap_frame =
        in_process.roundtrip_binary(encode_frame(encode_request(cheap)));
    for (int i = 1; i < 4; ++i) EXPECT_EQ(frames[i], cheap_frame) << i;
  }
  {  // Binary without ids: the slow head must not be overtaken.
    Client client(server.port());
    client.send_query(slow);
    client.send_query(cheap);
    const Response first = client.recv_response();
    const Response second = client.recv_response();
    ASSERT_TRUE(first.ok);
    ASSERT_EQ(first.values.size(), 2u);  // the cost response: came first.
    EXPECT_DOUBLE_EQ(first.values.at(1), 1200.0);
    ASSERT_TRUE(second.ok);
    EXPECT_DOUBLE_EQ(second.values.at(0), 72.0);
  }
  {  // Text without ids.
    Client client(server.port());
    client.send_raw("tenant-cost 1 6 18\nfleet-power\n");
    EXPECT_EQ(client.recv_line().rfind("OK 18 ", 0), 0u);
    EXPECT_EQ(client.recv_line(), "OK 24 72");
  }
  server.stop();
}

TEST_F(ServerTest, AnIdLessRequestDoesNotWaitForTheWorkers) {
  // The only worker is stalled on an id'd request; the id-less request
  // behind it on the same connection is answered by the reader at once.
  ServerOptions options = quick_options();
  options.workers = 1;
  options.cost_query_delay = std::chrono::milliseconds(80);
  Server server(engine_, metrics_, options);
  Client client(server.port());

  Request slow;
  slow.kind = QueryKind::kTenantCost;
  slow.tenant = 1;
  slow.t0 = 6.0;
  slow.t1 = 18.0;
  Request cheap;
  cheap.kind = QueryKind::kFleetPower;
  client.send_query_with_id(slow, 1);
  client.send_query(cheap);

  const auto carries_id = [](const std::string& frame) {
    return (static_cast<std::uint8_t>(frame[0]) & 0x80u) != 0;
  };
  const std::string first = client.recv_frame();
  const std::string second = client.recv_frame();
  ASSERT_FALSE(carries_id(first))
      << "the id-less answer waited behind the stalled worker";
  const auto cheap_response =
      decode_response(std::string_view(first).substr(kFramePrefixBytes));
  ASSERT_TRUE(cheap_response.has_value());
  ASSERT_TRUE(cheap_response->ok);
  EXPECT_DOUBLE_EQ(cheap_response->values.at(0), 72.0);
  ASSERT_TRUE(carries_id(second));
  const auto cost_response = decode_response(
      std::string_view(second).substr(kFramePrefixBytes + kFrameIdBytes));
  ASSERT_TRUE(cost_response.has_value());
  ASSERT_TRUE(cost_response->ok);
  EXPECT_DOUBLE_EQ(cost_response->values.at(1), 1200.0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.outstanding() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.outstanding(), 0u);
  EXPECT_EQ(server.admitted(), 2u);
  EXPECT_EQ(server.answered(), 2u);
  server.stop();
}

TEST_F(ServerTest, ResponsesByteIdenticalBetweenOrderedAndOutOfOrder) {
  // One server answers the same requests twice: id-less (arrival order)
  // and id-stamped (out of order behind a stalled head). Each response body
  // must match byte for byte whatever order it completed in — error
  // responses included.
  ServerOptions options = quick_options();
  options.cost_query_delay = std::chrono::milliseconds(30);
  Server server(engine_, metrics_, options);

  const std::vector<std::string> lines = {
      "tenant-cost 1 6 18", "fleet-power",    "vm-power 0 1",
      "tenant-power 777",   "vm-energy 0 1 2 10",
  };
  std::string id_less, id_stamped;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto request = parse_request_text(lines[i]);
    ASSERT_TRUE(request.has_value()) << lines[i];
    id_less += encode_frame(encode_request(*request));
    id_stamped += encode_frame_with_id(encode_request(*request), i);
  }

  std::vector<std::string> ordered_bodies;
  {
    Client client(server.port());
    client.send_raw(id_less);
    for (std::size_t i = 0; i < lines.size(); ++i)
      ordered_bodies.push_back(client.recv_frame().substr(kFramePrefixBytes));
  }
  std::map<std::uint64_t, std::string> reordered_bodies;
  {
    Client client(server.port());
    client.send_raw(id_stamped);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string frame = client.recv_frame();
      std::uint64_t id = 0;
      for (std::size_t b = 0; b < kFrameIdBytes; ++b)
        id = (id << 8) |
             static_cast<std::uint8_t>(frame[kFramePrefixBytes + b]);
      reordered_bodies[id] = frame.substr(kFramePrefixBytes + kFrameIdBytes);
    }
  }

  ASSERT_EQ(reordered_bodies.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto it = reordered_bodies.find(i);
    ASSERT_NE(it, reordered_bodies.end()) << "id " << i << " unanswered";
    EXPECT_EQ(it->second, ordered_bodies[i]) << lines[i] << " diverged";
  }
  // The stalled head really was overtaken on the id-stamped connection.
  EXPECT_EQ(metrics_.to_prometheus().find(
                "vmpower_serve_responses_reordered_total 0"),
            std::string::npos);
  server.stop();
}

TEST_F(ServerTest, ExactlyOnceAccountingBalancesAfterDrain) {
  ServerOptions options = quick_options();
  options.tokens_per_s = 0.0;  // sheds count as answered too.
  options.token_burst = 2.0;
  Server server(engine_, metrics_, options);
  Client client(server.port());
  for (int i = 0; i < 5; ++i) (void)client.query_text("fleet-power");

  // query_text awaits each response, but the worker decrements the
  // outstanding gauge only after the send (decrementing first would let the
  // invariant monitor observe outstanding==0 while answered<admitted), so
  // give the last decrement a moment to land.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.outstanding() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.admitted(), 5u);
  EXPECT_EQ(server.answered(), 5u);
  EXPECT_EQ(server.outstanding(), 0u);

  obs::MetricsRegistry registry;
  obs::InvariantMonitor monitor(registry);
  monitor.observe_serve_accounting(24, server.admitted(), server.answered(),
                                   server.outstanding());
  EXPECT_EQ(monitor.breaches(), 0u);
  server.stop();
}

// --- connection lifecycle ---------------------------------------------------

std::size_t open_descriptors() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++count;
  return count;
}

TEST_F(ServerTest, ClosedConnectionsGiveBackTheirDescriptors) {
  Server server(engine_, metrics_, quick_options());
  const std::size_t before = open_descriptors();
  for (int i = 0; i < 200; ++i) {
    Client client(server.port());
    ASSERT_EQ(client.query_text("fleet-power"), "OK 24 72") << i;
  }
  // Each reader sees its client's close a moment after the client returns.
  std::size_t after = open_descriptors();
  for (int spin = 0; spin < 500 && after > before + 4; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = open_descriptors();
  }
  EXPECT_LE(after, before + 4) << "before " << before;
  server.stop();
}

TEST_F(ServerTest, AResponseInFlightNeverReachesALaterConnection) {
  ServerOptions options = quick_options();
  options.cost_query_delay = std::chrono::milliseconds(80);
  Server server(engine_, metrics_, options);
  {
    Client gone(server.port());
    gone.send_raw("#1 tenant-cost 1 6 18\n");
  }  // closed at once, while its answer is still stalled on a worker.
  Client fresh(server.port());
  EXPECT_EQ(fresh.query_text("fleet-power"), "OK 24 72");
  // Outlive the stalled answer: nothing else may arrive here.
  fresh.set_timeout(std::chrono::milliseconds(200));
  EXPECT_THROW((void)fresh.recv_line(), TimeoutError);
  server.stop();
}

/// Lowers this process's soft RLIMIT_NOFILE for the scope.
class SoftDescriptorLimit {
 public:
  explicit SoftDescriptorLimit(rlim_t soft) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~SoftDescriptorLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  SoftDescriptorLimit(const SoftDescriptorLimit&) = delete;
  SoftDescriptorLimit& operator=(const SoftDescriptorLimit&) = delete;
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

/// Connects an already open TCP socket to 127.0.0.1:port.
bool connect_to(int fd, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                   sizeof address) == 0;
}

TEST_F(ServerTest, AcceptOutlivesRunningOutOfDescriptors) {
  Server server(engine_, metrics_, quick_options());
  fleet::Counter& accepted = metrics_.counter(
      "vmpower_serve_connections_total", "Client connections accepted");
  {  // Start every server thread, and let the acceptor block in accept().
    Client warm(server.port());
    ASSERT_EQ(warm.query_text("fleet-power"), "OK 24 72");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(accepted.value(), 1u);

  // Both client sockets and a spare descriptor open before the limit
  // drops; the sockets connect after it.
  const int first = ::socket(AF_INET, SOCK_STREAM, 0);
  const int second = ::socket(AF_INET, SOCK_STREAM, 0);
  const int spare = ::open("/dev/null", O_RDONLY);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_TRUE(first >= 0 && second >= 0 && spare >= 0 && lowest_free >= 0);
  ::close(lowest_free);
  const timeval timeout{2, 0};
  ::setsockopt(second, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string answer;
  {
    // No descriptor can open now. A blocked accept() already holds the
    // number it will return, so `first` is accepted; every accept after it
    // fails with EMFILE until the spare is freed.
    SoftDescriptorLimit limit(static_cast<rlim_t>(lowest_free));
    ASSERT_TRUE(limit.ok());
    ASSERT_TRUE(connect_to(first, server.port()));
    for (int spin = 0; spin < 200 && accepted.value() < 2; ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(accepted.value(), 2u);
    ASSERT_TRUE(connect_to(second, server.port()));
    const std::string_view request = "fleet-power\n";
    ASSERT_EQ(::send(second, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(accepted.value(), 2u) << "the second accept was meant to fail";
    ::close(spare);
    char buffer[64];
    const ssize_t n = ::recv(second, buffer, sizeof buffer, 0);
    if (n > 0) answer.assign(buffer, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(answer, "OK 24 72\n");
  EXPECT_EQ(accepted.value(), 3u);
  ::close(first);
  ::close(second);
  server.stop();
}

TEST_F(ServerTest, ServerOptionsValidation) {
  ServerOptions bad;
  bad.workers = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServerOptions{};
  bad.queue_capacity = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ServerOptions{};
  bad.token_burst = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// --- trace context ----------------------------------------------------------

TEST(ProtocolCodec, TraceBlockRoundTripsAndRejectsBadVersionOrSize) {
  TraceContextWire ctx;
  ctx.trace_id = 0x1122334455667788ull;
  ctx.parent_span = 0xa1a2a3a4a5a6a7a8ull;
  ctx.budget_us = 250000;
  const std::string block = encode_trace_block(ctx);
  ASSERT_EQ(block.size(), kFrameTraceBytes);
  EXPECT_EQ(static_cast<std::uint8_t>(block[0]), kFrameTraceVersion);

  TraceContextWire decoded;
  ASSERT_TRUE(decode_trace_block(block, decoded));
  EXPECT_EQ(decoded.trace_id, ctx.trace_id);
  EXPECT_EQ(decoded.parent_span, ctx.parent_span);
  EXPECT_EQ(decoded.budget_us, ctx.budget_us);

  std::string wrong_version = block;
  wrong_version[0] = 9;
  EXPECT_FALSE(decode_trace_block(wrong_version, decoded));
  EXPECT_FALSE(decode_trace_block(block.substr(0, kFrameTraceBytes - 1),
                                  decoded));
  EXPECT_FALSE(decode_trace_block(block + "x", decoded));
}

TEST(ProtocolCodec, FrameWithTraceSetsBothFlagsAndSniffsAsBinary) {
  TraceContextWire ctx;
  ctx.trace_id = 7;
  ctx.parent_span = 19;
  ctx.budget_us = 1000;
  const std::string frame = encode_frame_with_trace("body", 42, ctx);
  ASSERT_EQ(frame.size(),
            kFramePrefixBytes + kFrameIdBytes + kFrameTraceBytes + 4);
  // Both flag bits set: the first byte is >= 0xC0, which the server's
  // text-vs-binary sniff must classify as binary (a lone trace flag would
  // be 0x40 = '@' and read as text — the reason the flag pairing exists).
  EXPECT_EQ(static_cast<std::uint8_t>(frame[0]), 0xC0);
  std::uint32_t prefix = 0;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i)
    prefix = (prefix << 8) | static_cast<std::uint8_t>(frame[i]);
  EXPECT_EQ(prefix & kFrameLenMask, 4u);
  // Id, then the trace block, then the body.
  EXPECT_EQ(static_cast<std::uint8_t>(frame[kFramePrefixBytes + kFrameIdBytes -
                                            1]),
            42u);
  TraceContextWire decoded;
  ASSERT_TRUE(decode_trace_block(
      std::string_view(frame).substr(kFramePrefixBytes + kFrameIdBytes,
                                     kFrameTraceBytes),
      decoded));
  EXPECT_EQ(decoded.trace_id, 7u);
  EXPECT_EQ(frame.substr(kFramePrefixBytes + kFrameIdBytes + kFrameTraceBytes),
            "body");
}

TEST(ProtocolCodec, StripTextEnvelopeUnderstandsAllThreeForms) {
  std::uint64_t id = 0;
  TraceContextWire trace;

  std::string_view line = "#42@7:19:250000 stats";
  EXPECT_EQ(strip_text_envelope(line, id, trace), TextEnvelope::kTraced);
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(trace.trace_id, 7u);
  EXPECT_EQ(trace.parent_span, 19u);
  EXPECT_EQ(trace.budget_us, 250000u);
  EXPECT_EQ(line, "stats");

  line = "#42 stats";  // plain id: unchanged semantics.
  EXPECT_EQ(strip_text_envelope(line, id, trace), TextEnvelope::kId);
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(line, "stats");

  line = "stats";  // pre-id client, untouched.
  EXPECT_EQ(strip_text_envelope(line, id, trace), TextEnvelope::kNone);
  EXPECT_EQ(line, "stats");

  // A bad context suffix is kMalformed — never read as an untraced id — and
  // the parsed id is still reported for the error echo.
  for (const std::string_view bad :
       {"#42@ stats", "#42@7 stats", "#42@7:19 stats", "#42@x:19:1 stats",
        "#42@7:x:1 stats", "#42@7:19:x stats", "#42@7:19:1x stats",
        "#42@7:19:99999999999999999999 stats"}) {
    std::string_view untouched = bad;
    id = 0;
    EXPECT_EQ(strip_text_envelope(untouched, id, trace),
              TextEnvelope::kMalformed)
        << bad;
    EXPECT_EQ(untouched, bad);
    EXPECT_EQ(id, 42u) << bad;
  }
}

TEST_F(TransportTest, TracedBinaryFrameExecutesAndEchoesIdOnly) {
  InProcessTransport transport(engine_, &metrics_);
  Request request;
  request.kind = QueryKind::kFleetPower;
  TraceContextWire ctx;
  ctx.trace_id = 77;
  ctx.parent_span = 5;
  ctx.budget_us = 100000;
  const std::string frame = transport.roundtrip_binary(
      encode_frame_with_trace(encode_request(request), 0xabcdull, ctx));

  std::uint32_t prefix = 0;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i)
    prefix = (prefix << 8) | static_cast<std::uint8_t>(frame[i]);
  ASSERT_TRUE(prefix & kFrameIdFlag);
  // Responses never carry the trace block: id echo only, byte-identical to
  // an untraced id exchange.
  EXPECT_FALSE(prefix & kFrameTraceFlag);
  std::uint64_t echoed = 0;
  for (std::size_t i = 0; i < kFrameIdBytes; ++i)
    echoed = (echoed << 8) |
             static_cast<std::uint8_t>(frame[kFramePrefixBytes + i]);
  EXPECT_EQ(echoed, 0xabcdull);
  const auto response = decode_response(
      std::string_view(frame).substr(kFramePrefixBytes + kFrameIdBytes));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(frame, transport.roundtrip_binary(encode_frame_with_id(
                       encode_request(request), 0xabcdull)));
}

TEST_F(TransportTest, LoneTraceFlagAndBadVersionAreMalformed) {
  InProcessTransport transport(engine_, &metrics_);
  Request request;
  request.kind = QueryKind::kFleetPower;
  TraceContextWire ctx;
  ctx.trace_id = 1;

  // Trace flag without the id flag: invalid by construction.
  std::string lone = encode_frame_with_trace(encode_request(request), 9, ctx);
  lone[0] = static_cast<char>(static_cast<std::uint8_t>(lone[0]) & ~0x80u);
  lone.erase(kFramePrefixBytes, kFrameIdBytes);  // drop the id the flag lost.
  const auto lone_response = decode_response(
      std::string_view(transport.roundtrip_binary(lone))
          .substr(kFramePrefixBytes));
  ASSERT_TRUE(lone_response.has_value());
  EXPECT_FALSE(lone_response->ok);
  EXPECT_EQ(lone_response->code, ErrorCode::kMalformed);

  // Unknown trace-block version: rejected, id still echoed.
  std::string bad = encode_frame_with_trace(encode_request(request), 9, ctx);
  bad[kFramePrefixBytes + kFrameIdBytes] = 9;  // version byte.
  const std::string bad_frame = transport.roundtrip_binary(bad);
  const auto bad_response = decode_response(std::string_view(bad_frame).substr(
      kFramePrefixBytes + kFrameIdBytes));
  ASSERT_TRUE(bad_response.has_value());
  EXPECT_FALSE(bad_response->ok);
  EXPECT_EQ(bad_response->code, ErrorCode::kMalformed);
}

TEST_F(TransportTest, TracedTextLineExecutesAndMalformedContextErrs) {
  InProcessTransport transport(engine_, &metrics_);
  EXPECT_EQ(transport.roundtrip_text("#31@7:19:1000 fleet-power"),
            "#31 OK 24 72");
  EXPECT_EQ(transport.roundtrip_text("#31@7:19 fleet-power"),
            "#31 ERR 1 malformed trace context");
}

// --- seeded mutation --------------------------------------------------------

/// Two requests of every kind: make_request's (unknown entities) and one the
/// synthetic store answers.
std::vector<Request> mutation_seed_requests() {
  std::vector<Request> requests;
  for (const QueryKind kind :
       {QueryKind::kVmPower, QueryKind::kTenantPower, QueryKind::kFleetPower,
        QueryKind::kVmEnergy, QueryKind::kTenantEnergy, QueryKind::kTenantCost,
        QueryKind::kStats}) {
    requests.push_back(make_request(kind));
    Request answerable;
    answerable.kind = kind;
    answerable.vm = 1;
    answerable.tenant = 2;
    answerable.t0 = 3.0;
    answerable.t1 = 20.0;
    requests.push_back(answerable);
  }
  return requests;
}

/// Why `frame` is not one well-formed response frame, or "" when it is.
std::string response_frame_fault(std::string_view frame) {
  if (frame.size() < kFramePrefixBytes) return "shorter than a prefix";
  std::uint32_t prefix = 0;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i)
    prefix = (prefix << 8) | static_cast<std::uint8_t>(frame[i]);
  if (prefix & kFrameTraceFlag) return "trace flag on a response";
  const std::size_t header =
      kFramePrefixBytes + ((prefix & kFrameIdFlag) ? kFrameIdBytes : 0);
  if (frame.size() != header + (prefix & kFrameLenMask))
    return "length prefix does not match the frame";
  if (!decode_response(frame.substr(header))) return "undecodable body";
  return "";
}

/// The body of a request frame under its own prefix flags; empty when the
/// frame is shorter than its header.
std::string_view request_body_of(std::string_view frame) {
  if (frame.size() < kFramePrefixBytes) return {};
  const auto flags = static_cast<std::uint8_t>(frame[0]);
  const std::size_t header = kFramePrefixBytes +
                             ((flags & 0x80) ? kFrameIdBytes : 0) +
                             ((flags & 0x40) ? kFrameTraceBytes : 0);
  return frame.size() < header ? std::string_view{} : frame.substr(header);
}

TEST_F(TransportTest, SeededFrameMutationsGetOneWellFormedResponse) {
  // Valid frames of every kind, plain, with an id and traced, under bit
  // flips, overwrites, truncations, insertions and toggled id and trace
  // flags: the transport never throws and answers exactly one well-formed
  // frame, and a body the decoder accepts re-encodes to itself.
  InProcessTransport transport(engine_, &metrics_);
  TraceContextWire trace;
  trace.trace_id = 7;
  trace.parent_span = 19;
  trace.budget_us = 250000;
  std::vector<std::string> seeds;
  for (const Request& request : mutation_seed_requests()) {
    const std::string body = encode_request(request);
    seeds.push_back(encode_frame(body));
    seeds.push_back(encode_frame_with_id(body, 0x0102030405060708ull));
    seeds.push_back(encode_frame_with_trace(body, 42, trace));
  }
  std::mt19937_64 rng(0x5eedf4a3e5ull);
  std::size_t failures = 0, accepted = 0;
  std::string first;
  for (int c = 0; c < test::kMutationCases; ++c) {
    std::string frame = seeds[rng() % seeds.size()];
    for (std::uint64_t e = 1 + rng() % 3; e > 0; --e) {
      if (rng() % 4 == 0 && !frame.empty())
        frame[0] = static_cast<char>(frame[0] ^ ((rng() & 1) ? 0x80 : 0x40));
      else
        test::mutate(frame, rng, {});
    }
    std::string fault;
    try {
      fault = response_frame_fault(transport.roundtrip_binary(frame));
    } catch (...) {
      fault = "roundtrip_binary threw";
    }
    const std::string_view body = request_body_of(frame);
    if (const auto request = decode_request(body)) {
      ++accepted;
      if (encode_request(*request) != body) fault = "re-encode differs";
    }
    if (!fault.empty() && failures++ == 0)
      first = "case " + std::to_string(c) + ": " + fault;
  }
  EXPECT_EQ(failures, 0u) << first;
  EXPECT_GT(accepted, 0u);  // the mutations reach the decoder's accept path.
}

TEST_F(TransportTest, SeededTextMutationsAnswerOneLineAndRoundTrip) {
  // Lines plain, with "#<id>" and with "#<id>@<trace>:<parent>:<budget>",
  // mutated over digits, envelope punctuation, tabs, control bytes and
  // overflowing digit runs: the dispatcher never throws and answers one
  // line, and a line that parses formats back to the same canonical form.
  Dispatcher dispatcher(engine_, &metrics_);
  std::vector<std::string> seeds;
  for (const Request& request : mutation_seed_requests()) {
    const std::string line = format_request_text(request);
    seeds.push_back(line);
    seeds.push_back("#17 " + line);
    seeds.push_back("#17@9:3:250000 " + line);
  }
  const std::string alphabet =
      std::string("0123456789#@: -.e\t") +
      std::string("\0\x01\x08\x0b\x0c\x1b\x7f\r", 8);
  std::mt19937_64 rng(0x5eed7e47ull);
  std::size_t failures = 0, parsed = 0;
  std::string first;
  for (int c = 0; c < test::kMutationCases; ++c) {
    std::string line = seeds[rng() % seeds.size()];
    for (std::uint64_t e = 1 + rng() % 3; e > 0; --e)
      test::mutate(line, rng, alphabet);
    std::string fault;
    try {
      const std::string reply = dispatcher.handle_text(line);
      if (reply.empty() || reply.find('\n') != std::string::npos)
        fault = "reply is not one line";
    } catch (...) {
      fault = "handle_text threw";
    }
    std::string_view rest = line;
    std::uint64_t id = 0;
    TraceContextWire wire;
    if (strip_text_envelope(rest, id, wire) != TextEnvelope::kMalformed) {
      if (const auto request = parse_request_text(rest)) {
        ++parsed;
        const auto again = parse_request_text(format_request_text(*request));
        if (!again || again->canonical() != request->canonical())
          fault = "format_request_text does not parse back";
      }
    }
    if (!fault.empty() && failures++ == 0)
      first = "case " + std::to_string(c) + ": " + fault;
  }
  EXPECT_EQ(failures, 0u) << first;
  EXPECT_GT(parsed, 0u);
}

TEST_F(ServerTest, TracedQueriesRoundTripOverTcpAndSurviveMalformedContext) {
  Server server(engine_, metrics_, quick_options());
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kFleetPower;
  TraceContextWire ctx;
  ctx.trace_id = 404;
  ctx.parent_span = 17;
  ctx.budget_us = 250000;
  Response response = client.query_with_trace(request, 61, ctx);
  ASSERT_TRUE(response.ok);
  EXPECT_DOUBLE_EQ(response.values.at(0), 72.0);

  // A traced frame with an unknown block version: answered kMalformed with
  // the id echoed, and the connection stays usable — the frame length is
  // still trusted for resync.
  std::string bad = encode_frame_with_trace(encode_request(request), 62, ctx);
  bad[kFramePrefixBytes + kFrameIdBytes] = 9;
  client.send_raw(bad);
  const auto [echoed, error] = client.recv_response_with_id();
  EXPECT_EQ(echoed, 62u);
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.code, ErrorCode::kMalformed);

  response = client.query_with_trace(request, 63, ctx);
  EXPECT_TRUE(response.ok);

  // Text protocol on the same server: traced line executes, malformed
  // context errs with the id echo, and the connection survives both.
  Client text_client(server.port());
  EXPECT_EQ(text_client.query_text("#9@404:17:250000 fleet-power"),
            "#9 OK 24 72");
  EXPECT_EQ(text_client.query_text("#10@404 fleet-power"),
            "#10 ERR 1 malformed trace context");
  EXPECT_EQ(text_client.query_text("fleet-power"), "OK 24 72");
  server.stop();
}

// --- per-query profiling + SLO health ---------------------------------------

TEST_F(ServerTest, ProfilerRecordsStageBreakdownAndHealthScrapeRendersIt) {
  obs::SloOptions slo_options;
  slo_options.latency_threshold_s = 0.5;
  slo_options.metrics = &metrics_;
  obs::SloTracker slo(slo_options);
  ServeProfiler profiler({.slow_threshold_s = 10.0,  // nothing "slow" here.
                          .metrics = &metrics_,
                          .slo = &slo});
  ServerOptions options = quick_options();
  options.profiler = &profiler;
  Server server(engine_, metrics_, options);
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kFleetPower;
  for (std::uint64_t i = 1; i <= 8; ++i)
    ASSERT_TRUE(client.query_with_id(request, i).ok);
  ASSERT_TRUE(client.query(request).ok);  // ordered path profiles too.

  // Wait until the last write-side observe lands (answered != observed
  // ordering is possible for an instant after recv).
  for (int spin = 0; spin < 1000 && profiler.observed() < 9; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(profiler.observed(), 9u);
  EXPECT_EQ(profiler.total_sketch().count(), 9u);
  EXPECT_EQ(profiler.stage_sketch(Stage::kExecute).count(), 9u);
  // Every profiled stage is nonnegative and total covers the sum of stages.
  const auto slow = profiler.slow_queries();
  EXPECT_TRUE(slow.empty());

  // Counter/gauge checks happen before the scrape: the HEALTH request is
  // itself profiled once it completes, so post-scrape counts are racy.
  profiler.publish();
  const std::string dump = metrics_.to_prometheus();
  EXPECT_NE(dump.find("vmpower_serve_stage_latency_seconds{stage=\"execute\","
                      "q=\"p50\"}"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_serve_profiled_total 9"), std::string::npos);
  EXPECT_NE(dump.find("vmpower_slo_requests_total 9"), std::string::npos);

  // The protocol sniff latches per connection; scrape over a fresh text one.
  Client scraper(server.port());
  const std::string health = scraper.scrape("HEALTH");
  EXPECT_NE(health.find("health queries=9"), std::string::npos);
  EXPECT_NE(health.find("stage execute count=9"), std::string::npos);
  EXPECT_NE(health.find("stage queue_wait"), std::string::npos);
  EXPECT_NE(health.find("stage total"), std::string::npos);
  EXPECT_NE(health.find("slo latency window=fast"), std::string::npos);
  server.stop();
}

TEST_F(ServerTest, BudgetOverrunAndSlowThresholdFeedTheSlowQueryLog) {
  ServeProfiler profiler({.slow_threshold_s = 0.040, .metrics = &metrics_});
  ServerOptions options = quick_options();
  options.profiler = &profiler;
  options.worker_delay = std::chrono::milliseconds(60);
  Server server(engine_, metrics_, options);
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kFleetPower;
  // Budget overrun outranks the plain threshold as the logged trigger.
  TraceContextWire ctx;
  ctx.trace_id = 505;
  ctx.budget_us = 1000;  // 1 ms against a 60 ms stall.
  ASSERT_TRUE(client.query_with_trace(request, 1, ctx).ok);
  // Untraced slow query: threshold trigger.
  ASSERT_TRUE(client.query_with_id(request, 2).ok);

  for (int spin = 0; spin < 1000 && profiler.observed() < 2; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto slow = profiler.slow_queries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_STREQ(slow[0].trigger, "budget");
  EXPECT_EQ(slow[0].profile.trace_id, 505u);
  EXPECT_EQ(slow[0].profile.budget_us, 1000u);
  EXPECT_GT(slow[0].profile.total_s, 0.05);
  EXPECT_STREQ(slow[1].trigger, "threshold");
  // Counter checks before the scrape: the 60 ms-stalled HEALTH request will
  // itself enter the slow log once it completes.
  const std::string dump = metrics_.to_prometheus();
  EXPECT_NE(
      dump.find("vmpower_serve_slow_queries_total{trigger=\"budget\"} 1"),
      std::string::npos);
  EXPECT_NE(
      dump.find("vmpower_serve_slow_queries_total{trigger=\"threshold\"} 1"),
      std::string::npos);
  // The slow-query log line carries the trigger, trace id, and breakdown.
  // (Fresh connection: the sniff latched this one as binary.)
  Client scraper(server.port());
  const std::string health = scraper.scrape("HEALTH");
  EXPECT_NE(health.find("slowq seq=0 trigger=budget"), std::string::npos);
  EXPECT_NE(health.find("trace=505"), std::string::npos);
  EXPECT_NE(health.find("trigger=threshold"), std::string::npos);
  server.stop();
}

TEST(ServeProfilerLog, KeepsTheNewest64SlowQueriesAndCountsTheDropped) {
  ServeProfiler profiler({.slow_threshold_s = 0.010});
  StageProfile profile;
  profile.total_s = 0.020;  // every one is slow.
  for (std::uint64_t i = 0; i < 70; ++i) {
    profile.request_id = i;
    profiler.observe(profile);
  }
  const auto slow = profiler.slow_queries();
  ASSERT_EQ(slow.size(), 64u);
  EXPECT_EQ(slow.front().seq, 6u);
  EXPECT_EQ(slow.front().profile.request_id, 6u);
  EXPECT_EQ(slow.back().seq, 69u);
  EXPECT_EQ(profiler.slow_dropped(), 6u);
  EXPECT_EQ(profiler.observed(), 70u);
}

TEST_F(ServerTest, ShedsUnderFaultInjectionKeepAccountingAndBurnTheSlo) {
  // Fault injection: an empty token bucket sheds hard, and every shed must
  // (a) keep the exactly-once response balance and (b) burn the
  // availability SLO — an answered error is still a failed query.
  obs::SloOptions slo_options;
  slo_options.latency_threshold_s = 10.0;
  slo_options.metrics = &metrics_;
  obs::SloTracker slo(slo_options);
  ServeProfiler profiler({.slow_threshold_s = 10.0,
                          .metrics = &metrics_,
                          .slo = &slo});
  ServerOptions options = quick_options();
  options.profiler = &profiler;
  options.tokens_per_s = 0.001;
  options.token_burst = 2.0;  // two tokens, then sheds.
  Server server(engine_, metrics_, options);
  Client client(server.port());

  Request request;
  request.kind = QueryKind::kFleetPower;
  std::size_t ok = 0, shed = 0;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    const Response response = client.query_with_id(request, i);
    if (response.ok)
      ++ok;
    else if (response.code == ErrorCode::kThrottled)
      ++shed;
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 6u);

  for (int spin = 0; spin < 1000 && profiler.observed() < 8; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Every request — sheds included — was profiled exactly once, and the
  // server's exactly-once balance holds.
  EXPECT_EQ(profiler.observed(), 8u);
  EXPECT_EQ(server.admitted(), 8u);
  EXPECT_EQ(server.answered(), 8u);
  EXPECT_EQ(server.outstanding(), 0u);

  const auto health = slo.health();
  EXPECT_EQ(health.availability_fast.total, 8u);
  EXPECT_EQ(health.availability_fast.bad, 6u);
  EXPECT_GT(health.availability_fast.burn_rate, 100.0);
  // Scrape over a fresh connection: this one's bucket is empty and would
  // shed the HEALTH line itself.
  Client scraper(server.port());
  const std::string text = scraper.scrape("HEALTH");
  EXPECT_NE(text.find("slo availability window=fast"), std::string::npos);
  EXPECT_NE(text.find("bad=6"), std::string::npos);
  server.stop();
}

TEST_F(ServerTest, HealthScrapeWithoutProfilerSaysSo) {
  Server server(engine_, metrics_, quick_options());
  Client client(server.port());
  EXPECT_EQ(client.scrape("HEALTH"), "health profiler=off\n");
  server.stop();
}

}  // namespace
}  // namespace vmp::serve
