// Wire protocol of the attribution query service.
//
// Two encodings of the same request/response model share one dispatch path:
//
//  * Binary: every frame is a 4-byte big-endian body length followed by the
//    body. Request bodies are an opcode byte (QueryKind) plus fixed-size
//    big-endian operands (u32 ids, IEEE-754 f64 times); a body whose length
//    does not match its opcode's operand layout is a protocol error, never a
//    crash. Response bodies are a status byte, then either
//    `u64 epoch, u8 count, count x f64` (OK),
//    `u64 epoch, u8 count, count x f64, u16 miss, miss x u32` (partial OK:
//    a federated roll-up missing the listed shards — see federate/), or
//    `u16 code, u64 detail, u16 len, message` (error; `detail` is a
//    code-specific operand — for the window errors kOutOfRetention and
//    kOutOfHistory it carries the oldest still-answerable epoch, so a client
//    can clamp its window instead of guessing). Frames longer than
//    kMaxFrameBytes are rejected up front.
//
//    A client may set bit 31 of the length prefix (kFrameIdFlag) to carry an
//    8-byte big-endian *request id* between the prefix and the body; the
//    response frame echoes the flag and the same id, which is what lets a
//    pipelining client correlate out-of-order responses. Unflagged frames
//    are byte-identical to the pre-id protocol.
//
//    Bit 30 (kFrameTraceFlag) extends the id mechanism with full *trace
//    context*: a kFrameTraceBytes block after the id carrying
//    `u8 version, u64 trace_id, u64 parent_span, u64 budget_us` — enough for
//    a downstream server to open spans as children of the caller's span in
//    the caller's trace, and to know how much of the end-to-end deadline
//    remains (budget_us; 0 = none declared). The trace flag is only valid
//    together with the id flag: a traced first byte is then >= 0xC0, which
//    the server's text-vs-binary sniff classifies as binary (a lone trace
//    flag would put 0x40 = '@' on the wire and be mistaken for text).
//    A bad version or a lone trace flag is answered with kMalformed on the
//    same connection — the frame length is still trusted for resync, so the
//    connection survives. Responses never carry the trace block; they echo
//    the id alone, byte-identical to an untraced exchange.
//
//  * Text: one newline-terminated line per request ("tenant-energy 2 10 50"),
//    one line per response ("OK <epoch> <values...>" / "ERR <code> <msg>") —
//    telnet-friendly and self-describing. A leading "#<id>" token is the
//    text spelling of the request id ("#42 stats") and is echoed as the
//    first token of the response line ("#42 OK ..."). Trace context extends
//    the token as "#<id>@<trace>:<parent>:<budget_us>"
//    ("#42@7:19:250000 stats"); the response echoes "#<id>" alone. An "@"
//    with a malformed context suffix is kMalformed — never silently read as
//    an untraced id.
//
// The request id and trace context are wire-level correlation only: they
// never enter Request::canonical(), so the result cache is id-blind. The
// dispatcher stamps the explicit trace id (or the request id, when no
// context is carried) into the query's trace spans.
//
// Doubles are formatted with %.17g so text responses round-trip exactly and
// identical queries produce byte-identical responses on every transport.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vmp::serve {

enum class QueryKind : std::uint8_t {
  kVmPower = 1,      ///< instant Shapley share of one VM, W.
  kTenantPower = 2,  ///< instant cross-host tenant power, W.
  kFleetPower = 3,   ///< instant fleet-wide allocated power, W.
  kVmEnergy = 4,     ///< VM energy over [t0, t1], J.
  kTenantEnergy = 5, ///< tenant energy over [t0, t1], J.
  kTenantCost = 6,   ///< tenant cost over [t0, t1] under the TOU schedule.
  kStats = 7,        ///< fleet rollup (tick, counts, totals).
};

[[nodiscard]] const char* to_string(QueryKind kind) noexcept;

struct Request {
  QueryKind kind = QueryKind::kStats;
  std::uint32_t host = 0;
  std::uint32_t vm = 0;
  std::uint32_t tenant = 0;
  double t0 = 0.0;
  double t1 = 0.0;

  /// Canonical text form; doubles as the result-cache key basis.
  [[nodiscard]] std::string canonical() const;
};

enum class ErrorCode : std::uint16_t {
  kMalformed = 1,       ///< unparseable frame/line or operand layout.
  kUnknownQuery = 2,    ///< opcode/verb not in QueryKind.
  kNoSnapshot = 3,      ///< nothing published yet.
  kUnknownEntity = 4,   ///< host/vm/tenant not in the snapshot.
  kOutOfRetention = 5,  ///< window start predates the retention ring (and no
                        ///< durable ledger holds it).
  kBadWindow = 6,       ///< t1 < t0 or non-finite bounds.
  kOverloaded = 7,      ///< request queue full; shed.
  kThrottled = 8,       ///< per-client token bucket empty; shed.
  kFrameTooLarge = 9,   ///< declared frame length exceeds kMaxFrameBytes.
  kOutOfHistory = 10,   ///< window start predates even the durable ledger's
                        ///< oldest record.
  kUnavailable = 11,    ///< the answer exists but cannot be read: no
                        ///< federation shard could answer at all, or a
                        ///< ledger frame deciding it is damaged (message
                        ///< names the segment file and offset).
  kEpochSkew = 12,      ///< shard epochs disagree beyond the skew budget
                        ///< (detail carries the observed skew).
};

struct Response {
  bool ok = false;
  std::uint64_t epoch = 0;  ///< snapshot epoch the answer was computed at.
  std::vector<double> values;
  ErrorCode code = ErrorCode::kMalformed;
  /// Code-specific operand; 0 when the code defines none. kOutOfRetention /
  /// kOutOfHistory: the oldest epoch a window query can still reach.
  /// kEpochSkew: the observed cross-shard epoch spread.
  std::uint64_t detail = 0;
  std::string message;
  /// Degraded-roll-up marker (federation): true everywhere except a partial
  /// scatter-gather answer, where `missing_shards` lists the fleet shards
  /// whose contribution is absent from `values`. Single-fleet responses are
  /// always complete.
  bool complete = true;
  std::vector<std::uint32_t> missing_shards;  ///< sorted fleet ids.

  static Response success(std::uint64_t epoch, std::vector<double> values);
  /// A degraded roll-up: still ok, but `values` misses the listed shards.
  static Response partial(std::uint64_t epoch, std::vector<double> values,
                          std::vector<std::uint32_t> missing);
  static Response error(ErrorCode code, std::string message,
                        std::uint64_t detail = 0);
};

inline constexpr std::size_t kFramePrefixBytes = 4;
inline constexpr std::size_t kMaxFrameBytes = 64 * 1024;
inline constexpr std::size_t kMaxLineBytes = 1024;
/// Bit 31 of the length prefix: an 8-byte request id follows the prefix.
/// Frame length checks mask the flag first, so a garbage prefix like
/// 0xFFFFFFFF still reads as an oversized frame, never a huge id-less body.
inline constexpr std::uint32_t kFrameIdFlag = 0x80000000u;
inline constexpr std::size_t kFrameIdBytes = 8;
/// Bit 30 of the length prefix: a kFrameTraceBytes trace-context block
/// follows the request id. Valid only together with kFrameIdFlag (see the
/// sniffing note in the header comment); requests only, never responses.
inline constexpr std::uint32_t kFrameTraceFlag = 0x40000000u;
inline constexpr std::uint32_t kFrameLenMask =
    ~(kFrameIdFlag | kFrameTraceFlag);
inline constexpr std::uint8_t kFrameTraceVersion = 1;
/// u8 version + u64 trace_id + u64 parent_span + u64 budget_us.
inline constexpr std::size_t kFrameTraceBytes = 25;

/// Trace context carried alongside a request id, in either protocol.
struct TraceContextWire {
  std::uint64_t trace_id = 0;     ///< the caller's trace (0 = request id).
  std::uint64_t parent_span = 0;  ///< caller span the server's spans nest in.
  std::uint64_t budget_us = 0;    ///< remaining end-to-end deadline; 0 = none.
};

/// Terminator line of the multi-line METRICS / TRACE scrape responses.
inline constexpr std::string_view kScrapeEof = "# EOF";

/// Length-prefixes `body` (the framing shared by requests and responses).
[[nodiscard]] std::string encode_frame(std::string_view body);
/// Length-prefixes `body` with kFrameIdFlag set and `request_id` between the
/// prefix and the body.
[[nodiscard]] std::string encode_frame_with_id(std::string_view body,
                                               std::uint64_t request_id);
/// Length-prefixes `body` with both flags set: prefix, id, trace block, body.
[[nodiscard]] std::string encode_frame_with_trace(std::string_view body,
                                                  std::uint64_t request_id,
                                                  const TraceContextWire& ctx);

/// Single-copy framing: appends the frame header (length-prefix placeholder,
/// optional request id, optional trace block) to `out` and returns the
/// frame's start offset. The caller then appends the body bytes directly —
/// encode_response_into / encode_request_into — and calls finish_frame,
/// which backpatches the placeholder with the real body length and the
/// flags the header implies. The encode_frame* functions above are this
/// pair plus one body copy; hot paths that already own a reusable buffer
/// skip that copy entirely.
[[nodiscard]] std::size_t begin_frame(std::string& out, bool has_id,
                                      std::uint64_t request_id,
                                      const TraceContextWire* trace = nullptr);
/// Backpatches the length prefix of the frame begun at `frame_start`. The
/// header layout (id / trace) is recovered from the placeholder's flag bits,
/// so no separate bookkeeping rides between the two calls.
void finish_frame(std::string& out, std::size_t frame_start);

/// The kFrameTraceBytes trace block alone (version byte + three u64s).
[[nodiscard]] std::string encode_trace_block(const TraceContextWire& ctx);
/// Decodes a trace block; false on wrong size or unknown version.
[[nodiscard]] bool decode_trace_block(std::string_view block,
                                      TraceContextWire& ctx);

/// Consumes a leading "#<id>" token ("#42 stats" -> line "stats", id 42).
/// Returns false — leaving `line` untouched — when there is no well-formed
/// id token; the line then parses (or fails) exactly as before ids existed.
[[nodiscard]] bool strip_text_request_id(std::string_view& line,
                                         std::uint64_t& request_id);

/// Classification of a text line's leading envelope token.
enum class TextEnvelope {
  kNone,       ///< no "#" token; plain pre-id line, untouched.
  kId,         ///< "#<id>" consumed; `request_id` set.
  kTraced,     ///< "#<id>@<trace>:<parent>:<budget>" consumed; both outputs.
  kMalformed,  ///< "#<id>@..." with a bad context suffix; line untouched —
               ///< the caller must answer kMalformed, not guess (the parsed
               ///< `request_id` is still reported, for the error echo).
};

/// Generalisation of strip_text_request_id that also understands the traced
/// form. On kId/kTraced the token is consumed from `line`; on kNone and
/// kMalformed the line is untouched. A malformed *id* (pre-trace rules:
/// "#x", overflow, no separator) stays kNone for compatibility — such lines
/// always fell through to the verb parser.
[[nodiscard]] TextEnvelope strip_text_envelope(std::string_view& line,
                                               std::uint64_t& request_id,
                                               TraceContextWire& trace);

/// --- binary bodies ---------------------------------------------------------

[[nodiscard]] std::string encode_request(const Request& request);
/// Appends the request body to `out` (the single-copy sibling of
/// encode_request; pairs with begin_frame/finish_frame).
void encode_request_into(const Request& request, std::string& out);
/// nullopt on an unknown opcode or operand-layout mismatch.
[[nodiscard]] std::optional<Request> decode_request(std::string_view body);

[[nodiscard]] std::string encode_response(const Response& response);
/// Appends the response body to `out` (the single-copy sibling of
/// encode_response; pairs with begin_frame/finish_frame).
void encode_response_into(const Response& response, std::string& out);
[[nodiscard]] std::optional<Response> decode_response(std::string_view body);

/// --- text lines (no trailing newline) --------------------------------------

[[nodiscard]] std::string format_request_text(const Request& request);
[[nodiscard]] std::optional<Request> parse_request_text(std::string_view line);

[[nodiscard]] std::string format_response_text(const Response& response);
/// Appends the response line to `out` (no trailing newline) — the
/// single-copy sibling of format_response_text for reply buffers.
void format_response_text_into(const Response& response, std::string& out);

}  // namespace vmp::serve
