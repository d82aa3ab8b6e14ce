// Minimal blocking loopback client for the query service.
//
// One Client speaks one protocol per connection (the server sniffs the mode
// from the first byte). The query_* helpers await each response before the
// next request; the send_/recv_ pairs pipeline — stamp an id on every
// pipelined request, because the server completes id-carrying requests out
// of order (see server.hpp) and the echoed id is the only correlation
// handle. The raw send/receive helpers exist so the protocol-robustness
// tests can inject garbage, truncated frames, and mid-request disconnects.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "serve/protocol.hpp"

namespace vmp::serve {

/// Thrown when a per-query deadline (see Client::set_timeout) expires before
/// the response arrives. Distinct from the generic std::runtime_error used
/// for hard transport failures so callers — the CLI's --timeout-ms and the
/// federation frontend's per-shard deadlines — can treat "slow" differently
/// from "broken".
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Client {
 public:
  /// Connects to 127.0.0.1:port with Nagle's algorithm disabled; throws
  /// std::runtime_error on failure.
  explicit Client(std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Binary round trip. Transport failures throw std::runtime_error;
  /// protocol failures come back as error Responses.
  [[nodiscard]] Response query(const Request& request);

  /// Binary round trip with `request_id` stamped in the frame (kFrameIdFlag);
  /// throws std::runtime_error when the response does not echo the same id.
  [[nodiscard]] Response query_with_id(const Request& request,
                                       std::uint64_t request_id);

  /// Binary round trip carrying a full trace context (kFrameTraceFlag): the
  /// server joins the caller's trace instead of starting its own and honours
  /// the deadline budget in its slow-query accounting. Responses echo the id
  /// only, so the receive path is shared with query_with_id.
  [[nodiscard]] Response query_with_trace(const Request& request,
                                          std::uint64_t request_id,
                                          const TraceContextWire& trace);

  /// Text round trip: sends `line` (newline appended) and returns the
  /// response line without its newline.
  [[nodiscard]] std::string query_text(const std::string& line);

  /// Multi-line text command ("METRICS" / "TRACE"): returns every line up to
  /// — not including — the "# EOF" terminator, newline-separated.
  [[nodiscard]] std::string scrape(const std::string& command);

  /// Pipelining: sends one binary request without awaiting the response.
  void send_query(const Request& request);
  /// Pipelining with correlation: sends one id-stamped binary request.
  void send_query_with_id(const Request& request, std::uint64_t request_id);
  /// Pipelining with correlation and trace context.
  void send_query_with_trace(const Request& request, std::uint64_t request_id,
                             const TraceContextWire& trace);
  /// Receives the next id-less binary response (arrival order).
  [[nodiscard]] Response recv_response();
  /// Receives the next id-flagged binary response in whatever order the
  /// server completed it; the echoed id tells the caller which request it
  /// answers. Throws std::runtime_error on an id-less or undecodable frame.
  [[nodiscard]] std::pair<std::uint64_t, Response> recv_response_with_id();

  /// Raw escape hatches for robustness tests.
  void send_raw(std::string_view bytes);
  /// Receives one complete response frame (prefix + body); throws on EOF.
  [[nodiscard]] std::string recv_frame();
  /// Receives one response line without its newline; throws on EOF.
  [[nodiscard]] std::string recv_line();

  /// Half-closes the write side (simulates a mid-request disconnect).
  void shutdown_write();
  void close();

  /// The connected socket (-1 once closed), for a caller that waits on
  /// several connections at once: the federation frontend polls every open
  /// shard leg and calls recv_response* on the one that became readable.
  /// Readable means the answer's first bytes arrived; the rest of the frame
  /// is read under the socket's deadline, as for any blocking receive.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Arms a per-operation deadline on the socket (SO_RCVTIMEO/SO_SNDTIMEO):
  /// any single send or receive that blocks longer than `timeout` throws
  /// TimeoutError. Zero disarms. The socket is left in an indeterminate
  /// mid-message state after a timeout — callers should close and reconnect
  /// rather than reuse the connection. Re-arming the deadline the socket
  /// already carries makes no system call.
  void set_timeout(std::chrono::milliseconds timeout);
  [[nodiscard]] std::chrono::milliseconds timeout() const noexcept {
    return timeout_;
  }

 private:
  int fd_ = -1;
  std::string buffer_;  ///< unread bytes beyond the last line.
  /// Reusable frame buffer for send_query*: the request body is encoded
  /// straight into the frame (begin_frame/finish_frame), and the capacity
  /// survives across sends.
  std::string send_buffer_;
  std::chrono::milliseconds timeout_{0};  ///< 0 = block forever.
};

}  // namespace vmp::serve
