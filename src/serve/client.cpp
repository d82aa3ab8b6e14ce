#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace vmp::serve {

namespace {

[[noreturn]] void throw_recv_failure(ssize_t n) {
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
    throw TimeoutError("serve client: query deadline expired");
  throw std::runtime_error("serve client: connection closed mid-response");
}

void read_or_throw(int fd, char* out, std::size_t want) {
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(fd, out + got, want - got, 0);
    if (n <= 0) throw_recv_failure(n);
    got += static_cast<std::size_t>(n);
  }
}

}  // namespace

Client::Client(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw std::runtime_error("serve client: socket() failed: " +
                             std::string(std::strerror(errno)));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    const std::string what = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve client: cannot connect to 127.0.0.1:" +
                             std::to_string(port) + ": " + what);
  }
  // Single small query frames gain nothing from Nagle's coalescing.
  // Best-effort: a failed setsockopt costs latency, not correctness.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::set_timeout(std::chrono::milliseconds timeout) {
  timeout_ = timeout.count() < 0 ? std::chrono::milliseconds{0} : timeout;
  if (fd_ < 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0 ||
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0)
    throw std::runtime_error("serve client: setsockopt(SO_*TIMEO) failed: " +
                             std::string(std::strerror(errno)));
}

void Client::send_raw(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        throw TimeoutError("serve client: query deadline expired");
      throw std::runtime_error("serve client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::recv_frame() {
  char prefix[kFramePrefixBytes];
  read_or_throw(fd_, prefix, sizeof prefix);
  std::uint32_t raw = 0;
  for (const char byte : prefix)
    raw = (raw << 8) | static_cast<std::uint8_t>(byte);
  const bool has_id = (raw & kFrameIdFlag) != 0;
  // Responses never carry a trace block, but mask both flag bits so a
  // misbehaving peer cannot inflate the length into the flag space.
  const std::uint32_t length = raw & kFrameLenMask;
  if (length > kMaxFrameBytes)
    throw std::runtime_error("serve client: oversized response frame");
  const std::size_t header =
      kFramePrefixBytes + (has_id ? kFrameIdBytes : 0);
  std::string frame(prefix, sizeof prefix);
  frame.resize(header + length);
  read_or_throw(fd_, frame.data() + kFramePrefixBytes,
                frame.size() - kFramePrefixBytes);
  return frame;
}

std::string Client::recv_line() {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) throw_recv_failure(n);
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Client::send_query(const Request& request) {
  send_buffer_.clear();
  const std::size_t start = begin_frame(send_buffer_, false, 0);
  encode_request_into(request, send_buffer_);
  finish_frame(send_buffer_, start);
  send_raw(send_buffer_);
}

void Client::send_query_with_id(const Request& request,
                                std::uint64_t request_id) {
  send_buffer_.clear();
  const std::size_t start = begin_frame(send_buffer_, true, request_id);
  encode_request_into(request, send_buffer_);
  finish_frame(send_buffer_, start);
  send_raw(send_buffer_);
}

void Client::send_query_with_trace(const Request& request,
                                   std::uint64_t request_id,
                                   const TraceContextWire& trace) {
  send_buffer_.clear();
  const std::size_t start = begin_frame(send_buffer_, true, request_id, &trace);
  encode_request_into(request, send_buffer_);
  finish_frame(send_buffer_, start);
  send_raw(send_buffer_);
}

Response Client::recv_response() {
  const std::string frame = recv_frame();
  const auto response =
      decode_response(std::string_view(frame).substr(kFramePrefixBytes));
  if (!response)
    throw std::runtime_error("serve client: undecodable response body");
  return *response;
}

std::pair<std::uint64_t, Response> Client::recv_response_with_id() {
  const std::string frame = recv_frame();
  std::string_view bytes{frame};
  std::uint32_t raw = 0;
  for (std::size_t i = 0; i < kFramePrefixBytes; ++i)
    raw = (raw << 8) | static_cast<std::uint8_t>(bytes[i]);
  if ((raw & kFrameIdFlag) == 0)
    throw std::runtime_error("serve client: response frame lost the id flag");
  std::uint64_t echoed = 0;
  for (std::size_t i = 0; i < kFrameIdBytes; ++i)
    echoed = (echoed << 8) |
             static_cast<std::uint8_t>(bytes[kFramePrefixBytes + i]);
  const auto response = decode_response(
      bytes.substr(kFramePrefixBytes + kFrameIdBytes));
  if (!response)
    throw std::runtime_error("serve client: undecodable response body");
  return {echoed, *response};
}

Response Client::query(const Request& request) {
  send_query(request);
  return recv_response();
}

Response Client::query_with_id(const Request& request,
                               std::uint64_t request_id) {
  send_query_with_id(request, request_id);
  const auto [echoed, response] = recv_response_with_id();
  if (echoed != request_id)
    throw std::runtime_error("serve client: response echoed wrong request id");
  return response;
}

Response Client::query_with_trace(const Request& request,
                                  std::uint64_t request_id,
                                  const TraceContextWire& trace) {
  send_query_with_trace(request, request_id, trace);
  const auto [echoed, response] = recv_response_with_id();
  if (echoed != request_id)
    throw std::runtime_error("serve client: response echoed wrong request id");
  return response;
}

std::string Client::query_text(const std::string& line) {
  send_raw(line + "\n");
  return recv_line();
}

std::string Client::scrape(const std::string& command) {
  send_raw(command + "\n");
  std::string payload;
  while (true) {
    const std::string line = recv_line();
    if (line == kScrapeEof) break;
    payload += line;
    payload += '\n';
  }
  return payload;
}

}  // namespace vmp::serve
