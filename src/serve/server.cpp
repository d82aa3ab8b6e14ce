#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vmp::serve {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// recv() exactly `want` bytes; false on EOF/error (drop the connection).
bool read_fully(int fd, char* out, std::size_t want) {
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(fd, out + got, want - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_fully(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Matches the requests ServerOptions::cost_query_delay stalls: binary
/// bodies open with the opcode byte, text lines with the verb (after any
/// "#<id>" token).
bool is_cost_query(const std::string& payload, bool binary) {
  if (binary)
    return !payload.empty() &&
           static_cast<std::uint8_t>(payload.front()) ==
               static_cast<std::uint8_t>(QueryKind::kTenantCost);
  std::string_view line{payload};
  std::uint64_t ignored = 0;
  (void)strip_text_request_id(line, ignored);
  return line.substr(0, 11) == "tenant-cost";
}

/// How long the acceptor waits after a failed accept() before it tries
/// again: long enough not to spin while the process is out of descriptors,
/// short enough that a freed one is used at once.
constexpr std::chrono::milliseconds kAcceptRetryPause{50};

}  // namespace

void ServerOptions::validate() const {
  if (workers == 0)
    throw std::invalid_argument("ServerOptions: need at least one worker");
  if (queue_capacity == 0)
    throw std::invalid_argument("ServerOptions: queue capacity must be >= 1");
  if (!(token_burst > 0.0) || tokens_per_s < 0.0)
    throw std::invalid_argument("ServerOptions: bad token bucket parameters");
}

Server::Server(QueryHandler& engine, fleet::Metrics& metrics,
               ServerOptions options)
    : options_((options.validate(), options)),
      dispatcher_(engine, &metrics, options.profiler),
      metrics_(metrics),
      queue_(options_.queue_capacity) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("serve: cannot listen on 127.0.0.1:" +
                             std::to_string(options_.port) + ": " + what);
  }
  socklen_t length = sizeof address;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
  port_ = ntohs(address.sin_port);

  active_gauge_ = &metrics_.gauge("vmpower_serve_active_connections",
                                  "Currently open client connections");
  admitted_counter_ = &metrics_.counter(
      "vmpower_serve_admitted_total",
      "Requests read off client connections (sheds included)");
  answered_counter_ = &metrics_.counter(
      "vmpower_serve_answered_total",
      "Response writes attempted (exactly one per admitted request)");
  reordered_counter_ = &metrics_.counter(
      "vmpower_serve_responses_reordered_total",
      "Responses written out of their arrival position");
  queue_high_watermark_ =
      &metrics_.gauge("vmpower_serve_queue_high_watermark",
                      "Deepest the request queue has ever run");
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
  VMP_LOG_INFO("serve: listening on 127.0.0.1:%u", port_);
}

Server::~Server() { stop(); }

Server::Conn::~Conn() { ::close(fd); }

void Server::stop() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);

  // Readers first, so that no request is queued after the queue closes; a
  // reader still answering an in-order request finishes it (its write fails
  // on the shut-down socket and is still counted).
  std::list<Reader> readers;
  {
    std::lock_guard lock(readers_mutex_);
    readers.swap(readers_);
  }
  for (Reader& reader : readers) {
    if (const std::shared_ptr<Conn> conn = reader.conn.lock()) {
      conn->open.store(false, std::memory_order_relaxed);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (Reader& reader : readers)
    if (reader.thread.joinable()) reader.thread.join();

  queue_.close();
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

void Server::accept_loop() {
  fleet::Counter& accepted = metrics_.counter(
      "vmpower_serve_connections_total", "Client connections accepted");
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Out of descriptors (EMFILE/ENFILE), out of memory, a connection
      // reset before it was accepted: none of these ends the listener, so
      // say which it was and try again once the process may have recovered.
      const int error = errno;
      VMP_LOG_WARN("serve: accept on 127.0.0.1:%u failed: %s (errno %d); "
                   "retrying in %lld ms",
                   port_, std::strerror(error), error,
                   static_cast<long long>(kAcceptRetryPause.count()));
      std::this_thread::sleep_for(kAcceptRetryPause);
      continue;
    }
    accepted.inc();
    // Small latency-bound responses gain nothing from Nagle's coalescing.
    // Best-effort: a failed setsockopt costs latency, not correctness.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>(fd, options_);
    std::lock_guard lock(readers_mutex_);
    reap_readers();
    Reader& reader = readers_.emplace_back();
    reader.conn = conn;
    reader.thread =
        std::thread([this, &reader, conn = std::move(conn)]() mutable {
          serve_connection(conn);
          // Drop the reader's hold: the descriptor closes now, or when the
          // last id'd response on a worker has been written.
          conn.reset();
          reader.done.store(true, std::memory_order_release);
        });
  }
}

void Server::reap_readers() {
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (!it->done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    it->thread.join();
    it = readers_.erase(it);
  }
}

void Server::serve_connection(const std::shared_ptr<Conn>& conn) {
  active_gauge_->set(static_cast<double>(
      active_conns_.fetch_add(1, std::memory_order_relaxed) + 1));
  // Protocol sniff: binary frames open with a 4-byte big-endian length whose
  // first byte is 0x00 for any frame under 16 MiB — or 0x80 when the prefix
  // carries kFrameIdFlag; text lines open with a printable ASCII verb.
  char first = 0;
  const ssize_t peeked = ::recv(conn->fd, &first, 1, MSG_PEEK);
  if (peeked == 1) {
    const auto byte = static_cast<unsigned char>(first);
    if (byte < 0x20 || byte >= 0x80)
      serve_binary(conn);
    else
      serve_text(conn);
  }
  conn->open.store(false, std::memory_order_relaxed);
  ::shutdown(conn->fd, SHUT_RDWR);  // unblocks any late worker write cleanly.
  active_gauge_->set(static_cast<double>(
      active_conns_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

void Server::serve_binary(const std::shared_ptr<Conn>& conn) {
  // The reader's response buffer: in-order responses are encoded into it and
  // written from it, so it keeps its capacity across requests.
  std::string bytes;
  while (conn->open.load(std::memory_order_relaxed)) {
    char prefix[kFramePrefixBytes];
    if (!read_fully(conn->fd, prefix, sizeof prefix)) return;
    std::uint32_t raw = 0;
    for (const char byte : prefix)
      raw = (raw << 8) | static_cast<std::uint8_t>(byte);
    const bool has_id = (raw & kFrameIdFlag) != 0;
    const bool has_trace = (raw & kFrameTraceFlag) != 0;
    const std::uint32_t length = raw & kFrameLenMask;
    if (length > kMaxFrameBytes) {
      // Cannot resync a stream after refusing to read the body; reject and
      // drop the connection (before the id bytes, so no id to echo).
      reply_error(*conn, /*binary=*/true, ErrorCode::kFrameTooLarge,
                  "frame exceeds 64 KiB limit");
      return;
    }
    std::uint64_t request_id = 0;
    if (has_id) {
      char id_bytes[kFrameIdBytes];
      if (!read_fully(conn->fd, id_bytes, sizeof id_bytes)) return;
      for (const char byte : id_bytes)
        request_id = (request_id << 8) | static_cast<std::uint8_t>(byte);
    }
    TraceContextWire trace;
    bool trace_ok = true;
    if (has_trace) {
      // The block sits between the id (when present) and the body. Read it
      // even when it turns out invalid — the declared layout is what keeps
      // the stream in sync, so the connection can survive the rejection.
      char block[kFrameTraceBytes];
      if (!read_fully(conn->fd, block, sizeof block)) return;
      trace_ok = has_id &&
                 decode_trace_block(std::string_view(block, sizeof block),
                                    trace);
    }
    std::string body(length, '\0');
    if (!read_fully(conn->fd, body.data(), length)) return;  // mid-frame EOF.
    if (!trace_ok) {
      // Lone trace flag or unknown version: the frame is fully consumed, so
      // answer the error out of band and keep serving this connection.
      reply_error(*conn, /*binary=*/true, ErrorCode::kMalformed,
                  "malformed trace context", has_id, request_id);
      continue;
    }
    admit(conn, body, /*binary=*/true, has_id, request_id, has_trace, trace,
          bytes);
  }
}

void Server::serve_text(const std::shared_ptr<Conn>& conn) {
  std::string buffer;
  std::string bytes;  // the reader's response buffer, as in serve_binary.
  char chunk[1024];
  while (conn->open.load(std::memory_order_relaxed)) {
    const std::size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      if (buffer.size() > kMaxLineBytes) {
        reply_error(*conn, /*binary=*/false, ErrorCode::kMalformed,
                    "line exceeds 1 KiB limit");
        return;
      }
      const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
      if (n <= 0) return;
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank lines are keep-alive no-ops.
    // Peek the "#<id>" token (the dispatcher consumes and echoes it on the
    // normal path) so a shed response can still carry the client's id.
    std::string_view peek{line};
    std::uint64_t request_id = 0;
    const bool has_id = strip_text_request_id(peek, request_id);
    admit(conn, line, /*binary=*/false, has_id, request_id,
          /*has_trace=*/false, TraceContextWire{}, bytes);
  }
}

void Server::admit(const std::shared_ptr<Conn>& conn, std::string& payload,
                   bool binary, bool has_id, std::uint64_t request_id,
                   bool has_trace, const TraceContextWire& trace,
                   std::string& bytes) {
  // An in-order request's profile lives on this frame; an id'd request's
  // rides to the worker with its task.
  StageProfile in_order;
  std::unique_ptr<StageProfile> queued;
  StageProfile* profile = nullptr;
  std::uint64_t admit_start_ns = 0;
  if (options_.profiler != nullptr) {
    if (has_id) {
      queued = std::make_unique<StageProfile>();
      profile = queued.get();
    } else {
      profile = &in_order;
    }
    profile->request_id = request_id;
    profile->trace_id = has_trace ? trace.trace_id : request_id;
    profile->budget_us = has_trace ? trace.budget_us : 0;
    profile->start_ns = admit_start_ns = profile_now_ns();
  }
  const auto finish_admission = [&] {
    if (profile != nullptr)
      profile->add(Stage::kAdmission,
                   static_cast<double>(profile_now_ns() - admit_start_ns) *
                       1e-9);
  };
  const std::uint64_t arrival = conn->arrivals++;
  admitted_.fetch_add(1, std::memory_order_relaxed);
  admitted_counter_->inc();
  {
    VMP_TRACE_CONTEXT_PARENTED(has_trace ? trace.trace_id : request_id,
                               has_trace ? trace.parent_span : 0);
    VMP_TRACE_SPAN("serve.admission", "serve");
    if (!conn->bucket.try_acquire(steady_seconds())) {
      obs::resolve_once(shed_throttle_, [&]() -> fleet::Counter& {
        return metrics_.counter(
            "vmpower_serve_shed_total{reason=\"throttle\"}",
            "Requests shed by per-client token buckets");
      }).inc();
      finish_admission();
      if (profile != nullptr) profile->error = true;
      write_response(*conn, arrival,
                     error_bytes(binary, ErrorCode::kThrottled,
                                 "client exceeded its request rate", has_id,
                                 request_id),
                     profile);
      return;
    }
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    if (has_id) {
      // Stamp the enqueue time before the push: once the task is in the
      // queue a worker may read the profile immediately.
      finish_admission();
      if (profile != nullptr) profile->enqueue_ns = profile_now_ns();
      Task task{conn,       std::move(payload), binary, request_id, arrival,
                has_trace, trace,              std::move(queued)};
      if (queue_.try_push(std::move(task))) {
        queue_high_watermark_->set(
            static_cast<double>(queue_.high_watermark()));
        return;
      }
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      obs::resolve_once(shed_queue_, [&]() -> fleet::Counter& {
        return metrics_.counter("vmpower_serve_shed_total{reason=\"queue\"}",
                                "Requests shed by the bounded request queue");
      }).inc();
      if (profile != nullptr) profile->error = true;
      write_response(*conn, arrival,
                     error_bytes(binary, ErrorCode::kOverloaded,
                                 "request queue is full", has_id, request_id),
                     profile);
      return;
    }
    finish_admission();
  }
  // In order: answered here, before this reader reads the next request.
  {
    StageProfileScope scope(profile);
    answer(payload, binary, /*has_id=*/false, 0, nullptr, bytes);
  }
  write_response(*conn, arrival, bytes, profile);
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::answer(const std::string& payload, bool binary, bool has_id,
                    std::uint64_t request_id, const TraceContextWire* trace,
                    std::string& bytes) {
  if (options_.worker_delay.count() > 0)
    std::this_thread::sleep_for(options_.worker_delay);
  if (options_.cost_query_delay.count() > 0 && is_cost_query(payload, binary))
    std::this_thread::sleep_for(options_.cost_query_delay);
  bytes.clear();
  if (binary) {
    // Single-copy path: the response body is encoded straight into the
    // frame opened here — no intermediate body string.
    const std::size_t start = begin_frame(bytes, has_id, request_id);
    dispatcher_.handle_binary_into(payload, bytes, request_id, trace);
    finish_frame(bytes, start);
  } else {
    // Text ids live in the line itself; the dispatcher echoes them.
    dispatcher_.handle_text_into(payload, bytes);
    bytes.push_back('\n');
  }
}

void Server::worker_loop() {
  // One reusable encode buffer per worker, not per connection: out-of-order
  // completion means two workers can encode responses for the same
  // connection concurrently, so a per-connection buffer would race. The
  // buffer keeps its capacity across requests, so the steady state is zero
  // encode allocations.
  std::string bytes;
  while (auto task = queue_.pop()) {
    StageProfile* profile = task->profile.get();
    if (profile != nullptr)
      profile->add(Stage::kQueueWait,
                   static_cast<double>(profile_now_ns() - profile->enqueue_ns) *
                       1e-9);
    {
      // Make the profile ambient for the dispatcher and everything below it
      // (engine cache probes, coalesce holds) on this thread.
      StageProfileScope scope(profile);
      answer(task->payload, task->binary, /*has_id=*/true, task->request_id,
             task->has_trace ? &task->trace : nullptr, bytes);
    }
    write_response(*task->conn, task->arrival, bytes, profile);
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::write_response(Conn& conn, std::uint64_t arrival,
                            std::string_view bytes, StageProfile* profile) {
  const std::uint64_t ready_ns = profile != nullptr ? profile_now_ns() : 0;
  answered_.fetch_add(1, std::memory_order_relaxed);
  answered_counter_->inc();
  {
    std::lock_guard lock(conn.write_mutex);
    // Count the overtaker only (arrival newer than the write slot), not the
    // response it displaced — one swap is one reordering.
    if (arrival > conn.written) reordered_counter_->inc();
    ++conn.written;
    if (conn.open.load(std::memory_order_relaxed) &&
        !send_fully(conn.fd, bytes))
      conn.open.store(false, std::memory_order_relaxed);
  }
  if (profile != nullptr && options_.profiler != nullptr) {
    const std::uint64_t now_ns = profile_now_ns();
    profile->add(Stage::kWrite, static_cast<double>(now_ns - ready_ns) * 1e-9);
    profile->total_s =
        static_cast<double>(now_ns - profile->start_ns) * 1e-9;
    options_.profiler->observe(*profile);
  }
}

void Server::reply(Conn& conn, std::string_view bytes) {
  if (!conn.open.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(conn.write_mutex);
  if (!send_fully(conn.fd, bytes))
    conn.open.store(false, std::memory_order_relaxed);
}

std::string Server::error_bytes(bool binary, ErrorCode code,
                                const std::string& message, bool has_id,
                                std::uint64_t request_id) const {
  const Response response = Response::error(code, message);
  std::string out;
  if (binary) {
    const std::size_t start = begin_frame(out, has_id, request_id);
    encode_response_into(response, out);
    finish_frame(out, start);
    return out;
  }
  if (has_id) {
    out += '#';
    out += std::to_string(request_id);
    out += ' ';
  }
  format_response_text_into(response, out);
  out += '\n';
  return out;
}

void Server::reply_error(Conn& conn, bool binary, ErrorCode code,
                         const std::string& message, bool has_id,
                         std::uint64_t request_id) {
  reply(conn, error_bytes(binary, code, message, has_id, request_id));
}

}  // namespace vmp::serve
