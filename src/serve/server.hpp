// Loopback TCP front end of the attribution query service.
//
// One acceptor thread hands each connection to a reader thread that sniffs
// the protocol from the first byte (a control byte starts a length-prefixed
// binary frame, anything printable starts a text line), applies per-client
// token-bucket admission, and enqueues admitted requests on a bounded queue
// drained by a small worker pool. Overload is shed at the edge with an
// explicit error response — a throttled or overflowed request never touches
// a worker — and every shed is counted in fleet::Metrics.
//
// Completion order: requests that carry an echoed id (kFrameIdFlag /
// "#<id>") complete out of order — the worker pool writes each response,
// sheds included, the moment it is ready, and the id is the client's
// correlation handle. Requests without an id get strictly-ordered delivery:
// a per-connection reorder buffer holds each completed response until every
// earlier id-less response has been written, so a pre-id client observes
// exactly the arrival-ordered protocol it was built against. The request,
// not a server option, picks the order. Every request is answered exactly
// once either way; the balance is exported through admitted()/answered()
// for obs::InvariantMonitor::observe_serve_accounting.
//
// The server binds 127.0.0.1 only: attribution data is tenant-billing data,
// and transport hardening (TLS, auth) is out of scope for the loopback MVP.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/metrics.hpp"
#include "serve/query.hpp"
#include "serve/queue.hpp"
#include "serve/token_bucket.hpp"
#include "serve/transport.hpp"

namespace vmp::serve {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see Server::port).
  std::size_t workers = 2;
  std::size_t queue_capacity = 64;
  double tokens_per_s = 10000.0;  ///< per-connection refill rate.
  double token_burst = 1000.0;    ///< per-connection bucket depth.
  /// Test hook: stalls each worker per request so overload tests can fill
  /// the queue deterministically. Zero in production.
  std::chrono::milliseconds worker_delay{0};
  /// Test hook: stalls workers on tenant-cost queries only, so ordering
  /// tests can build a deterministic slow-head / fast-tail pipeline without
  /// slowing the cheap queries behind it. Zero in production.
  std::chrono::milliseconds cost_query_delay{0};
  /// When set, every request carries a StageProfile from read edge to write
  /// edge and the finished breakdown (queue wait, execute, cache probe,
  /// write — the lot) is folded into this profiler. Null = zero overhead.
  ServeProfiler* profiler = nullptr;

  /// Throws std::invalid_argument on zero workers/queue capacity or a
  /// non-positive bucket.
  void validate() const;
};

class Server {
 public:
  /// Binds and listens on 127.0.0.1 and starts the acceptor and workers.
  /// `engine` is any QueryHandler — the single-fleet QueryEngine or the
  /// multi-fleet federation frontend. Throws std::runtime_error when the
  /// socket cannot be set up.
  Server(QueryHandler& engine, fleet::Metrics& metrics,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Idempotent; joins every thread and closes every connection.
  void stop();

  /// The actual bound port (resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Exactly-once response accounting: every request read off a connection
  /// (sheds included) must produce exactly one response write attempt.
  /// `outstanding` is admitted-but-unanswered work still queued or on a
  /// worker; sample these while quiescent (or feed them to
  /// InvariantMonitor::observe_serve_accounting, which tolerates transient
  /// in-flight deficits).
  [[nodiscard]] std::uint64_t admitted() const noexcept {
    return admitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t answered() const noexcept {
    return answered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return outstanding_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
    TokenBucket bucket;
    // Reader-thread-only arrival accounting (one reader per connection).
    std::uint64_t arrivals = 0;      ///< next arrival index to assign.
    std::uint64_t ordered_seqs = 0;  ///< next ordered-delivery slot.
    // Reorder buffer: workers park completed ordered responses here until
    // every earlier ordered response has been written.
    std::mutex order_mutex;
    struct Held {
      std::uint64_t arrival = 0;
      std::string bytes;
      /// Rides along so the write stage can bill reorder-buffer hold time
      /// to the query that actually waited.
      std::shared_ptr<StageProfile> profile;
    };
    std::uint64_t next_ordered = 0;  ///< next slot allowed to write.
    std::map<std::uint64_t, Held> held;
    std::uint64_t written = 0;  ///< responses written; guarded by write_mutex.
    explicit Conn(int descriptor, const ServerOptions& options)
        : fd(descriptor),
          bucket(options.tokens_per_s, options.token_burst) {}
  };

  struct Task {
    std::shared_ptr<Conn> conn;
    std::string payload;  ///< binary body or text line.
    bool binary = false;
    bool has_id = false;           ///< binary frame carried kFrameIdFlag.
    std::uint64_t request_id = 0;  ///< echoed in the response frame.
    bool ordered = true;           ///< deliver in arrival order.
    std::uint64_t seq = 0;         ///< ordered-delivery slot (when ordered).
    std::uint64_t arrival = 0;     ///< per-connection arrival index.
    bool has_trace = false;        ///< frame carried a trace-context block.
    TraceContextWire trace;        ///< caller's trace id / parent / budget.
    std::shared_ptr<StageProfile> profile;  ///< null when profiling is off.
  };

  void accept_loop();
  void serve_connection(const std::shared_ptr<Conn>& conn);
  void serve_binary(const std::shared_ptr<Conn>& conn);
  void serve_text(const std::shared_ptr<Conn>& conn);
  void worker_loop();
  /// Token bucket + queue admission; routes the shed error through the same
  /// delivery path as real responses (echoing the request id), so ordered
  /// clients never see a shed overtake an earlier response.
  void admit(const std::shared_ptr<Conn>& conn, std::string payload,
             bool binary, bool has_id = false, std::uint64_t request_id = 0,
             bool has_trace = false, TraceContextWire trace = {});
  /// Routes one completed response: unordered responses are written
  /// immediately; ordered responses wait in the reorder buffer for their
  /// arrival turn. `bytes` is taken by reference so the caller's reusable
  /// encode buffer survives the common immediate-write path with its
  /// capacity intact; it is only moved from when the response parks in the
  /// reorder buffer (or joins a corked batch).
  void deliver(Conn& conn, bool ordered, std::uint64_t seq,
               std::uint64_t arrival, std::string& bytes,
               std::shared_ptr<StageProfile> profile = nullptr);
  /// The single response write: counts the response, the out-of-arrival
  /// writes, and drops the connection on a failed send. Finalises and
  /// observes the profile (write stage + total) when one rode along.
  void write_response(Conn& conn, std::uint64_t arrival,
                      std::string_view bytes,
                      StageProfile* profile = nullptr);
  /// Corked flush: when one response unblocks a run of parked successors,
  /// the whole run goes out in a single send with per-response accounting —
  /// one syscall instead of batch-size syscalls of small writes.
  void write_corked(Conn& conn, std::vector<Conn::Held>& batch);
  [[nodiscard]] std::string error_bytes(bool binary, ErrorCode code,
                                        const std::string& message,
                                        bool has_id,
                                        std::uint64_t request_id) const;
  /// Raw uncounted write (framing errors only; real responses go through
  /// write_response so the exactly-once balance holds).
  void reply(Conn& conn, std::string_view bytes);
  /// Immediate out-of-band error write for unrecoverable framing failures
  /// (the connection is dropped right after, so ordering is moot).
  void reply_error(Conn& conn, bool binary, ErrorCode code,
                   const std::string& message, bool has_id = false,
                   std::uint64_t request_id = 0);

  ServerOptions options_;
  Dispatcher dispatcher_;
  fleet::Metrics& metrics_;
  BoundedQueue<Task> queue_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> active_conns_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> outstanding_{0};
  fleet::Counter* admitted_counter_ = nullptr;
  fleet::Counter* answered_counter_ = nullptr;
  fleet::Counter* reordered_counter_ = nullptr;
  fleet::Counter* corked_counter_ = nullptr;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex conns_mutex_;
  std::vector<std::pair<std::shared_ptr<Conn>, std::thread>> conns_;
};

}  // namespace vmp::serve
