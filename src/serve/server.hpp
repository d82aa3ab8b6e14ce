// Loopback TCP front end of the attribution query service.
//
// One acceptor thread hands each connection to a reader thread that sniffs
// the protocol from the first byte (a control byte starts a length-prefixed
// binary frame, anything printable starts a text line) and applies the
// connection's token bucket to every request it reads. Overload is shed at
// the edge with an explicit error response, and every shed is counted in
// fleet::Metrics.
//
// Thread model, chosen by the request rather than by a server option:
//   * A request without an id (a binary frame without kFrameIdFlag, a text
//     line without "#<id>") is answered on the reader thread that read it:
//     the delay hooks, dispatch, encode and write all run there, before the
//     reader reads the next request. Arrival order therefore holds by
//     construction, with no queue, no worker hop and no reorder buffer, and
//     a pre-id client sees exactly the arrival-ordered protocol it was built
//     against. The trade: an in-order request holds its connection's reader
//     until it is answered, so a client that pipelines without ids gets its
//     answers computed one after another. An in-order client's overload
//     control is its token bucket and TCP back-pressure.
//   * A request with an id goes through a bounded queue to the worker pool
//     and completes out of order: the worker writes each response the moment
//     it is ready, and the echoed id is the client's correlation handle. A
//     full queue sheds it with ERR 7 (kOverloaded); that error applies to
//     id'd requests only.
// Every request is answered exactly once either way; the balance is
// exported through admitted()/answered() for
// obs::InvariantMonitor::observe_serve_accounting.
//
// A connection's reader is joined once it finishes (the acceptor reaps
// finished readers as it accepts), and its descriptor is closed only when
// nothing can still write to it: an id'd response still on a worker holds
// the connection open, so a late write never reaches a later connection
// that reused the descriptor number.
//
// The server binds 127.0.0.1 only: attribution data is tenant-billing data,
// and transport hardening (TLS, auth) is out of scope for the loopback MVP.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
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
  /// Worker threads of the out-of-order path: they answer id'd requests
  /// only. In-order requests are answered on their connection's reader.
  std::size_t workers = 2;
  /// Depth of the queue in front of the workers: id'd requests beyond it
  /// are shed with kOverloaded. In-order requests never queue.
  std::size_t queue_capacity = 64;
  double tokens_per_s = 10000.0;  ///< per-connection refill rate.
  double token_burst = 1000.0;    ///< per-connection bucket depth.
  /// Test hook: stalls each request on whichever thread answers it (the
  /// reader for an in-order request, a worker for an id'd one), so overload
  /// tests can fill the queue deterministically. Zero in production.
  std::chrono::milliseconds worker_delay{0};
  /// Test hook: stalls tenant-cost queries only, on whichever thread
  /// answers them, so ordering tests can build a deterministic slow-head /
  /// fast-tail pipeline without slowing the cheap queries behind it. Zero
  /// in production.
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
  /// `outstanding` is admitted-but-unanswered work still queued, on a
  /// worker or being answered on a reader; sample these while quiescent (or
  /// feed them to InvariantMonitor::observe_serve_accounting, which
  /// tolerates transient in-flight deficits).
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
    std::uint64_t arrivals = 0;  ///< reader-only: next arrival index.
    std::uint64_t written = 0;   ///< responses written; guarded by write_mutex.
    Conn(int descriptor, const ServerOptions& options)
        : fd(descriptor),
          bucket(options.tokens_per_s, options.token_burst) {}
    /// The last holder closes the descriptor: the reader, or a worker still
    /// writing an id'd response after the reader has gone.
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
  };

  /// One id'd request on its way from a reader to a worker.
  struct Task {
    std::shared_ptr<Conn> conn;
    std::string payload;  ///< binary body or text line.
    bool binary = false;
    std::uint64_t request_id = 0;  ///< echoed in the response.
    std::uint64_t arrival = 0;     ///< per-connection arrival index.
    bool has_trace = false;        ///< frame carried a trace-context block.
    TraceContextWire trace;        ///< caller's trace id / parent / budget.
    std::unique_ptr<StageProfile> profile;  ///< null when profiling is off.
  };

  /// A connection's reader thread. `done` flips as the thread's last act,
  /// after it has dropped its hold on the connection, so joining it is
  /// immediate. The node's address is stable (std::list) while the thread
  /// runs.
  struct Reader {
    std::weak_ptr<Conn> conn;  ///< lets stop() wake a reader still reading.
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  /// Joins and forgets every finished reader; caller holds readers_mutex_.
  void reap_readers();
  void serve_connection(const std::shared_ptr<Conn>& conn);
  void serve_binary(const std::shared_ptr<Conn>& conn);
  void serve_text(const std::shared_ptr<Conn>& conn);
  void worker_loop();
  /// One request read off `conn`: the token bucket, then an in-order
  /// request is answered here on the reader (encoding into the reader's
  /// reusable `bytes`) and an id'd one is queued for a worker, or shed with
  /// kOverloaded when the queue is full.
  void admit(const std::shared_ptr<Conn>& conn, std::string& payload,
             bool binary, bool has_id, std::uint64_t request_id,
             bool has_trace, const TraceContextWire& trace,
             std::string& bytes);
  /// Runs the delay hooks and the dispatcher and leaves the framed (or
  /// newline-terminated) response in `bytes`, on the calling thread.
  void answer(const std::string& payload, bool binary, bool has_id,
              std::uint64_t request_id, const TraceContextWire* trace,
              std::string& bytes);
  /// The single response write: counts the response and any out-of-arrival
  /// write, and drops the connection on a failed send. Finalises and
  /// observes the profile (write stage + total) when one rode along.
  void write_response(Conn& conn, std::uint64_t arrival,
                      std::string_view bytes, StageProfile* profile);
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
  // Instruments, resolved once. The shed counters resolve on their first
  // shed, so a scrape shows them only once something was shed.
  fleet::Gauge* active_gauge_ = nullptr;
  fleet::Counter* admitted_counter_ = nullptr;
  fleet::Counter* answered_counter_ = nullptr;
  fleet::Counter* reordered_counter_ = nullptr;
  fleet::Gauge* queue_high_watermark_ = nullptr;
  std::atomic<fleet::Counter*> shed_throttle_{nullptr};
  std::atomic<fleet::Counter*> shed_queue_{nullptr};

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex readers_mutex_;
  std::list<Reader> readers_;
};

}  // namespace vmp::serve
