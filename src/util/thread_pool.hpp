// Fixed-size worker pool.
//
// Its one user is the fleet engine, whose `threads - 1` workers claim hosts
// alongside the engine thread every tick. The pool is deliberately minimal:
// FIFO submission, no futures (callers coordinate through their own queues
// or counters), and a wait_idle barrier the fleet engine uses to close each
// tick deterministically.
//
// Nesting caveat: a task running on the pool must not block on work it
// submitted to the *same* pool (wait_idle from a worker deadlocks, and a
// blocked worker can starve a single-thread pool).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vmp::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers. Throws std::invalid_argument when 0.
  explicit ThreadPool(std::size_t threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Throws std::runtime_error after shutdown began.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing (queue empty
  /// and no task in flight).
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;  ///< queued + currently running.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vmp::util
