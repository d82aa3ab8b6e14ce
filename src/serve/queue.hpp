// Bounded request queue between the query server's connection readers and
// its worker pool.
//
// Readers (many producers) try_push admitted requests; workers (many
// consumers) pop them. The queue is bounded so overload is shed at the edge:
// a full queue refuses the push and the reader answers with an explicit
// overload error instead of letting memory grow with the offered load.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>

namespace vmp::serve {

/// Bounded multi-producer multi-consumer FIFO. All members are safe to call
/// from any thread.
template <typename T>
class BoundedQueue {
 public:
  /// Throws std::invalid_argument when capacity is 0.
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0)
      throw std::invalid_argument("BoundedQueue: capacity must be >= 1");
  }

  /// Non-blocking push: enqueues and returns true, or returns false when the
  /// queue is full or closed (nothing is evicted — the caller owns the shed
  /// accounting).
  bool try_push(T value) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
      high_watermark_ = std::max(high_watermark_, items_.size());
    }
    item_cv_.notify_one();
    return true;
  }

  /// Blocks until an element is available and returns it, or returns
  /// std::nullopt once the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    item_cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Wakes every blocked consumer; subsequent pushes are refused.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    item_cv_.notify_all();
  }

  /// Deepest the queue has ever been (overload diagnostics).
  [[nodiscard]] std::size_t high_watermark() const {
    std::lock_guard lock(mutex_);
    return high_watermark_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable item_cv_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t high_watermark_ = 0;
};

}  // namespace vmp::serve
