// Bounded blocking queue — the backpressure seam between trace/live packet
// producers and the sink's batch verifier.
//
// push() and push_all() block while the queue is full, so a fast reader can
// never balloon memory ahead of a slow verifier; pop_up_to() blocks until at least one item
// (or close) and then drains up to a batch in FIFO order, which is what keeps
// verdicts in arrival order downstream. Multiple producers are safe; the
// single consumer contract is what the in-order guarantee rests on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

namespace pnm::ingest {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Blocks until there is room (or the queue is closed). Returns false if
  /// the queue was closed — the item is dropped in that case.
  bool push(T&& item) { return push_all(std::span<T>(&item, 1)) == 1; }

  /// Moves `items` in, in order, under one lock and with one consumer wake-up
  /// when they all fit. A batch larger than the free room pushes what fits,
  /// wakes the consumer and waits for room, so any batch completes against
  /// a draining consumer whatever the capacity. Returns how many leading
  /// items went in: all of them unless the queue was closed first, in which
  /// case items [returned, size) are left unmoved and dropped by the caller.
  std::size_t push_all(std::span<T> items) {
    std::size_t pushed = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (pushed < items.size()) {
      if (items_.size() >= capacity_ && !closed_) {
        if (pushed > 0) not_empty_.notify_one();  // let the consumer make room
        not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
      }
      if (closed_) break;
      while (pushed < items.size() && items_.size() < capacity_)
        items_.push_back(std::move(items[pushed++]));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    lock.unlock();
    if (pushed > 0) not_empty_.notify_one();
    return pushed;
  }

  /// Blocks until items are available or the queue is closed; moves up to
  /// `max_items` into `out` (appended). Returns false only when closed AND
  /// drained — the consumer's termination condition.
  bool pop_up_to(std::size_t max_items, std::vector<T>& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;  // closed and drained
    std::size_t n = items_.size() < max_items ? items_.size() : max_items;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    not_full_.notify_all();
    return true;
  }

  /// No more pushes will be accepted; consumers drain what remains.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }

  /// Items currently buffered (racy by nature; the queue-depth gauge).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// Deepest the queue ever got — the backpressure telemetry.
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t high_water_ = 0;
};

}  // namespace pnm::ingest
