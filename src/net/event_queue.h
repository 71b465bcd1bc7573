// The simulator's fast event core: typed events on a slab allocator plus a
// two-tier calendar queue that pops in exact (time, FIFO-order) order.
//
// The old core paid three per-hop taxes: a heap-allocated std::function
// closure per scheduled hop (the arrive closure captures a whole Packet), a
// second deep copy of that closure — Packet included — because
// priority_queue::top() is const and cannot be moved from, and O(log n)
// heap churn on every push/pop. Here an event is a 3-way variant (PumpTx /
// Arrive / Call) living in a recycled slab slot; the queue holds 16-byte
// POD refs {time, order, slot}; packets are moved, never copied.
//
// Determinism: the queue is keyed on exactly the same (time, order) total
// order as the old binary heap, where `order` is the monotone schedule
// counter, so dispatch order — and therefore RNG consumption order and
// every downstream digest — is bit-identical to the heap implementation.
//
// Queue structure (tiers, earliest first):
//   bottom_   sorted vector (descending, pop from the back = O(1) min),
//             holds every queued event with time < bottom_hi_
//   buckets_  kBuckets calendar slots of width_ seconds spanning
//             [span_lo_, span_hi_); slot cur_slot_ is the next to drain and
//             bottom_hi_ == span_lo_ + cur_slot_ * width_; a 512-bit
//             occupancy mask lets the drain skip empty slots in one step
//   overflow_ unsorted, time >= span_hi_; re-spanned (adaptive width from
//             the actual min/max) when the calendar is exhausted
//
// The tiers are separated by strict time thresholds, so the order tiebreak
// never crosses a tier boundary; within a tier events are sorted exactly.
// A bucket is sorted once when it becomes the drain slot, each event is
// relocated O(1) times, and the common simulator pushes are cheap: far
// events append to a bucket or overflow in O(1), while schedule-now events
// (time == now_ with the largest order so far) insert at bottom_'s back.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "net/report.h"
#include "util/ids.h"

namespace pnm::net {

enum class SimEventKind : std::uint8_t {
  kPumpTx,  ///< a node's radio finished serializing; try the next queued tx
  kArrive,  ///< a packet reaches the far end of a hop
  kCall,    ///< user callback from Simulator::schedule()
};

struct SimEventNode {
  SimEventKind kind = SimEventKind::kCall;
  NodeId a = kInvalidNode;   ///< kPumpTx: transmitter; kArrive: receiver
  NodeId b = kInvalidNode;   ///< kArrive: radio-layer previous hop
  Packet packet;             ///< kArrive payload (moved in, moved out)
  std::function<void()> fn;  ///< kCall payload
  std::uint32_t next_free = 0;
};

/// Slab of event nodes with an intrusive free list. Released slots keep
/// their moved-from buffers, so a recycled Arrive slot usually re-lands a
/// packet without touching the heap; slab size tracks the queue's
/// high-water mark, not the event count.
class EventArena {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::uint32_t alloc() {
    if (free_head_ != kNone) {
      std::uint32_t slot = free_head_;
      free_head_ = nodes_[slot].next_free;
      return slot;
    }
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void release(std::uint32_t slot) {
    nodes_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  SimEventNode& operator[](std::uint32_t slot) { return nodes_[slot]; }

 private:
  std::vector<SimEventNode> nodes_;
  std::uint32_t free_head_ = kNone;
};

/// POD handle the queue sorts; the payload stays put in the arena.
struct EventRef {
  double time;
  std::uint64_t order;
  std::uint32_t slot;
};

class CalendarQueue {
 public:
  CalendarQueue() : buckets_(kBuckets) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(double time, std::uint64_t order, std::uint32_t slot) {
    ++size_;
    EventRef ev{time, order, slot};
    if (time < bottom_hi_) {
      bottom_.insert(std::lower_bound(bottom_.begin(), bottom_.end(), ev, later),
                     ev);
    } else if (time < span_hi_) {
      std::size_t idx = static_cast<std::size_t>((time - span_lo_) / width_);
      // Clamps guard floating-point rounding at the tier thresholds; the
      // exact comparisons above decide the tier, the division only picks a
      // slot within it.
      if (idx < cur_slot_) idx = cur_slot_;
      if (idx >= kBuckets) idx = kBuckets - 1;
      push_bucket(idx, ev);
    } else {
      overflow_.push_back(ev);
    }
  }

  /// Removes and returns the exact (time, order) minimum.
  EventRef pop() {
    assert(size_ > 0);
    if (bottom_.empty()) refill_bottom();
    EventRef ev = bottom_.back();
    bottom_.pop_back();
    --size_;
    return ev;
  }

 private:
  static constexpr std::size_t kBuckets = 512;

  /// Strict weak order putting LATER events first (descending sort key).
  static bool later(const EventRef& x, const EventRef& y) {
    return x.time > y.time || (x.time == y.time && x.order > y.order);
  }

  void push_bucket(std::size_t idx, const EventRef& ev) {
    buckets_[idx].push_back(ev);
    occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  }
  /// The first non-empty bucket at or after `from`, or kBuckets.
  std::size_t next_occupied(std::size_t from) const;

  void refill_bottom();
  void respan();

  std::vector<EventRef> bottom_;
  std::vector<std::vector<EventRef>> buckets_;
  /// Bit i set iff buckets_[i] is non-empty: the in-flight set is often a
  /// few dozen events over kBuckets slots, so the drain jumps straight to
  /// the next occupied bucket instead of stepping through empty ones.
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  std::vector<EventRef> overflow_;
  double span_lo_ = 0.0;
  double width_ = 0.0;
  double span_hi_ = -std::numeric_limits<double>::infinity();
  double bottom_hi_ = -std::numeric_limits<double>::infinity();
  std::size_t cur_slot_ = kBuckets;  ///< next calendar slot to drain
  std::size_t size_ = 0;
};

}  // namespace pnm::net
