// The simulator's event core: a calendar queue of 24-byte POD event refs
// that pops in exact (time, FIFO-order) order, plus the address-stable slab
// that holds what the refs point at.
//
// An event carries no payload of its own. `EventRef::id` is a u32 handle
// whose meaning its kind fixes: the transmitting node of a kRadioFree, the
// packet-slab slot of a kArrive (the slot also names both ends of the hop),
// the callback-slab slot of a kCall. Packets therefore stay in one slab slot
// from injection to delivery or drop and are never moved between queues.
//
// Determinism: the queue is keyed on the same (time, order) total order as
// the original binary heap of closures, where `order` is the monotone
// schedule counter, so dispatch order — and therefore RNG consumption order
// and every downstream digest — is bit-identical to the heap implementation.
// The order of an event is fixed when it is reserved, not when it is pushed:
// the simulator reserves a radio-free event's (time, order) at tx start and
// pushes it later, or never (see simulator.h); the pop order is the same.
//
// Queue structure (tiers, earliest first):
//   bottom_   sorted vector (descending, pop from the back = O(1) min),
//             holds every queued event with time < bottom_hi_
//   buckets   kBuckets calendar slots of width_ seconds spanning
//             [span_lo_, span_hi_); slot cur_slot_ is the next to drain and
//             bottom_hi_ == span_lo_ + cur_slot_ * width_; a 512-bit
//             occupancy mask lets the drain skip empty slots in one step.
//             Each slot is an unsorted singly linked list (heads_) through
//             one pooled node array (nodes_, with a free list), so a queue
//             costs a handful of growing allocations, not one per slot
//   overflow_ unsorted, time >= span_hi_; re-spanned when the calendar is
//             exhausted. The width is sized to the events in flight:
//             max(range / (kBuckets - 1), 2 * range / n) for n overflow
//             events over `range` seconds, so a sparse load (a campaign's
//             twenty or so events) gets about two events per slot and a
//             span far wider than its current events, which later pushes
//             land in instead of overflowing and re-spanning
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
#include <limits>
#include <memory>
#include <vector>

namespace pnm::net {

enum class SimEventKind : std::uint8_t {
  kRadioFree,  ///< a node's radio finished serializing; send its next queued packet
  kArrive,     ///< a packet reaches the far end of a hop
  kCall,       ///< user callback from Simulator::schedule()
};

/// The null handle of a Slab (and of lists threaded through its slots).
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// Address-stable slab with an intrusive free list: slots live in fixed-size
/// chunks that never move, so a reference to one slot stays valid while
/// others are allocated. A node handler can inject (growing the slab) and
/// then keep writing through the Packet& it was handed. Slots are recycled
/// as they are; a value is overwritten by the next owner, not cleared on
/// release. Slab size tracks the high-water mark of live slots.
template <typename T>
class Slab {
 public:
  std::uint32_t alloc() {
    ++live_;
    if (free_head_ != kNoSlot) {
      std::uint32_t slot = free_head_;
      free_head_ = entry(slot).next_free;
      return slot;
    }
    if ((size_ & kChunkMask) == 0) chunks_.push_back(std::make_unique<Entry[]>(kChunk));
    return size_++;
  }

  void release(std::uint32_t slot) {
    assert(live_ > 0);
    --live_;
    entry(slot).next_free = free_head_;
    free_head_ = slot;
  }

  T& operator[](std::uint32_t slot) { return entry(slot).value; }
  /// Slots allocated and not yet released.
  std::size_t live() const { return live_; }

 private:
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunk - 1;

  struct Entry {
    T value{};
    std::uint32_t next_free = kNoSlot;
  };
  Entry& entry(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::uint32_t size_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
};

/// POD handle the queue sorts; whatever it refers to stays put in a slab.
struct EventRef {
  double time;
  std::uint64_t order;
  std::uint32_t id;  ///< node, packet slot or callback slot, by kind
  SimEventKind kind;
};

class CalendarQueue {
 public:
  CalendarQueue() { heads_.fill(kNoSlot); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const EventRef& ev) {
    ++size_;
    const double time = ev.time;
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

  /// A calendar slot's list node; `next` links the slot's list or, once
  /// drained, the free list.
  struct Node {
    EventRef ev;
    std::uint32_t next;
  };

  void push_bucket(std::size_t idx, const EventRef& ev) {
    std::uint32_t n = free_;
    if (n != kNoSlot) {
      free_ = nodes_[n].next;
      nodes_[n] = {ev, heads_[idx]};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back({ev, heads_[idx]});
    }
    heads_[idx] = n;
    occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  }
  /// The first non-empty bucket at or after `from`, or kBuckets.
  std::size_t next_occupied(std::size_t from) const;

  void refill_bottom();
  void respan();

  std::vector<EventRef> bottom_;
  std::vector<Node> nodes_;                    ///< every slot's list nodes
  std::uint32_t free_ = kNoSlot;               ///< drained nodes, reused first
  std::array<std::uint32_t, kBuckets> heads_;  ///< slot i's list, or kNoSlot
  /// Bit i set iff slot i is non-empty: the drain jumps straight to the
  /// next occupied slot instead of stepping through empty ones.
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  std::vector<EventRef> overflow_;
  std::vector<EventRef> respan_keep_;  ///< respan()'s scratch, capacity reused
  double span_lo_ = 0.0;
  double width_ = 0.0;
  double span_hi_ = -std::numeric_limits<double>::infinity();
  double bottom_hi_ = -std::numeric_limits<double>::infinity();
  std::size_t cur_slot_ = kBuckets;  ///< next calendar slot to drain
  std::size_t size_ = 0;
};

}  // namespace pnm::net
