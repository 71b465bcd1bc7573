#include "net/event_queue.h"

#include <bit>
#include <cmath>

namespace pnm::net {

std::size_t CalendarQueue::next_occupied(std::size_t from) const {
  for (std::size_t w = from / 64; w < occupied_.size(); ++w) {
    std::uint64_t bits = occupied_[w];
    if (w == from / 64) bits &= ~std::uint64_t{0} << (from % 64);
    if (bits != 0) return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }
  return kBuckets;
}

void CalendarQueue::refill_bottom() {
  // Precondition: bottom_ is empty, size_ > 0. Skipping empty slots leaves
  // bottom_hi_ exactly where stepping through them one by one would.
  for (;;) {
    const std::size_t idx = next_occupied(cur_slot_);
    if (idx < kBuckets) {
      cur_slot_ = idx + 1;
      bottom_hi_ = cur_slot_ >= kBuckets ? span_hi_ : span_lo_ + cur_slot_ * width_;
      // Move the slot's list into bottom_ and hand its nodes to the free
      // list whole: the last node links to the old free head.
      std::uint32_t n = heads_[idx];
      for (;;) {
        bottom_.push_back(nodes_[n].ev);
        if (nodes_[n].next == kNoSlot) break;
        n = nodes_[n].next;
      }
      nodes_[n].next = free_;
      free_ = heads_[idx];
      heads_[idx] = kNoSlot;
      occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
      if (bottom_.size() > 1) std::sort(bottom_.begin(), bottom_.end(), later);
      return;
    }
    respan();  // resets cur_slot_ and bottom_hi_
  }
}

void CalendarQueue::respan() {
  // Calendar exhausted, so every queued event is in overflow_: rebuild the
  // span from its time range and its count. Spreading n events over all
  // kBuckets slots would leave each slot about one event and the span no
  // wider than the events already queued, so every later push would
  // overflow and the calendar re-span every few dozen pops; at least
  // 2 * range / n per slot keeps about two events in each, and gives n
  // events in flight a span 1024 / n times their range (about 50 for a
  // campaign's twenty).
  assert(!overflow_.empty());
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const EventRef& ev : overflow_) {
    lo = std::min(lo, ev.time);
    hi = std::max(hi, ev.time);
  }
  const double range = hi - lo;
  double w = std::max(range / static_cast<double>(kBuckets - 1),
                      2.0 * range / static_cast<double>(overflow_.size()));
  // Strictly positive width floor (absolute + relative) so span_hi_ > lo and
  // at least the earliest overflow events always land in the new calendar —
  // degenerate same-time clusters collapse into bucket 0.
  double min_w = std::max(
      1e-12, std::abs(lo) * 4.0 * std::numeric_limits<double>::epsilon());
  if (!(w > min_w)) w = min_w;
  span_lo_ = lo;
  width_ = w;
  span_hi_ = lo + static_cast<double>(kBuckets) * w;
  if (!(span_hi_ > lo)) span_hi_ = std::numeric_limits<double>::infinity();
  cur_slot_ = 0;
  bottom_hi_ = span_lo_;

  // Events past the new span stay in overflow: collect them in a member
  // buffer and swap, so neither vector's capacity is given back.
  respan_keep_.clear();
  for (const EventRef& ev : overflow_) {
    if (ev.time < span_hi_) {
      std::size_t idx = static_cast<std::size_t>((ev.time - span_lo_) / width_);
      if (idx >= kBuckets) idx = kBuckets - 1;
      push_bucket(idx, ev);
    } else {
      respan_keep_.push_back(ev);
    }
  }
  overflow_.swap(respan_keep_);
}

}  // namespace pnm::net
