#include "sink/ring_layers.h"

#include <algorithm>

namespace pnm::sink {

void RingLayers::reset(const net::Topology& topo, std::size_t radius) {
  topo_ = &topo;
  radius_ = radius;
  // Slots past the old size start at 0, which no live generation uses.
  if (stamps_.size() < topo.node_count()) stamps_.resize(topo.node_count(), 0);
  if (++generation_ == 0) {
    std::fill(stamps_.begin(), stamps_.end(), 0);
    generation_ = 1;
  }
}

void RingLayers::start(const net::Topology& topo, NodeId anchor) {
  reset(topo, 1);
  ring_.clear();
  if (reach(anchor)) ring_.push_back(anchor);
  for (NodeId v : topo.neighbors(anchor))
    if (reach(v)) ring_.push_back(v);
  std::sort(ring_.begin(), ring_.end());
}

void RingLayers::resume(const net::Topology& topo, std::span<const NodeId> inner,
                        std::span<const NodeId> ring, std::size_t radius) {
  reset(topo, radius);
  for (NodeId v : inner) reach(v);
  ring_.assign(ring.begin(), ring.end());
  for (NodeId v : ring_) reach(v);
}

void RingLayers::next() {
  // Every node of an earlier ring is stamped, so ring r + 1 is exactly the
  // unstamped neighbors of ring r.
  next_.clear();
  for (NodeId v : ring_)
    for (NodeId u : topo_->neighbors(v))
      if (reach(u)) next_.push_back(u);
  std::sort(next_.begin(), next_.end());
  ring_.swap(next_);
  ++radius_;
}

void RingMemo::rebind(const net::Topology& topo) {
  topo_id_ = topo.id();
  ids_.clear();
  ends_.clear();
  entries_.assign(topo.node_count(), Entry{});
}

void RingMemo::flush() {
  ids_.clear();
  ends_.clear();
  std::fill(entries_.begin(), entries_.end(), Entry{});
}

RingMemo::Order RingMemo::grow(const net::Topology& topo, NodeId anchor) {
  if (topo.id() != topo_id_) rebind(topo);
  Entry e = entries_[anchor];
  const Order held = view(e);
  if (e.rings == 0) {
    layers_.start(topo, anchor);
  } else {
    const std::uint32_t inner = e.rings > 1 ? held.ends[e.rings - 2] : 0;
    const std::uint32_t outer = e.rings > 2 ? held.ends[e.rings - 3] : 0;
    layers_.resume(topo, {held.ids + outer, held.ids + inner},
                   {held.ids + inner, held.ids + held.ends[e.rings - 1]}, e.rings);
    layers_.next();
  }
  const std::span<const NodeId> fresh = layers_.ring();
  const std::uint32_t len = e.rings ? held.ends[e.rings - 1] : 0;
  const std::size_t own = len + e.rings;  // words the entry holds

  // Extend in place when the entry ends the arena; otherwise copy it to the
  // end first (its old copy is dead until the next flush).
  const bool at_tail = e.ids + len == ids_.size() && e.ends + e.rings == ends_.size();
  const std::size_t need = (at_tail ? 0 : own) + fresh.size() + 1;
  if (words() + need > kMaxWords && words() > own) {
    const std::vector<NodeId> kept_ids(held.ids, held.ids + len);
    const std::vector<std::uint32_t> kept_ends(held.ends, held.ends + e.rings);
    flush();
    ids_.assign(kept_ids.begin(), kept_ids.end());
    ends_.assign(kept_ends.begin(), kept_ends.end());
    e.ids = e.ends = 0;
  } else if (!at_tail) {
    const std::size_t ids_at = ids_.size(), ends_at = ends_.size();
    ids_.resize(ids_at + len);
    std::copy_n(ids_.begin() + e.ids, len, ids_.begin() + ids_at);
    ends_.resize(ends_at + e.rings);
    std::copy_n(ends_.begin() + e.ends, e.rings, ends_.begin() + ends_at);
    e.ids = static_cast<std::uint32_t>(ids_at);
    e.ends = static_cast<std::uint32_t>(ends_at);
  }
  ids_.insert(ids_.end(), fresh.begin(), fresh.end());
  ends_.push_back(static_cast<std::uint32_t>(len + fresh.size()));
  ++e.rings;
  entries_[anchor] = e;
  return view(e);
}

}  // namespace pnm::sink
