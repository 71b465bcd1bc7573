// Hop-distance rings for the §7 scoped anonymous-ID search.
//
// The scoped search resolves a mark by probing the nodes around the previous
// hop ring by ring: first the anchor and its neighbors, then the nodes two
// hops out, and so on. RingLayers produces those rings one at a time as a
// breadth-first search that expands exactly one layer per next(): ring r + 1
// is the neighbors of ring r that no earlier ring reached. A walker tells
// the reached nodes apart with a generation-stamped visited array, one u32
// per node of the largest topology it has walked: start() bumps the
// generation instead of clearing the array, which is only zeroed when the
// counter wraps.
//
// Ring 1 is every node within one hop, the anchor included; ring r >= 2 is
// every node exactly r hops away. Each ring lists ids ascending. That is
// exactly k_hop_neighborhood(a, r) minus k_hop_neighborhood(a, r - 1), the
// ball-minus-inner-balls order the search has always walked, so verdicts and
// every work counter are unchanged by construction.
//
// A topology never changes, so neither do an anchor's rings. RingMemo keeps
// each anchor's walk order once RingLayers has built it: the ids of ring 1,
// then ring 2, and so on, plus the ring end offsets, extended lazily one
// ring at a time and only as far as some search has gone. Every entry lives
// in one arena whose size is capped at kMaxWords; an extension that would
// pass the cap flushes the whole arena first, as PrfCache does with its
// entries. A memo therefore holds at most kMaxWords words, or one anchor's
// whole walk order when that alone is larger, plus O(n) per-walker state:
// the visited array and one small header per node of the current topology.
//
// A walker or memo is single-threaded; threads each use their own over a
// shared (immutable) topology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "util/ids.h"

namespace pnm::sink {

class RingLayers {
 public:
  /// Begin at ring 1 around `anchor`, a node of `topo`. `topo` must outlive
  /// every later call until the next start() or resume().
  void start(const net::Topology& topo, NodeId anchor);

  /// Continue some anchor's search from its ring `radius` (>= 1), given that
  /// ring and the one inside it (`inner`, empty when `radius` is 1). An edge
  /// joins rings at most one apart, so those two rings are all that next()
  /// must know were reached.
  void resume(const net::Topology& topo, std::span<const NodeId> inner,
              std::span<const NodeId> ring, std::size_t radius);

  /// The current ring, ids ascending; empty once the search is past the
  /// farthest node of the anchor's component.
  std::span<const NodeId> ring() const { return ring_; }
  /// The current ring's hop distance (1 right after start()).
  std::size_t radius() const { return radius_; }

  /// Expand one layer: the current ring becomes ring radius() + 1.
  void next();

 private:
  /// Begin a search of `topo`: a fresh generation, nothing reached yet.
  void reset(const net::Topology& topo, std::size_t radius);

  /// Stamp `v` reached in this search; true when it was not yet.
  bool reach(NodeId v) {
    if (stamps_[v] == generation_) return false;
    stamps_[v] = generation_;
    return true;
  }

  const net::Topology* topo_ = nullptr;
  std::size_t radius_ = 1;
  std::uint32_t generation_ = 0;       ///< this search's stamp
  std::vector<std::uint32_t> stamps_;  ///< per node, the last search to reach it
  std::vector<NodeId> ring_;           ///< ring radius()
  std::vector<NodeId> next_;           ///< scratch for the layer being built
};

class RingMemo {
 public:
  /// Arena cap in 32-bit words, ring ids plus ring end offsets (4 MiB).
  static constexpr std::size_t kMaxWords = std::size_t{1} << 20;

  /// An anchor's walk order as far as it is memoized: `rings` rings, ring r
  /// (1-based) at ids[r > 1 ? ends[r - 2] : 0, ends[r - 1]), ids ascending
  /// within each ring, exactly as RingLayers walks them. An empty ring ends
  /// the anchor's component.
  struct Order {
    const NodeId* ids = nullptr;
    const std::uint32_t* ends = nullptr;
    std::size_t rings = 0;
  };

  /// The memoized walk order of `anchor`, a node of `topo` (perhaps no ring
  /// yet). A topology other than the last one asked about, told apart by
  /// Topology::id(), flushes the memo first. Valid until the next call.
  Order order(const net::Topology& topo, NodeId anchor) {
    if (topo.id() != topo_id_) rebind(topo);
    return view(entries_[anchor]);
  }

  /// Build the next ring of `anchor`, a node of `topo`, and return the
  /// order with it. Valid until the next call.
  Order grow(const net::Topology& topo, NodeId anchor);

  /// Arena words in use: ring ids plus ring end offsets.
  std::size_t words() const { return ids_.size() + ends_.size(); }

 private:
  /// Where one anchor's order lives: its ids from ids_[ids], and from
  /// ends_[ends] each ring's end as an offset from its first id.
  struct Entry {
    std::uint32_t ids = 0;
    std::uint32_t ends = 0;
    std::uint32_t rings = 0;
  };

  Order view(const Entry& e) const {
    return {ids_.data() + e.ids, ends_.data() + e.ends, e.rings};
  }
  /// Empty the arena and key the memo by `topo`.
  void rebind(const net::Topology& topo);
  /// Empty the arena, keeping the key.
  void flush();

  RingLayers layers_;
  std::uint64_t topo_id_ = 0;   ///< Topology::id() of the memoized topology
  std::vector<Entry> entries_;  ///< per anchor of that topology
  std::vector<NodeId> ids_;
  std::vector<std::uint32_t> ends_;
};

}  // namespace pnm::sink
