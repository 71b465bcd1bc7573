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
// counter wraps. That array is the walker's only O(n) state, and it is kept
// per walker, not per anchor: the scoped verifier holds one thread_local
// walker, so a process pays O(n) per verifying thread. Ring buffers are
// reused from one search to the next, and each search costs only the rings
// it actually reaches.
//
// Ring 1 is every node within one hop, the anchor included; ring r >= 2 is
// every node exactly r hops away. Each ring lists ids ascending. That is
// exactly k_hop_neighborhood(a, r) minus k_hop_neighborhood(a, r - 1), the
// ball-minus-inner-balls order the search has always walked, so verdicts and
// every work counter are unchanged by construction.
//
// A walker is single-threaded; threads each use their own over a shared
// (immutable) topology.
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
  /// every later call until the next start().
  void start(const net::Topology& topo, NodeId anchor);

  /// The current ring, ids ascending; empty once the search is past the
  /// farthest node of the anchor's component.
  std::span<const NodeId> ring() const { return ring_; }
  /// The current ring's hop distance (1 right after start()).
  std::size_t radius() const { return radius_; }

  /// Expand one layer: the current ring becomes ring radius() + 1.
  void next();

 private:
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

}  // namespace pnm::sink
