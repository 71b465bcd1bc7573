// The relative-order structure the sink accumulates during traceback (§4.2).
//
// Each verified mark chain contributes directed edges "V_i is upstream of
// V_j" for consecutive verified marks in one packet (the paper's matrix M).
// The graph maintains an incremental transitive closure over a dynamic node
// set using per-node bitsets, so the identification predicate can be
// re-evaluated after every packet in O(observed^2 / 64) — cheap enough for
// the 5000-run sweeps of Figs. 5-7.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/ids.h"

namespace pnm::sink {

/// Growable bitset keyed by dense node indices.
class NodeBitset {
 public:
  void set(std::size_t i);
  bool test(std::size_t i) const;
  void or_with(const NodeBitset& other);
  bool intersects(const NodeBitset& other) const;
  std::size_t count() const;

 private:
  std::vector<std::uint64_t> words_;
};

class OrderGraph {
 public:
  /// Registers a node sighting (a verified mark) without order information.
  void observe(NodeId node);

  /// Records "up is upstream of down" direct evidence; self-edges ignored.
  void add_order(NodeId up, NodeId down);

  /// Union-merge another graph's evidence into this one: node sightings plus
  /// direct order edges, with the transitive closure maintained as usual.
  /// Order evidence is a set union, so merging per-shard partial graphs in
  /// any order yields exactly the relation (observed set, direct edges,
  /// reachability, loops) a single graph fed all the evidence would hold —
  /// the incrementally-mergeable-state property sharded ingest and partial
  /// sink aggregation rely on. Dense node indices (and thus the order of
  /// derived node lists) depend on merge order; the relation does not.
  void merge(const OrderGraph& other);

  std::size_t observed_count() const { return index_.size(); }
  /// Number of distinct direct order edges recorded.
  std::size_t order_count() const { return order_count_; }
  /// Bumped every time the transitive closure gains a pair. A new direct
  /// edge the closure already implies leaves it unchanged, so anything that
  /// reads only reachability and the observed nodes (analyze_route) is
  /// stale exactly when this or observed_count() moved.
  std::uint64_t closure_version() const { return closure_version_; }
  bool is_observed(NodeId node) const { return index_.count(node) != 0; }
  const std::vector<NodeId>& observed_nodes() const { return nodes_; }

  /// Transitive reachability (strict: a node does not reach itself unless it
  /// lies on a cycle).
  bool reaches(NodeId from, NodeId to) const;

  /// Direct (one-edge) successors recorded so far.
  std::vector<NodeId> direct_successors(NodeId node) const;

  /// True if any node lies on a cycle — the identity-swapping signature.
  bool has_loop() const;

  /// Nodes on some cycle.
  std::vector<NodeId> loop_nodes() const;

  /// Nodes with no incoming reachability from outside their own cycle:
  /// the candidate "most upstream" set. For an acyclic graph these are the
  /// minimal elements; cyclic components count as one candidate each and are
  /// reported via one representative member per component.
  std::vector<NodeId> minimal_candidates() const;

  /// True when every other observed node is reachable from `node`.
  bool reaches_all(NodeId node) const;

 private:
  std::size_t index_of(NodeId node);
  bool on_cycle(std::size_t i) const { return reach_[i].test(i); }

  std::size_t order_count_ = 0;
  std::uint64_t closure_version_ = 0;
  std::unordered_map<NodeId, std::size_t> index_;
  std::vector<NodeId> nodes_;                    // dense index -> NodeId
  std::vector<NodeBitset> reach_;                // transitive closure rows
  std::vector<NodeBitset> direct_;               // direct adjacency rows
};

}  // namespace pnm::sink
