// Sink-side anonymous-ID resolution (§4.2 "Mark Verification", §7).
//
// For each distinct report M the sink computes i' = H'_{k_i}(M | i) for the
// nodes i it searches and looks each mark's i' up among them. Anonymous IDs
// are truncated, so collisions are expected; lookups return a candidate SET
// and the caller disambiguates by checking each candidate's MAC.
//
// Two search modes:
//  * exhaustive      — the paper's default: all nodes, O(network size) hashes
//                      per distinct report at worst (feasible at sink
//                      compute rates); the per-packet verifier stops early
//                      once every mark has resolved;
//  * topology-scoped — the §7 optimization: when the sink knows the topology
//                      it restricts the search to the one-hop neighbors of
//                      the previously verified node, O(d) hashes per mark.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/keys.h"
#include "net/topology.h"
#include "util/bytes.h"
#include "util/ids.h"

namespace pnm::sink {

/// Anonymous IDs of nodes 1..size() for one report, in node-id order. Build
/// cost is one PRF evaluation per node swept; measured by
/// bench/sink_throughput.
///
/// There is no index: candidates() is a linear scan over the packed anon
/// array, so a lookup returns ids in ascending order without sorting the
/// table first. A scan per mark costs a small fraction of the PRF sweep that
/// fills the table. Because rows are in node-id order, the table can also be
/// filled lazily: PnmScheme::verify extend()s it one chunk at a time and
/// stops sweeping once every mark has resolved.
class AnonIdTable {
 public:
  /// Empty table for `anon_len`-byte IDs.
  explicit AnonIdTable(std::size_t anon_len = 0) : anon_len_(anon_len) {}

  /// Full table: one PRF per non-sink node (ids 1..keys.size()-1).
  AnonIdTable(const crypto::KeyStore& keys, ByteView report, std::size_t anon_len);

  /// Full table from PRFs that were already computed elsewhere: `anons`
  /// holds the anonymous IDs of nodes 1, 2, ... packed at stride anon_len,
  /// laid out like an anon_id_batch output. The cross-packet batch planner
  /// uses this to share one global PRF sweep across every distinct report in
  /// a verify batch; the result is identical to the hashing constructor's.
  static AnonIdTable from_precomputed(ByteView anons, std::size_t anon_len);

  /// Drop every row and switch to `anon_len`-byte IDs, keeping capacity.
  void clear(std::size_t anon_len);

  /// Sweep the next min(count, remaining) nodes' PRFs for `report` and
  /// append them; returns how many were computed (0 once every non-sink node
  /// of `keys` is in the table).
  std::size_t extend(const crypto::KeyStore& keys, ByteView report, std::size_t count);

  /// Append to `out`, ascending, every node among rows [from, size()) whose
  /// anonymous ID equals `anon`. An `anon` of the wrong width matches none.
  void collect(ByteView anon, std::size_t from, std::vector<NodeId>& out) const;

  /// All swept nodes whose anonymous ID equals `anon`, ascending.
  std::vector<NodeId> candidates(ByteView anon) const;

  /// Nodes swept so far (the table covers ids 1..size()).
  std::size_t size() const { return rows_; }

 private:
  /// Append the rows of `count` anon IDs packed at stride anon_len_.
  void append(const std::uint8_t* anons, std::size_t count);

  std::size_t anon_len_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::uint64_t> keys_;  ///< packed anon IDs (anon_len <= 8)
  Bytes wide_;                       ///< anon IDs at stride anon_len (> 8)
};

/// Topology-scoped candidate search: compute anonymous IDs only for the
/// closed one-hop neighborhood of `previous_hop` and return the matches.
/// This is O(degree) instead of O(network size).
std::vector<NodeId> scoped_candidates(const crypto::KeyStore& keys,
                                      const net::Topology& topo, NodeId previous_hop,
                                      ByteView report, ByteView anon,
                                      std::size_t anon_len);

}  // namespace pnm::sink
