// Sink-side anonymous-ID resolution (§4.2 "Mark Verification", §7).
//
// For each distinct report M the sink computes i' = H'_{k_i}(M | i) for the
// nodes i it searches and looks each mark's i' up among them. Anonymous IDs
// are truncated, so collisions are expected; lookups return a candidate SET
// and the caller disambiguates by checking each candidate's MAC.
//
// Two ways the sink searches, both behind the one nested backward pass
// (marking::nested_backward_pass):
//  * exhaustive      — the paper's default: an AnonIdTable over all nodes,
//                      at most one PRF per node per distinct report, swept
//                      lazily in ascending id (marking::AnonSweep) and
//                      stopped once every mark has resolved;
//  * topology-scoped — the §7 optimization (sink/scoped_verify.h): when the
//                      sink knows the topology it searches ring by ring out
//                      from the previously verified node, so a mark costs
//                      about as many PRFs as the nodes within its gap.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/keys.h"
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
/// stops sweeping once every mark has resolved. BatchVerifier hands one
/// table to every packet of a batch that carries the same report, so each
/// grows it only past the rows an earlier packet already swept.
class AnonIdTable {
 public:
  /// Empty table for `anon_len`-byte IDs.
  explicit AnonIdTable(std::size_t anon_len = 0) : anon_len_(anon_len) {}

  /// Full table: one PRF per non-sink node (ids 1..keys.size()-1).
  AnonIdTable(const crypto::KeyStore& keys, ByteView report, std::size_t anon_len);

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

}  // namespace pnm::sink
