// Probabilistic Nested Marking (§4.2) — the paper's contribution.
//
// Node-side: with probability p, node V_i appends ( i', MAC ) where
//   i'  = H'_{k_i}(M | i)          (anonymous ID bound to the original report)
//   MAC = H_{k_i}(M_{i-1} | i')    (nested MAC over the entire received message)
//
// The anonymous ID removes the information a selective-dropping mole needs
// (it cannot tell which upstream nodes marked a packet), while the nested MAC
// keeps the consecutive-traceability property. Sink-side verification is
// the one nested backward pass (marking::nested_backward_pass); what PNM
// supplies is how a mark resolves to a node: AnonSweep looks i' up in the
// per-report AnonIdTable, grown lazily in ascending id, and disambiguates
// anon-ID collisions by which candidate's key actually verifies.
#pragma once

#include <cstdint>

#include "marking/scheme.h"
#include "util/counters.h"

namespace pnm::sink {
class AnonIdTable;
}

namespace pnm::marking {

/// How a PNM-family mark resolves to a node (PnmScheme and PnmPairwise): a
/// lazy ascending sweep of `report`'s anonymous IDs into `table`, which
/// covers nodes 1..table.size() and may hold rows from earlier packets of
/// the same report. One sweep serves one packet's backward pass and tallies
/// its work.
struct AnonSweep {
  sink::AnonIdTable& table;
  const crypto::KeyStore& keys;
  ByteView report;
  std::uint64_t prf_evals = 0;   ///< rows this sweep added to the table
  std::uint64_t mac_checks = 0;  ///< candidates MAC-checked

  /// The lowest-id node whose anonymous ID equals `anon` and whose key's MAC
  /// over `input` matches `mac`, or kInvalidNode once every non-sink node is
  /// swept. The rows not yet scanned for this mark are checked first; the
  /// sweep extends one chunk (sized to the SHA rung's lanes) at a time, and
  /// only while the mark is unresolved.
  NodeId resolve(ByteView anon, ByteView input, ByteView mac);
};

class PnmScheme final : public MarkingScheme {
 public:
  explicit PnmScheme(SchemeConfig cfg) : MarkingScheme(cfg) {}

  std::string_view name() const override { return "pnm"; }
  bool plaintext_ids() const override { return false; }
  std::size_t hashes_per_mark() const override { return 2; }  // anon ID + MAC
  void mark(net::Packet& p, NodeId self, ByteView key, Rng& rng) const override;
  net::Mark make_mark(const net::Packet& p, NodeId claimed, ByteView key,
                      Rng& rng) const override;
  VerifyResult verify(const net::Packet& p, const crypto::KeyStore& keys) const override;

  /// verify() metering into `metrics` instead of util::Counters::global().
  ///
  /// The anon-ID table is swept in ascending node id, in fixed chunks sized
  /// to the active SHA rung's lanes, and only as far as the backward pass
  /// needs: each mark, last to first, MAC-checks its
  /// candidates in ascending id and extends the sweep only while it is
  /// unresolved. Verdicts are those of a full sorted table — the node a mark
  /// resolves to is the lowest-id candidate whose MAC verifies, and an
  /// ascending sweep meets that node first. kMacChecks counts candidates
  /// walked up to the resolving one; kPrfEvals counts PRFs computed, at most
  /// one per non-sink node and exactly that whenever a mark is invalid.
  VerifyResult verify(const net::Packet& p, const crypto::KeyStore& keys,
                      util::Counters& metrics) const;

  /// The same backward pass over a caller-held `table` of p.report's
  /// anonymous IDs (empty, or grown by earlier calls for the same report and
  /// anon_len). Rows already in the table cost nothing; the sweep extends it
  /// only while a mark is unresolved, so packets that carry one report can
  /// share one table. Verdicts and kMacChecks equal the per-packet call's;
  /// kPrfEvals counts only the rows this call adds.
  VerifyResult verify(const net::Packet& p, const crypto::KeyStore& keys,
                      util::Counters& metrics, sink::AnonIdTable& table) const;
};

}  // namespace pnm::marking
