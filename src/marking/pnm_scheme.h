// Probabilistic Nested Marking (§4.2) — the paper's contribution.
//
// Node-side: with probability p, node V_i appends ( i', MAC ) where
//   i'  = H'_{k_i}(M | i)          (anonymous ID bound to the original report)
//   MAC = H_{k_i}(M_{i-1} | i')    (nested MAC over the entire received message)
//
// The anonymous ID removes the information a selective-dropping mole needs
// (it cannot tell which upstream nodes marked a packet), while the nested MAC
// keeps the consecutive-traceability property. Sink-side verification runs
// the nested backward MAC pass, resolving each i' to candidate real nodes
// via the per-report AnonIdTable and disambiguating anon-ID collisions by
// which candidate's key actually verifies.
#pragma once

#include "marking/scheme.h"
#include "util/counters.h"

namespace pnm::marking {

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
};

}  // namespace pnm::marking
