#include "marking/pnm_pairwise.h"

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "marking/mark.h"
#include "marking/pnm_scheme.h"
#include "sink/anon_lookup.h"

namespace pnm::marking {

PnmPairwise::PnmPairwise(SchemeConfig cfg, const crypto::PairwiseKeys& pair_keys,
                         const net::Topology& topo, std::size_t claim_len)
    : MarkingScheme(cfg), pair_keys_(pair_keys), topo_(topo), claim_len_(claim_len) {}

Bytes PnmPairwise::anon_part(ByteView report, NodeId node, ByteView node_key) const {
  return crypto::anon_id(crypto::cached_hmac_key(node_key), report, node, cfg_.anon_len);
}

Bytes PnmPairwise::claim_tag(ByteView report, ByteView anon, NodeId self,
                             NodeId prev) const {
  ByteWriter w;
  w.u8(0xA2);  // domain tag: neighbor-authentication claim
  w.blob16(report);
  w.blob16(anon);
  w.u16(prev);
  return crypto::truncated_mac(crypto::cached_hmac_key(pair_keys_.key(self, prev)),
                               w.bytes(), claim_len_);
}

void PnmPairwise::mark(net::Packet& p, NodeId self, ByteView key, Rng& rng) const {
  if (!rng.chance(cfg_.mark_probability)) return;
  p.marks.push_back(make_mark(p, self, key, rng));
}

net::Mark PnmPairwise::make_mark(const net::Packet& p, NodeId claimed, ByteView key,
                                 Rng& rng) const {
  Bytes id_field = anon_part(p.report, claimed, key);
  if (p.arrived_from != kInvalidNode) {
    // The tag covers the anonymous ID, which is all id_field holds so far.
    append(id_field, claim_tag(p.report, id_field, claimed, p.arrived_from));
  } else {
    // No radio-layer previous hop (origin-forged mark): the tag cannot be
    // grounded in any pairwise key, so it is necessarily junk.
    for (std::size_t i = 0; i < claim_len_; ++i)
      id_field.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  }
  Bytes mac = nested_mac(crypto::cached_hmac_key(key), p, p.marks.size(), id_field,
                         cfg_.mac_len);
  return net::Mark{std::move(id_field), std::move(mac)};
}

VerifyResult PnmPairwise::verify(const net::Packet& p, const crypto::KeyStore& keys) const {
  // PNM's sweep over the anon-ID prefix; the neighbor tag after it is
  // checked only by resolve_claims, once the chain is known.
  thread_local sink::AnonIdTable table;
  table.clear(cfg_.anon_len);
  AnonSweep sweep{table, keys, p.report};
  return nested_backward_pass(p, [&](const net::Mark& m, ByteView input) {
    if (m.id_field.size() != cfg_.anon_len + claim_len_) return kInvalidNode;
    return sweep.resolve(ByteView(m.id_field.data(), cfg_.anon_len), input, m.mac);
  });
}

std::vector<NeighborClaim> PnmPairwise::resolve_claims(const net::Packet& p,
                                                       const VerifyResult& vr) const {
  std::vector<NeighborClaim> out;
  for (const VerifiedMark& vm : vr.chain) {
    const net::Mark& m = p.marks[vm.mark_index];
    NeighborClaim claim;
    claim.node = vm.node;
    claim.mark_index = vm.mark_index;
    if (m.id_field.size() == cfg_.anon_len + claim_len_) {
      ByteView anon(m.id_field.data(), cfg_.anon_len);
      ByteView tag(m.id_field.data() + cfg_.anon_len, claim_len_);
      for (NodeId neighbor : topo_.neighbors(vm.node)) {
        Bytes expected = claim_tag(p.report, anon, vm.node, neighbor);
        if (constant_time_equal(expected, tag)) {
          claim.received_from = neighbor;
          break;
        }
      }
    }
    out.push_back(claim);
  }
  return out;
}

std::vector<NodeId> PnmPairwise::pair_suspects(
    NodeId stop_node, const std::vector<NeighborClaim>& claims) const {
  for (const NeighborClaim& claim : claims) {
    if (claim.node == stop_node && claim.received_from != kInvalidNode)
      return {stop_node, claim.received_from};
  }
  return topo_.closed_neighborhood(stop_node);
}

}  // namespace pnm::marking
