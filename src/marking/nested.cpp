#include "marking/nested.h"

#include "crypto/hmac.h"
#include "marking/mark.h"

namespace pnm::marking {

void NestedMarking::mark(net::Packet& p, NodeId self, ByteView key, Rng& rng) const {
  if (!rng.chance(cfg_.mark_probability)) return;
  p.marks.push_back(make_mark(p, self, key, rng));
}

net::Mark NestedMarking::make_mark(const net::Packet& p, NodeId claimed, ByteView key,
                                   Rng&) const {
  Bytes id_field = encode_id(claimed);
  // Memoized schedule + scratch input: same bytes as the raw-key path, but a
  // node's pad compressions are paid once per simulation, not per mark.
  Bytes mac = nested_mac(crypto::cached_hmac_key(key), p, p.marks.size(), id_field,
                         cfg_.mac_len);
  return net::Mark{std::move(id_field), std::move(mac)};
}

VerifyResult NestedMarking::verify(const net::Packet& p, const crypto::KeyStore& keys) const {
  // A mark names its node in plaintext: one MAC check through that node's
  // precomputed schedule decides it.
  return nested_backward_pass(p, [&](const net::Mark& m, ByteView input) {
    const auto id = decode_id(m.id_field);
    if (!id || *id == kSinkId || *id >= keys.size()) return kInvalidNode;
    return keys.hmac_key(*id).verify(input, m.mac) ? *id : kInvalidNode;
  });
}

}  // namespace pnm::marking
