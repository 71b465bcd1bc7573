#include "marking/nested.h"

#include <algorithm>

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
  VerifyResult out;
  out.total_marks = p.marks.size();
  // Backward pass: the last mark's MAC covers the whole packet before it, so
  // a valid MAC at position j certifies the byte-exact prefix 0..j-1 as the
  // message the marking node received. Stop at the first invalid MAC — the
  // prefix behind it is untrustworthy. Each mark checks through its node's
  // precomputed schedule, with the input built in reused scratch.
  thread_local Bytes input;
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    auto id = decode_id(m.id_field);
    bool valid = false;
    if (id && *id != kSinkId && *id < keys.size()) {
      write_nested_mac_input(p, j, m.id_field, input);
      valid = keys.hmac_key(*id).verify(input, m.mac);
    }
    if (!valid) {
      out.invalid_marks = j + 1;  // this mark and everything under it
      out.truncated_by_invalid = true;
      break;
    }
    out.chain.push_back(VerifiedMark{*id, j});
  }
  std::reverse(out.chain.begin(), out.chain.end());  // walked last to first
  return out;
}

}  // namespace pnm::marking
