// Canonical byte strings for marking MACs.
//
// Nested marking's security rests on exactly *what* a node's MAC covers: the
// entire message it received (report + every mark already present) plus its
// own identity field. We fix one canonical, length-framed serialization for
// that input so there is no ambiguity an attacker could exploit by shifting
// bytes between fields (a classic concatenation pitfall the paper's "M_{i-1}|i"
// notation glosses over).
#pragma once

#include <algorithm>
#include <cstddef>

#include "crypto/hmac.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "util/bytes.h"

namespace pnm::marking {

/// Serialization of the message as it existed after `mark_count` marks:
/// blob16(report) || blob16(id_0) || blob16(mac_0) || ... (first mark_count
/// marks). This is "M_{i-1}" in the paper's notation.
Bytes message_prefix(const net::Packet& p, std::size_t mark_count);

/// The nested-MAC input "M_{i-1} | i": the message prefix followed by the
/// identity field the marking node is about to write.
Bytes nested_mac_input(const net::Packet& p, std::size_t mark_count, ByteView id_field);

/// nested_mac_input's bytes written into `out` (resized to fit): a caller's
/// reused buffer keeps its capacity from packet to packet.
void write_nested_mac_input(const net::Packet& p, std::size_t mark_count, ByteView id_field,
                            Bytes& out);

/// The calling thread's buffer that nested_backward_pass writes inputs into.
Bytes& nested_pass_input();

/// The nested backward pass (§4.1–4.2), the one every nested-family verifier
/// runs. It walks p's marks from the last to the first; for mark j it writes
/// nested_mac_input(p, j, id_field) into the thread's reused buffer and asks
/// `resolve(mark, input)` for the node whose key verifies the mark's MAC over
/// that input, or kInvalidNode. A valid MAC at j certifies the byte-exact
/// prefix 0..j-1 as the message its node received, so the pass stops at the
/// first mark that does not resolve: that mark and every mark under it are
/// invalid, because nothing behind a bad MAC can be trusted. The chain lists
/// the resolved marks in path order, most upstream first. `resolve` supplies
/// only how one mark maps to a node, and must not run another pass on this
/// thread (the input buffer is shared).
template <typename Resolve>
VerifyResult nested_backward_pass(const net::Packet& p, Resolve&& resolve) {
  VerifyResult out;
  out.total_marks = p.marks.size();
  Bytes& input = nested_pass_input();
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    write_nested_mac_input(p, j, m.id_field, input);
    const NodeId node = resolve(m, ByteView(input));
    if (node == kInvalidNode) {
      out.invalid_marks = j + 1;
      out.truncated_by_invalid = true;
      break;
    }
    out.chain.push_back(VerifiedMark{node, j});
  }
  std::reverse(out.chain.begin(), out.chain.end());  // walked last to first
  return out;
}

/// The nested MAC every nested-family scheme writes: `key`'s HMAC over
/// nested_mac_input(p, mark_count, id_field), truncated to mac_len bytes.
/// The input is built and padded in per-thread scratch, so only the
/// returned MAC allocates; bit-identical to crypto::truncated_mac(key,
/// nested_mac_input(p, mark_count, id_field), mac_len).
Bytes nested_mac(const crypto::HmacKey& key, const net::Packet& p, std::size_t mark_count,
                 ByteView id_field, std::size_t mac_len);

/// The extended-AMS MAC input: only the original report and the claimed ID
/// (deliberately weaker — each mark stands alone, which is what §3 exploits).
Bytes ams_mac_input(const net::Packet& p, ByteView id_field);

/// Encode / decode a real node ID as a 2-byte identity field.
Bytes encode_id(NodeId id);
std::optional<NodeId> decode_id(ByteView id_field);

}  // namespace pnm::marking
