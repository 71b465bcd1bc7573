// Canonical byte strings for marking MACs.
//
// Nested marking's security rests on exactly *what* a node's MAC covers: the
// entire message it received (report + every mark already present) plus its
// own identity field. We fix one canonical, length-framed serialization for
// that input so there is no ambiguity an attacker could exploit by shifting
// bytes between fields (a classic concatenation pitfall the paper's "M_{i-1}|i"
// notation glosses over).
#pragma once

#include <cstddef>

#include "crypto/hmac.h"
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
