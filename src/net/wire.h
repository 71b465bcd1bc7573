// Byte-level packet codec.
//
// The simulator normally passes structured Packets between nodes, but real
// radios carry bytes — and a mole crafts arbitrary bytes. This codec pins
// the exact wire image (the same length-framed layout the marking MACs are
// computed over) and gives the sink a hardened parser: any byte string,
// however malformed or truncated, either decodes into a well-formed Packet
// or is rejected; it never reads out of bounds and never aborts.
//
// Layout (little-endian, u16 length frames):
//   u16 report_len | report | u8 mark_count | { u16 id_len | id |
//                                               u16 mac_len | mac }*
#pragma once

#include <optional>

#include "net/report.h"
#include "util/bytes.h"

namespace pnm::net {

/// Hard caps a parser enforces before allocating: a mark list longer than
/// any real path, or fields wider than a hash output, is garbage by
/// construction and rejected early.
inline constexpr std::size_t kMaxWireMarks = 255;
inline constexpr std::size_t kMaxIdFieldBytes = 64;
inline constexpr std::size_t kMaxMacBytes = 64;
inline constexpr std::size_t kMaxReportBytes = 4096;

/// Serialize the wire image (ground-truth fields are not serialized).
Bytes encode_packet(const Packet& p);

/// Append the wire image to `w` — the one encoder; encode_packet and the
/// ingest digest fingerprint both write through it.
void encode_packet_into(ByteWriter& w, const Packet& p);

/// Length of the wire image in bytes, without building it.
std::size_t encoded_packet_size(const Packet& p);

/// Parse a wire image. Returns nullopt for any malformed input: truncation,
/// overrunning length frames, oversized fields, trailing garbage.
std::optional<Packet> decode_packet(ByteView wire);

}  // namespace pnm::net
