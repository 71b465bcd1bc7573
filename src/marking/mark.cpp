#include "marking/mark.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace pnm::marking {

Bytes message_prefix(const net::Packet& p, std::size_t mark_count) {
  ByteWriter w;
  w.blob16(p.report);
  for (std::size_t i = 0; i < mark_count && i < p.marks.size(); ++i) {
    w.blob16(p.marks[i].id_field);
    w.blob16(p.marks[i].mac);
  }
  return std::move(w).take();
}

Bytes nested_mac_input(const net::Packet& p, std::size_t mark_count, ByteView id_field) {
  // Leading family tag: without it, a first nested mark (empty prefix) would
  // be byte-identical to an AMS mark over the same report — cross-scheme
  // confusion caught by MarkingFixture.CrossSchemeConfusionRejected.
  //
  // Byte for byte: u8(0xA0) || message_prefix(p, mark_count) ||
  // blob16(id_field), written into one allocation of the exact size.
  const std::size_t marks = std::min(mark_count, p.marks.size());
  std::size_t size = 1 + 2 + p.report.size() + 2 + id_field.size();
  for (std::size_t i = 0; i < marks; ++i)
    size += 4 + p.marks[i].id_field.size() + p.marks[i].mac.size();
  Bytes out(size);
  std::uint8_t* o = out.data();
  auto blob16 = [&o](ByteView data) {
    const auto n = static_cast<std::uint16_t>(data.size());
    *o++ = static_cast<std::uint8_t>(n);
    *o++ = static_cast<std::uint8_t>(n >> 8);
    if (!data.empty()) std::memcpy(o, data.data(), data.size());
    o += data.size();
  };
  *o++ = 0xA0;  // domain tag: nested-family marking MAC
  blob16(p.report);
  for (std::size_t i = 0; i < marks; ++i) {
    blob16(p.marks[i].id_field);
    blob16(p.marks[i].mac);
  }
  blob16(id_field);
  assert(o == out.data() + out.size());
  return out;
}

Bytes ams_mac_input(const net::Packet& p, ByteView id_field) {
  ByteWriter w;
  w.u8(0xA3);  // domain tag: AMS-style per-mark MAC
  w.blob16(p.report);
  w.blob16(id_field);
  return std::move(w).take();
}

Bytes encode_id(NodeId id) {
  ByteWriter w;
  w.u16(id);
  return std::move(w).take();
}

std::optional<NodeId> decode_id(ByteView id_field) {
  if (id_field.size() != 2) return std::nullopt;
  ByteReader r(id_field);
  return r.u16();
}

}  // namespace pnm::marking
