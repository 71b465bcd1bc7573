#include "net/wire.h"

namespace pnm::net {

void encode_packet_into(ByteWriter& w, const Packet& p) {
  w.blob16(p.report);
  w.u8(static_cast<std::uint8_t>(p.marks.size()));
  for (const Mark& m : p.marks) {
    w.blob16(m.id_field);
    w.blob16(m.mac);
  }
}

std::size_t encoded_packet_size(const Packet& p) {
  std::size_t n = 2 + p.report.size() + 1;
  for (const Mark& m : p.marks) n += 2 + m.id_field.size() + 2 + m.mac.size();
  return n;
}

Bytes encode_packet(const Packet& p) {
  Bytes buf;
  buf.reserve(encoded_packet_size(p));
  ByteWriter w(std::move(buf));
  encode_packet_into(w, p);
  return std::move(w).take();
}

std::optional<Packet> decode_packet(ByteView wire) {
  ByteReader r(wire);
  Packet p;

  auto report = r.blob16();
  if (!report || report->size() > kMaxReportBytes) return std::nullopt;
  p.report = std::move(*report);

  auto count = r.u8();
  if (!count || *count > kMaxWireMarks) return std::nullopt;

  p.marks.reserve(*count);
  for (std::size_t i = 0; i < *count; ++i) {
    Mark m;
    auto id = r.blob16();
    if (!id || id->size() > kMaxIdFieldBytes) return std::nullopt;
    auto mac = r.blob16();
    if (!mac || mac->size() > kMaxMacBytes) return std::nullopt;
    m.id_field = std::move(*id);
    m.mac = std::move(*mac);
    p.marks.push_back(std::move(m));
  }
  if (!r.at_end()) return std::nullopt;  // trailing garbage
  return p;
}

}  // namespace pnm::net
