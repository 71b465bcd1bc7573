#include "net/report.h"

namespace pnm::net {

Bytes Report::encode() const {
  // u32 event, u16 loc_x, u16 loc_y, u64 timestamp, little-endian, in one
  // exact-size buffer.
  Bytes out(16);
  auto put = [&out](std::size_t at, std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put(0, event, 4);
  put(4, loc_x, 2);
  put(6, loc_y, 2);
  put(8, timestamp, 8);
  return out;
}

std::optional<Report> Report::decode(ByteView data) {
  ByteReader r(data);
  Report out;
  auto e = r.u32();
  auto x = r.u16();
  auto y = r.u16();
  auto t = r.u64();
  if (!e || !x || !y || !t || !r.at_end()) return std::nullopt;
  out.event = *e;
  out.loc_x = *x;
  out.loc_y = *y;
  out.timestamp = *t;
  return out;
}

std::size_t Packet::wire_size() const {
  std::size_t size = report.size();
  for (const Mark& m : marks) size += 2 + m.id_field.size() + m.mac.size();
  return size;
}

Report BogusReportFactory::next() {
  Report r;
  // Content must differ across reports or legitimate forwarders would drop
  // them as redundant copies; a real mole would fabricate varying readings.
  r.event = 0xB0000000u | counter_;
  r.loc_x = loc_x_;
  r.loc_y = loc_y_;
  r.timestamp = 1000000ull * (counter_ + 1);
  ++counter_;
  return r;
}

}  // namespace pnm::net
