#include "marking/mark.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/sha256_multi.h"

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

namespace {

/// Bytes of nested_mac_input(p, marks, id_field), marks <= p.marks.size().
std::size_t nested_input_size(const net::Packet& p, std::size_t marks, ByteView id_field) {
  std::size_t size = 1 + 2 + p.report.size() + 2 + id_field.size();
  for (std::size_t i = 0; i < marks; ++i)
    size += 4 + p.marks[i].id_field.size() + p.marks[i].mac.size();
  return size;
}

/// Write nested_mac_input's bytes at `o`, which has room for all of them.
void write_nested_input(const net::Packet& p, std::size_t marks, ByteView id_field,
                        std::uint8_t* o) {
  // Leading family tag: without it, a first nested mark (empty prefix) would
  // be byte-identical to an AMS mark over the same report — cross-scheme
  // confusion caught by MarkingFixture.CrossSchemeConfusionRejected.
  //
  // Byte for byte: u8(0xA0) || message_prefix(p, marks) || blob16(id_field).
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
}

}  // namespace

Bytes nested_mac_input(const net::Packet& p, std::size_t mark_count, ByteView id_field) {
  Bytes out;
  write_nested_mac_input(p, mark_count, id_field, out);
  return out;
}

void write_nested_mac_input(const net::Packet& p, std::size_t mark_count, ByteView id_field,
                            Bytes& out) {
  const std::size_t marks = std::min(mark_count, p.marks.size());
  out.resize(nested_input_size(p, marks, id_field));
  write_nested_input(p, marks, id_field, out.data());
}

Bytes& nested_pass_input() {
  thread_local Bytes input;
  return input;
}

Bytes nested_mac(const crypto::HmacKey& key, const net::Packet& p, std::size_t mark_count,
                 ByteView id_field, std::size_t mac_len) {
  assert(mac_len >= 1 && mac_len <= crypto::kSha256DigestSize);
  // The input goes straight into its padded inner message in per-thread
  // scratch, and one padded job MACs it: no copy, no allocation but the MAC.
  thread_local Bytes scratch;
  const std::size_t marks = std::min(mark_count, p.marks.size());
  const std::size_t len = nested_input_size(p, marks, id_field);
  scratch.resize(crypto::sha256_padded_blocks(len) * 64);
  write_nested_input(p, marks, id_field, scratch.data());
  const std::size_t nb = crypto::sha256_pad_in_place(scratch.data(), len, 64);
  const crypto::HmacPaddedJob job{&key, scratch.data(), nb};
  crypto::Sha256Digest full;
  crypto::hmac_batch_padded({&job, 1}, &full);
  return Bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(mac_len));
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
