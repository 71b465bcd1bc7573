#include "serve/protocol.h"

#include <cstring>
#include <utility>

namespace pnm::serve {

namespace {

std::string blob_to_string(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

ByteView string_view_bytes(const std::string& s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

}  // namespace

Bytes encode_msg(MsgType type, ByteView payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  return std::move(w).take();
}

Bytes encode_hello(const Hello& h) {
  ByteWriter w;
  w.u16(h.proto);
  w.blob16(string_view_bytes(h.campaign_id));
  return std::move(w).take();
}

std::optional<Hello> decode_hello(ByteView payload) {
  ByteReader r(payload);
  Hello h;
  auto proto = r.u16();
  auto id = r.blob16();
  if (!proto || !id) return std::nullopt;
  h.proto = *proto;
  h.campaign_id = blob_to_string(*id);
  return h;
}

Bytes encode_hello_ack(const HelloAck& a) {
  ByteWriter w;
  w.u16(a.proto);
  w.u32(a.credit_window);
  w.u64(a.key_epoch);
  w.blob16(string_view_bytes(a.campaign_id));
  return std::move(w).take();
}

std::optional<HelloAck> decode_hello_ack(ByteView payload) {
  ByteReader r(payload);
  HelloAck a;
  auto proto = r.u16();
  auto window = r.u32();
  auto epoch = r.u64();
  auto id = r.blob16();
  if (!proto || !window || !epoch || !id) return std::nullopt;
  a.proto = *proto;
  a.credit_window = *window;
  a.key_epoch = *epoch;
  a.campaign_id = blob_to_string(*id);
  return a;
}

Bytes encode_eof(const Eof& e) {
  ByteWriter w;
  w.u64(e.records_sent);
  return std::move(w).take();
}

std::optional<Eof> decode_eof(ByteView payload) {
  ByteReader r(payload);
  auto n = r.u64();
  if (!n) return std::nullopt;
  return Eof{*n};
}

Bytes encode_abort(const std::string& reason) {
  ByteWriter w;
  w.blob16(string_view_bytes(reason));
  return std::move(w).take();
}

std::optional<std::string> decode_abort(ByteView payload) {
  ByteReader r(payload);
  auto reason = r.blob16();
  if (!reason) return std::nullopt;
  return blob_to_string(*reason);
}

Bytes encode_credit(std::uint32_t n) {
  ByteWriter w;
  w.u32(n);
  return std::move(w).take();
}

std::optional<std::uint32_t> decode_credit(ByteView payload) {
  ByteReader r(payload);
  return r.u32();
}

Bytes encode_token(std::uint64_t token) {
  ByteWriter w;
  w.u64(token);
  return std::move(w).take();
}

std::optional<std::uint64_t> decode_token(ByteView payload) {
  ByteReader r(payload);
  return r.u64();
}

Bytes encode_digest(const DigestReport& d) {
  ByteWriter w;
  w.u64(d.records);
  w.u64(d.marks);
  w.blob16(string_view_bytes(d.digest_hex));
  return std::move(w).take();
}

std::optional<DigestReport> decode_digest(ByteView payload) {
  ByteReader r(payload);
  DigestReport d;
  auto records = r.u64();
  auto marks = r.u64();
  auto hex = r.blob16();
  if (!records || !marks || !hex) return std::nullopt;
  d.records = *records;
  d.marks = *marks;
  d.digest_hex = blob_to_string(*hex);
  return d;
}

void MsgParser::feed(ByteView chunk) {
  if (dead_) return;
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
}

std::optional<Msg> MsgParser::poll() {
  if (dead_) return std::nullopt;
  std::size_t avail = buffer_.size() - head_;
  if (avail < 5) return std::nullopt;
  std::uint32_t len;
  std::memcpy(&len, buffer_.data() + head_ + 1, sizeof(len));
  if (len > kMaxMsgBytes) {
    dead_ = true;
    return std::nullopt;
  }
  if (avail < 5u + len) return std::nullopt;
  Msg m;
  m.type = static_cast<MsgType>(buffer_[head_]);
  m.payload.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(head_ + 5),
                   buffer_.begin() + static_cast<std::ptrdiff_t>(head_ + 5 + len));
  head_ += 5u + len;
  // Reclaim consumed prefix once it dominates the buffer (same policy as
  // trace::TraceStreamParser: amortized O(1), bounded slack).
  if (head_ > 4096 && head_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return m;
}

}  // namespace pnm::serve
