// Session protocol for the long-running sink daemon (`pnm serve`).
//
// A client connection is a byte stream (TCP or unix socket) carrying framed
// messages:
//
//   msg := u8 type | u32 payload_len | payload          (little-endian)
//
// The conversation:
//
//   client                                server
//   ──────                                ──────
//   Hello{proto, campaign_id}  ───────▶
//                              ◀───────  HelloAck{proto, credit_window,
//                                                 key_epoch, campaign_id}
//   TraceData{.pnmtrace bytes} ───────▶            (repeat; credit-gated)
//   Ping{token}                ───────▶
//                              ◀───────  Pong{token}
//                              ◀───────  Credit{n}     (replenishment)
//   Eof{records_sent}          ───────▶
//                              ◀───────  Digest{records, marks, digest_hex}
//
// TraceData payloads are raw `.pnmtrace` bytes — the same prologue + CRC
// frames trace::TraceWriter emits — chunked at arbitrary boundaries; the
// server reassembles them with trace::TraceStreamParser. Flow control is
// credit-based and counted in *record frames*: HelloAck grants a window, the
// client debits one credit per record frame it sends, and the server
// replenishes with Credit messages as record frames complete verification
// hand-off (every completed outcome counts — pushed, bad CRC, bad record —
// so the two sides can never drift). The server's shard queues provide the
// actual backpressure; credits just keep a slow client from being buffered
// unboundedly ahead of its lane.
//
// Either side may send Abort{reason} and close. A clean shutdown is
// Eof → Digest → close; a connection that EOFs mid-frame or mid-message is
// an abort, and the session's partial records still count toward the global
// digest (they were verified) but the client gets no Digest receipt.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/bytes.h"

namespace pnm::serve {

inline constexpr std::uint16_t kProtoVersion = 1;

/// Hard cap on one message's payload. TraceData chunks are bounded by the
/// sender (loadgen coalesces at most 64 KiB); a length beyond this is framing
/// garbage and kills the connection rather than the allocator.
inline constexpr std::size_t kMaxMsgBytes = 2u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kTraceData = 3,
  kEof = 4,
  kAbort = 5,
  kCredit = 6,
  kPing = 7,
  kPong = 8,
  kDigest = 9,
};

/// One framed message, as MsgParser::poll() yields it: `payload` views the
/// parser's buffer and is valid until the parser's next space() call.
struct Msg {
  MsgType type{};
  ByteView payload;
};

/// Frame a message: type byte, length, payload.
Bytes encode_msg(MsgType type, ByteView payload);

// Typed payload builders / parsers. Decoders return nullopt on any
// structural mismatch (short payload, trailing bytes are tolerated for
// forward compatibility only where noted).

struct Hello {
  std::uint16_t proto = kProtoVersion;
  std::string campaign_id;
};
Bytes encode_hello(const Hello& h);
std::optional<Hello> decode_hello(ByteView payload);

struct HelloAck {
  std::uint16_t proto = kProtoVersion;
  std::uint32_t credit_window = 0;
  std::uint64_t key_epoch = 0;
  std::string campaign_id;
};
Bytes encode_hello_ack(const HelloAck& a);
std::optional<HelloAck> decode_hello_ack(ByteView payload);

struct Eof {
  std::uint64_t records_sent = 0;
};
Bytes encode_eof(const Eof& e);
std::optional<Eof> decode_eof(ByteView payload);

Bytes encode_abort(const std::string& reason);
std::optional<std::string> decode_abort(ByteView payload);

Bytes encode_credit(std::uint32_t n);
std::optional<std::uint32_t> decode_credit(ByteView payload);

Bytes encode_token(std::uint64_t token);  // Ping and Pong
std::optional<std::uint64_t> decode_token(ByteView payload);

struct DigestReport {
  std::uint64_t records = 0;
  std::uint64_t marks = 0;
  std::string digest_hex;
};
Bytes encode_digest(const DigestReport& d);
std::optional<DigestReport> decode_digest(ByteView payload);

/// Incremental message framer over one buffer that the transport reads
/// into: space(n) hands out a writable window at the buffer's tail, commit(k)
/// accepts the k bytes recv() wrote there, and poll() yields the complete
/// messages as views into the same buffer. A message split across any read
/// boundary reassembles identically. Every view poll() returned stays valid
/// until the next space(), which may move or reallocate the buffer.
class MsgParser {
 public:
  /// Writable window of at least `n` bytes at the buffer's tail. It may
  /// reclaim the consumed prefix or grow the buffer, which invalidates every
  /// Msg polled so far.
  std::span<std::uint8_t> space(std::size_t n);
  /// Accept the first `k` bytes of the window the last space() returned.
  void commit(std::size_t k);
  /// Next complete message, if any. After dead() returns true (a length
  /// prefix over kMaxMsgBytes), poll() returns nullopt forever.
  std::optional<Msg> poll();
  bool dead() const { return dead_; }
  std::size_t buffered() const { return tail_ - head_; }

 private:
  Bytes buffer_;           ///< [head_, tail_) unparsed, [tail_, size) window
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  bool dead_ = false;
};

}  // namespace pnm::serve
