// Wire-codec tests: round trips, malformed-input rejection, and a mutation
// sweep asserting the parser never misbehaves on attacker-controlled bytes —
// for the packet codec and for the serve protocol's message framer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/wire.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace pnm::net {
namespace {

Packet sample_packet(std::size_t marks) {
  Packet p;
  p.report = Report{0x1234, 5, 6, 789}.encode();
  for (std::size_t i = 0; i < marks; ++i) {
    Mark m;
    m.id_field = Bytes{static_cast<std::uint8_t>(i), 0x00};
    m.mac = Bytes{1, 2, 3, static_cast<std::uint8_t>(i)};
    p.marks.push_back(std::move(m));
  }
  return p;
}

TEST(Wire, RoundTripNoMarks) {
  Packet p = sample_packet(0);
  auto back = decode_packet(encode_packet(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->same_wire(p));
}

TEST(Wire, RoundTripManyMarks) {
  Packet p = sample_packet(50);
  Bytes wire = encode_packet(p);
  EXPECT_EQ(wire.size(), p.wire_size() + 2 + 1 + 2 * 50);  // framing overhead
  auto back = decode_packet(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->same_wire(p));
}

TEST(Wire, RoundTripEmptyFields) {
  Packet p;
  p.marks.push_back(Mark{{}, {}});
  auto back = decode_packet(encode_packet(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->same_wire(p));
}

TEST(Wire, GroundTruthNotOnTheWire) {
  Packet p = sample_packet(2);
  p.true_source = 77;
  p.bogus = true;
  p.seq = 123;
  auto back = decode_packet(encode_packet(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->true_source, kInvalidNode);
  EXPECT_FALSE(back->bogus);
  EXPECT_EQ(back->seq, 0u);
}

TEST(Wire, RejectsTruncationAtEveryByte) {
  Packet p = sample_packet(3);
  Bytes wire = encode_packet(p);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    ByteView prefix(wire.data(), len);
    EXPECT_FALSE(decode_packet(prefix).has_value()) << "len=" << len;
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  Bytes wire = encode_packet(sample_packet(1));
  wire.push_back(0x00);
  EXPECT_FALSE(decode_packet(wire).has_value());
}

TEST(Wire, RejectsOversizeFields) {
  // Oversized report length frame.
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(kMaxReportBytes + 1));
  Bytes huge(kMaxReportBytes + 1, 0);
  w.raw(huge);
  w.u8(0);
  EXPECT_FALSE(decode_packet(w.bytes()).has_value());
}

TEST(Wire, MutationSweepNeverCrashesAndAcceptedMeansWellFormed) {
  // Flip each single byte of a valid wire image: the parser must either
  // reject or produce a packet that re-encodes consistently.
  Packet p = sample_packet(4);
  Bytes wire = encode_packet(p);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (std::uint8_t delta : {0x01, 0x80, 0xff}) {
      Bytes mutated = wire;
      mutated[i] ^= delta;
      auto decoded = decode_packet(mutated);
      if (decoded) {
        Bytes re = encode_packet(*decoded);
        EXPECT_EQ(re, mutated) << "byte " << i;
      }
    }
  }
}

TEST(Wire, RandomBytesNeverCrash) {
  Rng rng(2468);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes junk(rng.next_below(80), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    auto decoded = decode_packet(junk);
    if (decoded) {
      ++accepted;
      EXPECT_EQ(encode_packet(*decoded), junk);
    }
  }
  // Random junk essentially never parses (length frames must be consistent).
  EXPECT_LT(accepted, 30u);
}

TEST(Wire, DecodedPacketVerifiesLikeOriginal) {
  // End-to-end: marks survive the byte round trip and still verify.
  crypto::KeyStore keys(Bytes{9, 9, 9}, 16);
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  Rng rng(13);

  Packet p;
  p.report = Report{42, 1, 2, 3}.encode();
  for (NodeId v : {3, 7, 11}) scheme->mark(p, v, keys.key_unchecked(v), rng);

  auto back = decode_packet(encode_packet(p));
  ASSERT_TRUE(back.has_value());
  auto vr = scheme->verify(*back, keys);
  ASSERT_EQ(vr.chain.size(), 3u);
  EXPECT_EQ(vr.chain[0].node, 3);
  EXPECT_EQ(vr.chain[2].node, 11);
}

}  // namespace
}  // namespace pnm::net

namespace pnm::serve {
namespace {

using Polled = std::vector<std::pair<MsgType, Bytes>>;

void append_msg(Bytes& stream, Polled& expected, MsgType type, const Bytes& payload) {
  append(stream, encode_msg(type, payload));
  expected.emplace_back(type, payload);
}

/// Feeds `stream` to `parser` the way a socket does — a space() window, the
/// next piece copied into it, commit() — cut at each offset in `cuts`
/// (ascending), polling after every piece. Payloads are copied out before the
/// next space(), which may move them.
Polled feed_in_pieces(MsgParser& parser, ByteView stream,
                      const std::vector<std::size_t>& cuts) {
  Polled out;
  std::size_t from = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t to = i < cuts.size() ? cuts[i] : stream.size();
    std::span<std::uint8_t> window = parser.space(to - from);
    EXPECT_GE(window.size(), to - from);
    std::copy(stream.begin() + static_cast<std::ptrdiff_t>(from),
              stream.begin() + static_cast<std::ptrdiff_t>(to), window.begin());
    parser.commit(to - from);
    while (auto m = parser.poll())
      out.emplace_back(m->type, Bytes(m->payload.begin(), m->payload.end()));
    from = to;
  }
  return out;
}

Polled parse(ByteView stream, const std::vector<std::size_t>& cuts = {}) {
  MsgParser parser;
  Polled out = feed_in_pieces(parser, stream, cuts);
  EXPECT_FALSE(parser.dead());
  EXPECT_EQ(parser.buffered(), 0u);
  return out;
}

/// Every message type with a payload its decoder accepts, and an empty one.
Bytes every_type_stream(Polled& expected) {
  Bytes s;
  append_msg(s, expected, MsgType::kHello, encode_hello(Hello{kProtoVersion, "campaign"}));
  append_msg(s, expected, MsgType::kHelloAck,
             encode_hello_ack(HelloAck{kProtoVersion, 32, 1, "c"}));
  append_msg(s, expected, MsgType::kTraceData, Bytes{0x50, 0x4e, 0x4d, 0x54, 1, 0});
  append_msg(s, expected, MsgType::kTraceData, Bytes{});
  append_msg(s, expected, MsgType::kPing, encode_token(0x0102030405060708ull));
  append_msg(s, expected, MsgType::kPong, encode_token(7));
  append_msg(s, expected, MsgType::kCredit, encode_credit(256));
  append_msg(s, expected, MsgType::kEof, encode_eof(Eof{12}));
  append_msg(s, expected, MsgType::kDigest, encode_digest(DigestReport{12, 30, "ab12"}));
  append_msg(s, expected, MsgType::kAbort, encode_abort("bye"));
  return s;
}

TEST(MsgParser, AnySplitOfTheStreamYieldsTheSameMessages) {
  Polled expected;
  const Bytes small = every_type_stream(expected);
  EXPECT_EQ(parse(small), expected);
  for (std::size_t cut = 1; cut < small.size(); ++cut)
    ASSERT_EQ(parse(small, {cut}), expected) << "cut at " << cut;

  // The same messages around a payload of exactly kMaxMsgBytes, the largest
  // a peer may send.
  Bytes big;
  Polled big_expected;
  for (const auto& [type, payload] : expected) append_msg(big, big_expected, type, payload);
  const std::size_t max_at = big.size();
  Bytes max_payload(kMaxMsgBytes);
  for (std::size_t i = 0; i < max_payload.size(); ++i)
    max_payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  append_msg(big, big_expected, MsgType::kTraceData, max_payload);
  const std::size_t max_end = big.size();
  for (const auto& [type, payload] : expected) append_msg(big, big_expected, type, payload);

  EXPECT_EQ(parse(big), big_expected);
  // One byte per commit cuts the stream at every offset at once.
  std::vector<std::size_t> every(big.size() - 1);
  for (std::size_t i = 0; i < every.size(); ++i) every[i] = i + 1;
  EXPECT_EQ(parse(big, every), big_expected);
  // Two pieces: at every offset outside the big payload's interior and near
  // its edges, and on a stride through it (each such cut leaves the parser
  // in the same state: a partial message awaiting the rest).
  for (std::size_t cut = 1; cut < big.size(); ++cut) {
    const bool interior = cut > max_at + 64 && cut + 64 < max_end;
    if (interior && cut % 4099 != 0) continue;
    ASSERT_EQ(parse(big, {cut}), big_expected) << "cut at " << cut;
  }
}

TEST(MsgParser, ALengthOverTheCapKillsTheStream) {
  Bytes stream = encode_msg(MsgType::kPing, encode_token(1));
  ByteWriter bad;
  bad.u8(static_cast<std::uint8_t>(MsgType::kTraceData));
  bad.u32(static_cast<std::uint32_t>(kMaxMsgBytes + 1));
  append(stream, bad.bytes());
  append(stream, encode_msg(MsgType::kPing, encode_token(2)));

  MsgParser parser;
  Polled polled = feed_in_pieces(parser, stream, {});
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].first, MsgType::kPing);
  EXPECT_TRUE(parser.dead());
  // Nothing after the bad prefix is ever polled, whatever else arrives.
  const Bytes later = encode_msg(MsgType::kEof, encode_eof(Eof{0}));
  EXPECT_TRUE(feed_in_pieces(parser, later, {}).empty());
  EXPECT_TRUE(parser.dead());
}

TEST(MsgParser, LengthPrefixIsLittleEndian) {
  const Bytes stream = {static_cast<std::uint8_t>(MsgType::kTraceData), 3, 0, 0, 0,
                        'a', 'b', 'c'};
  EXPECT_EQ(parse(stream), (Polled{{MsgType::kTraceData, Bytes{'a', 'b', 'c'}}}));
}

TEST(MsgParser, EveryFlippedByteYieldsOnlyMessagesFramedByTheStream) {
  Polled expected;
  const Bytes stream = every_type_stream(expected);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xff}}) {
      Bytes mutated = stream;
      mutated[i] ^= mask;
      MsgParser parser;
      const Polled polled = feed_in_pieces(parser, mutated, {i});
      // Whatever the flip did, each polled message is the stream's own
      // bytes, framed back to back from offset 0.
      std::size_t at = 0;
      for (const auto& [type, payload] : polled) {
        ASSERT_LE(at + 5 + payload.size(), mutated.size()) << "flip at " << i;
        EXPECT_EQ(static_cast<std::uint8_t>(type), mutated[at]);
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                               mutated.begin() + static_cast<std::ptrdiff_t>(at + 5)));
        at += 5 + payload.size();
      }
      EXPECT_EQ(parser.buffered(), mutated.size() - at) << "flip at " << i;
    }
  }
}

TEST(MsgParser, PolledViewsStayValidAcrossLaterPolls) {
  Polled expected;
  const Bytes stream = every_type_stream(expected);
  MsgParser parser;
  std::span<std::uint8_t> window = parser.space(stream.size());
  std::copy(stream.begin(), stream.end(), window.begin());
  parser.commit(stream.size());
  std::vector<Msg> views;
  while (auto m = parser.poll()) views.push_back(*m);
  ASSERT_EQ(views.size(), expected.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].type, expected[i].first);
    EXPECT_TRUE(std::equal(views[i].payload.begin(), views[i].payload.end(),
                           expected[i].second.begin(), expected[i].second.end()))
        << "message " << i;
  }
}

}  // namespace
}  // namespace pnm::serve
