// Marking scheme tests: wire behavior of each scheme, nested-MAC integrity,
// anonymous IDs, and sink-side verification semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/anon_id.h"
#include "crypto/keys.h"
#include "marking/mark.h"
#include "marking/scheme.h"
#include "net/report.h"

namespace pnm::marking {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

class MarkingFixture : public ::testing::Test {
 protected:
  MarkingFixture() : keys_(str_bytes("test-master"), 64), rng_(2024) {}

  net::Packet fresh_packet() {
    net::Packet p;
    p.report = net::Report{0xAB, 3, 4, 99}.encode();
    p.true_source = 10;
    return p;
  }

  /// Runs the node-side marking of `scheme` along the forwarder chain
  /// `path` (upstream first), as the simulator would.
  net::Packet run_path(const MarkingScheme& scheme, const std::vector<NodeId>& path) {
    net::Packet p = fresh_packet();
    for (NodeId v : path) scheme.mark(p, v, keys_.key_unchecked(v), rng_);
    return p;
  }

  std::vector<NodeId> chain_nodes(const VerifyResult& vr) {
    std::vector<NodeId> out;
    for (const auto& m : vr.chain) out.push_back(m.node);
    return out;
  }

  crypto::KeyStore keys_;
  Rng rng_;
};

// ---------------------------------------------------------------- helpers

TEST_F(MarkingFixture, EncodeDecodeId) {
  Bytes enc = encode_id(0x1234);
  EXPECT_EQ(enc.size(), 2u);
  EXPECT_EQ(decode_id(enc).value(), 0x1234);
  EXPECT_FALSE(decode_id(Bytes{1}).has_value());
  EXPECT_FALSE(decode_id(Bytes{1, 2, 3}).has_value());
}

TEST_F(MarkingFixture, MessagePrefixGrowsWithMarks) {
  net::Packet p = fresh_packet();
  Bytes m0 = message_prefix(p, 0);
  p.marks.push_back(net::Mark{encode_id(1), Bytes{1, 2, 3, 4}});
  Bytes m1 = message_prefix(p, 1);
  EXPECT_GT(m1.size(), m0.size());
  // Prefix with count 0 ignores present marks.
  EXPECT_EQ(message_prefix(p, 0), m0);
}

TEST_F(MarkingFixture, NestedMacInputBindsIdAndPrefix) {
  net::Packet p = fresh_packet();
  Bytes a = nested_mac_input(p, 0, encode_id(1));
  Bytes b = nested_mac_input(p, 0, encode_id(2));
  EXPECT_NE(a, b);
}

TEST_F(MarkingFixture, NestedMacInputIsTagPrefixAndId) {
  // nested_mac_input writes its bytes in one exact-size buffer; they must be
  // the framed composition message_prefix documents, for every mark count
  // (including counts past the marks present) and empty fields. nested_mac
  // writes the same bytes into padded scratch (one to several blocks here)
  // and must MAC them exactly as truncated_mac does.
  net::Packet p = fresh_packet();
  p.marks.push_back(net::Mark{encode_id(7), Bytes{1, 2, 3, 4}});
  p.marks.push_back(net::Mark{Bytes{}, Bytes(300, 0x5A)});
  p.marks.push_back(net::Mark{encode_id(9), Bytes{}});
  for (Bytes id : {encode_id(3), Bytes{}, Bytes(40, 0xC3)}) {
    for (std::size_t count = 0; count <= p.marks.size() + 1; ++count) {
      ByteWriter w;
      w.u8(0xA0);
      w.raw(message_prefix(p, count));
      w.blob16(id);
      EXPECT_EQ(nested_mac_input(p, count, id), w.bytes())
          << "count " << count << ", id of " << id.size() << " bytes";
      const ByteView key = keys_.key_unchecked(3);
      EXPECT_EQ(nested_mac(crypto::HmacKey(key), p, count, id, 4),
                crypto::truncated_mac(key, w.bytes(), 4))
          << "count " << count << ", id of " << id.size() << " bytes";
    }
  }
}

// ---------------------------------------------------------------- factory

TEST(SchemeFactory, AllKindsConstructible) {
  for (SchemeKind kind : all_scheme_kinds()) {
    auto scheme = make_scheme(kind, SchemeConfig{});
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), scheme_kind_name(kind));
  }
}

TEST(SchemeFactory, PlaintextFlagMatchesDesign) {
  SchemeConfig cfg;
  EXPECT_TRUE(make_scheme(SchemeKind::kPlainPpm, cfg)->plaintext_ids());
  EXPECT_TRUE(make_scheme(SchemeKind::kExtendedAms, cfg)->plaintext_ids());
  EXPECT_TRUE(make_scheme(SchemeKind::kNested, cfg)->plaintext_ids());
  EXPECT_TRUE(make_scheme(SchemeKind::kNaiveProbNested, cfg)->plaintext_ids());
  EXPECT_FALSE(make_scheme(SchemeKind::kPnm, cfg)->plaintext_ids());
}

// ------------------------------------------------------------- no-marking

TEST_F(MarkingFixture, NoMarkingLeavesPacketBare) {
  auto scheme = make_scheme(SchemeKind::kNoMarking, SchemeConfig{});
  net::Packet p = run_path(*scheme, {1, 2, 3});
  EXPECT_TRUE(p.marks.empty());
  auto vr = scheme->verify(p, keys_);
  EXPECT_TRUE(vr.chain.empty());
}

// -------------------------------------------------------------- plain ppm

TEST_F(MarkingFixture, PlainPpmMarksWithoutMacs) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kPlainPpm, cfg);
  net::Packet p = run_path(*scheme, {1, 2, 3});
  ASSERT_EQ(p.marks.size(), 3u);
  for (const auto& m : p.marks) EXPECT_TRUE(m.mac.empty());
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{1, 2, 3}));
}

TEST_F(MarkingFixture, PlainPpmAcceptsTriviallyForgedMarks) {
  // The defining weakness: anyone can claim any identity.
  auto scheme = make_scheme(SchemeKind::kPlainPpm, SchemeConfig{});
  net::Packet p = fresh_packet();
  p.marks.push_back(net::Mark{encode_id(7), {}});
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{7}));
}

// ------------------------------------------------------------ extended AMS

TEST_F(MarkingFixture, AmsAllMarksVerifyIndividually) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kExtendedAms, cfg);
  net::Packet p = run_path(*scheme, {1, 2, 3, 4});
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(vr.invalid_marks, 0u);
}

TEST_F(MarkingFixture, AmsSurvivesRemovalOfUpstreamMark) {
  // Removing node 1's mark leaves 2 and 3 VALID — the §3 failure.
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kExtendedAms, cfg);
  net::Packet p = run_path(*scheme, {1, 2, 3});
  p.marks.erase(p.marks.begin());
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{2, 3}));
  EXPECT_FALSE(vr.truncated_by_invalid);
}

TEST_F(MarkingFixture, AmsSurvivesReorder) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kExtendedAms, cfg);
  net::Packet p = run_path(*scheme, {1, 2, 3});
  std::swap(p.marks[0], p.marks[2]);
  auto vr = scheme->verify(p, keys_);
  // All still valid — but in the attacker-chosen (wrong) order.
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{3, 2, 1}));
}

TEST_F(MarkingFixture, AmsRejectsForgedMac) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kExtendedAms, cfg);
  net::Packet p = run_path(*scheme, {1, 2});
  p.marks[0].mac[0] ^= 1;
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{2}));
  EXPECT_EQ(vr.invalid_marks, 1u);
}

// ----------------------------------------------------------------- nested

TEST_F(MarkingFixture, NestedMarksEveryHopRegardlessOfProbability) {
  SchemeConfig cfg;
  cfg.mark_probability = 0.01;  // must be overridden to 1 by the scheme
  auto scheme = make_scheme(SchemeKind::kNested, cfg);
  net::Packet p = run_path(*scheme, {1, 2, 3, 4, 5});
  EXPECT_EQ(p.marks.size(), 5u);
}

TEST_F(MarkingFixture, NestedFullChainVerifies) {
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = run_path(*scheme, {1, 2, 3, 4, 5});
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{1, 2, 3, 4, 5}));
  EXPECT_FALSE(vr.truncated_by_invalid);
  EXPECT_EQ(vr.invalid_marks, 0u);
}

TEST_F(MarkingFixture, NestedAlteringUpstreamInvalidatesDownstream) {
  // Flip one bit in node 1's mark: marks 1..3 all become invalid, the
  // backward pass stops right after the tamper point (Fig. 1's scenario).
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = fresh_packet();
  for (NodeId v : {1, 2, 3}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);
  p.marks[0].mac[0] ^= 1;  // the mole tampers mark of node 1
  for (NodeId v : {4, 5}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);

  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{4, 5}));
  EXPECT_TRUE(vr.truncated_by_invalid);
  EXPECT_EQ(vr.invalid_marks, 3u);
}

TEST_F(MarkingFixture, NestedRemovalInvalidatesDownstream) {
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = fresh_packet();
  for (NodeId v : {1, 2, 3}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);
  p.marks.erase(p.marks.begin());  // remove node 1's mark
  for (NodeId v : {4, 5}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);

  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{4, 5}));
  EXPECT_TRUE(vr.truncated_by_invalid);
}

TEST_F(MarkingFixture, NestedReorderInvalidatesDownstream) {
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = fresh_packet();
  for (NodeId v : {1, 2, 3}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);
  std::swap(p.marks[0], p.marks[1]);
  for (NodeId v : {4, 5}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);

  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{4, 5}));
  EXPECT_TRUE(vr.truncated_by_invalid);
}

TEST_F(MarkingFixture, NestedGarbageLastMarkYieldsEmptyChain) {
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = run_path(*scheme, {1, 2});
  p.marks.push_back(net::Mark{encode_id(3), Bytes{0, 0, 0, 0}});
  auto vr = scheme->verify(p, keys_);
  EXPECT_TRUE(vr.chain.empty());
  EXPECT_TRUE(vr.truncated_by_invalid);
}

TEST_F(MarkingFixture, NestedReportTamperInvalidatesEverything) {
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = run_path(*scheme, {1, 2, 3});
  p.report[0] ^= 1;
  auto vr = scheme->verify(p, keys_);
  EXPECT_TRUE(vr.chain.empty());
}

TEST_F(MarkingFixture, NestedMakeMarkWithColluderKeyVerifies) {
  // Identity swapping: a mark claiming node 9 made with node 9's real key is
  // indistinguishable from an honest one.
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = fresh_packet();
  p.marks.push_back(scheme->make_mark(p, 9, keys_.key_unchecked(9), rng_));
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{9}));
}

TEST_F(MarkingFixture, NestedMakeMarkWithWrongKeyFails) {
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = fresh_packet();
  p.marks.push_back(scheme->make_mark(p, 9, keys_.key_unchecked(8), rng_));
  auto vr = scheme->verify(p, keys_);
  EXPECT_TRUE(vr.chain.empty());
}

TEST_F(MarkingFixture, NestedSinkIdNeverVerifies) {
  auto scheme = make_scheme(SchemeKind::kNested, SchemeConfig{});
  net::Packet p = fresh_packet();
  p.marks.push_back(scheme->make_mark(p, kSinkId, keys_.key_unchecked(kSinkId), rng_));
  auto vr = scheme->verify(p, keys_);
  EXPECT_TRUE(vr.chain.empty());
}

TEST_F(MarkingFixture, NestedConfigurableMacLen) {
  SchemeConfig cfg;
  cfg.mac_len = 8;
  auto scheme = make_scheme(SchemeKind::kNested, cfg);
  net::Packet p = run_path(*scheme, {1});
  EXPECT_EQ(p.marks[0].mac.size(), 8u);
  EXPECT_EQ(chain_nodes(scheme->verify(p, keys_)), (std::vector<NodeId>{1}));
}

// ------------------------------------------------------ naive prob nested

TEST_F(MarkingFixture, NaiveProbMarksAtRatePAndExposesIds) {
  SchemeConfig cfg;
  cfg.mark_probability = 0.3;
  auto scheme = make_scheme(SchemeKind::kNaiveProbNested, cfg);
  std::size_t total = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    net::Packet p = run_path(*scheme, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    total += p.marks.size();
    // IDs are plaintext: readable by a mole in flight.
    for (const auto& m : p.marks) EXPECT_TRUE(decode_id(m.id_field).has_value());
    auto vr = scheme->verify(p, keys_);
    EXPECT_EQ(vr.chain.size(), p.marks.size());
  }
  double avg = static_cast<double>(total) / trials;
  EXPECT_NEAR(avg, 3.0, 0.15);  // np = 10 * 0.3
}

// -------------------------------------------------------------------- PNM

TEST_F(MarkingFixture, PnmDeterministicChainVerifies) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kPnm, cfg);
  net::Packet p = run_path(*scheme, {1, 2, 3, 4, 5});
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{1, 2, 3, 4, 5}));
}

TEST_F(MarkingFixture, PnmIdsAreAnonymous) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kPnm, cfg);
  net::Packet p = run_path(*scheme, {7});
  ASSERT_EQ(p.marks.size(), 1u);
  EXPECT_EQ(p.marks[0].id_field.size(), cfg.anon_len);
  // The anonymous ID matches the PRF, not the plaintext ID.
  Bytes expected = crypto::anon_id(keys_.key_unchecked(7), p.report, 7, cfg.anon_len);
  EXPECT_EQ(p.marks[0].id_field, expected);
  EXPECT_NE(p.marks[0].id_field, encode_id(7));
}

TEST_F(MarkingFixture, PnmAnonIdChangesPerPacket) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kPnm, cfg);
  net::Packet p1 = fresh_packet();
  net::Packet p2 = fresh_packet();
  p2.report = net::Report{0xCD, 3, 4, 100}.encode();
  scheme->mark(p1, 7, keys_.key_unchecked(7), rng_);
  scheme->mark(p2, 7, keys_.key_unchecked(7), rng_);
  EXPECT_NE(p1.marks[0].id_field, p2.marks[0].id_field);
}

TEST_F(MarkingFixture, PnmTamperTruncatesLikeNested) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kPnm, cfg);
  net::Packet p = fresh_packet();
  for (NodeId v : {1, 2, 3}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);
  p.marks[0].id_field[0] ^= 1;
  for (NodeId v : {4, 5}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);
  auto vr = scheme->verify(p, keys_);
  EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{4, 5}));
  EXPECT_TRUE(vr.truncated_by_invalid);
}

TEST_F(MarkingFixture, PnmResolvesAnonIdCollisions) {
  // With a 1-byte anonymous ID and 64 nodes, collisions are common; the MAC
  // must still disambiguate the true marker.
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  cfg.anon_len = 1;
  auto scheme = make_scheme(SchemeKind::kPnm, cfg);
  for (int trial = 0; trial < 50; ++trial) {
    net::Packet p = fresh_packet();
    p.report = net::Report{static_cast<std::uint32_t>(trial), 1, 1, 1}.encode();
    for (NodeId v : {5, 17, 42}) scheme->mark(p, v, keys_.key_unchecked(v), rng_);
    auto vr = scheme->verify(p, keys_);
    EXPECT_EQ(chain_nodes(vr), (std::vector<NodeId>{5, 17, 42})) << "trial " << trial;
  }
}

TEST_F(MarkingFixture, PnmMarkingRateMatchesP) {
  SchemeConfig cfg;
  cfg.mark_probability = 0.25;
  auto scheme = make_scheme(SchemeKind::kPnm, cfg);
  std::size_t total = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    net::Packet p = fresh_packet();
    p.report = net::Report{static_cast<std::uint32_t>(t), 0, 0, 0}.encode();
    for (NodeId v = 1; v <= 8; ++v) scheme->mark(p, v, keys_.key_unchecked(v), rng_);
    total += p.marks.size();
  }
  EXPECT_NEAR(static_cast<double>(total) / trials, 2.0, 0.15);  // 8 * 0.25
}

TEST_F(MarkingFixture, PnmRandomForgedMarkDoesNotVerify) {
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = make_scheme(SchemeKind::kPnm, cfg);
  net::Packet p = fresh_packet();
  net::Mark fake;
  fake.id_field = Bytes{0x12, 0x34};
  fake.mac = Bytes{1, 2, 3, 4};
  p.marks.push_back(fake);
  auto vr = scheme->verify(p, keys_);
  EXPECT_TRUE(vr.chain.empty());
  EXPECT_TRUE(vr.truncated_by_invalid);
}

TEST_F(MarkingFixture, CrossSchemeConfusionRejected) {
  // Marks produced under one scheme must never verify under another — the
  // MAC inputs are scheme-specific (id semantics, coverage), so protocol
  // confusion cannot be exploited to smuggle "valid" marks across.
  std::vector<std::unique_ptr<MarkingScheme>> schemes;
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  for (SchemeKind kind :
       {SchemeKind::kExtendedAms, SchemeKind::kNested, SchemeKind::kPnm}) {
    schemes.push_back(make_scheme(kind, cfg));
  }
  for (const auto& producer : schemes) {
    net::Packet p = run_path(*producer, {1, 2, 3});
    for (const auto& verifier : schemes) {
      if (producer == verifier) continue;
      auto vr = verifier->verify(p, keys_);
      EXPECT_TRUE(vr.chain.empty())
          << producer->name() << " marks accepted by " << verifier->name();
    }
  }
}

TEST_F(MarkingFixture, CrossReportConfusionRejected) {
  // A valid mark lifted from one report cannot endorse another: every MAC
  // binds the full report bytes.
  auto scheme = make_scheme(SchemeKind::kPnm, SchemeConfig{});
  net::Packet a = fresh_packet();
  scheme->mark(a, 4, keys_.key_unchecked(4), rng_);
  ASSERT_EQ(a.marks.size(), 1u);

  net::Packet b = fresh_packet();
  b.report = net::Report{0xCD, 3, 4, 100}.encode();
  b.marks = a.marks;  // transplant the mark
  auto vr = scheme->verify(b, keys_);
  EXPECT_TRUE(vr.chain.empty());
}

TEST_F(MarkingFixture, EmptyPacketVerifiesTrivially) {
  for (SchemeKind kind : all_scheme_kinds()) {
    auto scheme = make_scheme(kind, SchemeConfig{});
    net::Packet p = fresh_packet();
    auto vr = scheme->verify(p, keys_);
    EXPECT_TRUE(vr.chain.empty()) << scheme_kind_name(kind);
    EXPECT_EQ(vr.total_marks, 0u);
  }
}

}  // namespace
}  // namespace pnm::marking
