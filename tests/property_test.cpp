// Property-based suites (parameterized sweeps over schemes, path lengths,
// seeds) checking structural invariants rather than point behaviors.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "analysis/models.h"
#include "core/campaign.h"
#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/simulator.h"
#include "net/wire.h"
#include "sink/order_matrix.h"

namespace pnm {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------------------
// Invariant: for every scheme, the verified chain is a subsequence of the
// mark list (indices strictly increasing) and never larger than it.

class ChainShapeProperty
    : public ::testing::TestWithParam<std::tuple<marking::SchemeKind, std::uint64_t>> {};

TEST_P(ChainShapeProperty, VerifiedChainIsOrderedSubsequence) {
  auto [kind, seed] = GetParam();
  marking::SchemeConfig cfg;
  cfg.mark_probability = 0.5;
  auto scheme = marking::make_scheme(kind, cfg);
  crypto::KeyStore keys(str_bytes("prop-master"), 24);
  Rng rng(seed);

  for (int trial = 0; trial < 40; ++trial) {
    net::Packet p;
    p.report = net::Report{static_cast<std::uint32_t>(trial), 1, 2, 3}.encode();
    // Random forwarder path of random length.
    std::size_t hops = 1 + rng.next_below(12);
    for (std::size_t h = 0; h < hops; ++h) {
      NodeId v = static_cast<NodeId>(1 + rng.next_below(23));
      scheme->mark(p, v, keys.key_unchecked(v), rng);
    }
    // Occasionally corrupt a random mark.
    if (!p.marks.empty() && rng.chance(0.5)) {
      auto& m = p.marks[rng.next_below(p.marks.size())];
      if (!m.mac.empty()) m.mac[0] ^= 1;
      else if (!m.id_field.empty()) m.id_field[0] ^= 1;
    }

    auto vr = scheme->verify(p, keys);
    EXPECT_EQ(vr.total_marks, p.marks.size());
    EXPECT_LE(vr.chain.size(), p.marks.size());
    for (std::size_t i = 0; i < vr.chain.size(); ++i) {
      EXPECT_LT(vr.chain[i].mark_index, p.marks.size());
      if (i > 0) {
        EXPECT_LT(vr.chain[i - 1].mark_index, vr.chain[i].mark_index);
      }
      EXPECT_NE(vr.chain[i].node, kInvalidNode);
      EXPECT_LT(vr.chain[i].node, 24);
    }
    EXPECT_LE(vr.chain.size() + vr.invalid_marks, p.marks.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ChainShapeProperty,
    ::testing::Combine(::testing::ValuesIn(marking::all_scheme_kinds()),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      std::string name(marking::scheme_kind_name(std::get<0>(info.param)));
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Invariant: nested schemes' verified chain is exactly the honest suffix — a
// valid mark certifies the byte-exact prefix, so the chain can only break at
// a tamper point, never before.

class NestedSuffixProperty : public ::testing::TestWithParam<marking::SchemeKind> {};

TEST_P(NestedSuffixProperty, TamperTruncatesExactlyAtTamperPoint) {
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(GetParam(), cfg);
  crypto::KeyStore keys(str_bytes("suffix-master"), 16);
  Rng rng(99);

  for (std::size_t tamper_at = 0; tamper_at < 6; ++tamper_at) {
    net::Packet p;
    p.report = net::Report{7, 7, 7, 7}.encode();
    // The mole corrupts mark `tamper_at` in flight; nodes downstream of the
    // tamper point mark the already-corrupted packet (as on a real path).
    for (NodeId v = 1; v <= 6; ++v) {
      scheme->mark(p, v, keys.key_unchecked(v), rng);
      if (p.marks.size() == tamper_at + 1 && v == tamper_at + 1)
        p.marks[tamper_at].mac[0] ^= 1;
    }

    auto vr = scheme->verify(p, keys);
    ASSERT_EQ(vr.chain.size(), 6 - tamper_at - 1) << "tamper_at=" << tamper_at;
    EXPECT_TRUE(vr.truncated_by_invalid);
    EXPECT_EQ(vr.invalid_marks, tamper_at + 1);
    // Chain must be the nodes after the tamper point, in order.
    for (std::size_t i = 0; i < vr.chain.size(); ++i)
      EXPECT_EQ(vr.chain[i].node, static_cast<NodeId>(tamper_at + 2 + i));
  }
}

INSTANTIATE_TEST_SUITE_P(NestedFamily, NestedSuffixProperty,
                         ::testing::Values(marking::SchemeKind::kNested,
                                           marking::SchemeKind::kNaiveProbNested,
                                           marking::SchemeKind::kPnm),
                         [](const auto& info) {
                           std::string name(marking::scheme_kind_name(info.param));
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Invariant: the incremental transitive closure agrees with a Floyd-Warshall
// reference on random DAG-ish edge streams.

class ClosureProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosureProperty, MatchesFloydWarshallReference) {
  Rng rng(GetParam());
  const std::size_t n = 12;
  std::vector<std::vector<bool>> ref(n, std::vector<bool>(n, false));
  sink::OrderGraph g;

  for (int e = 0; e < 40; ++e) {
    NodeId a = static_cast<NodeId>(rng.next_below(n));
    NodeId b = static_cast<NodeId>(rng.next_below(n));
    if (a == b) continue;
    g.add_order(a, b);
    ref[a][b] = true;
  }
  // Floyd-Warshall closure.
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (ref[i][k] && ref[k][j]) ref[i][j] = true;

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j || ref[i][j]) {  // self-reachability only via cycles
        EXPECT_EQ(g.reaches(static_cast<NodeId>(i), static_cast<NodeId>(j)), ref[i][j])
            << i << "->" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

// ---------------------------------------------------------------------------
// Invariant: simulated mark collection matches the Fig. 4 closed form.

class CollectionLawProperty
    : public ::testing::TestWithParam<std::size_t> {};  // path length

TEST_P(CollectionLawProperty, SimulationMatchesClosedForm) {
  std::size_t n = GetParam();
  double p = 3.0 / static_cast<double>(n);
  // L = packets for ~90% analytic confidence.
  std::size_t L = analysis::packets_for_confidence(n, p, 0.90);

  const int runs = 400;
  int complete = 0;
  for (int r = 0; r < runs; ++r) {
    core::ChainExperimentConfig cfg;
    cfg.forwarders = n;
    cfg.packets = L;
    cfg.seed = 10000 + static_cast<std::uint64_t>(r);
    auto result = core::run_chain_experiment(cfg);
    if (result.markers_seen.size() == n) ++complete;
  }
  double rate = static_cast<double>(complete) / runs;
  double expected = analysis::prob_all_marks_within(n, p, L);
  EXPECT_NEAR(rate, expected, 0.06) << "n=" << n << " L=" << L;
}

INSTANTIATE_TEST_SUITE_P(PathLengths, CollectionLawProperty,
                         ::testing::Values(5u, 10u, 15u));

// ---------------------------------------------------------------------------
// Invariant: the measured identification-failure rate tracks the analytic
// V1-V2 pair-ordering law (1-p^2)^L — the dominant failure term behind
// Fig. 6 (V2's only possible upstream witness is V1).

class FailureLawProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FailureLawProperty, SimulatedFailuresTrackAnalyticBound) {
  auto [n, packets] = GetParam();
  const std::size_t runs = 120;
  std::size_t failures = 0;
  for (std::size_t r = 0; r < runs; ++r) {
    core::ChainExperimentConfig cfg;
    cfg.forwarders = n;
    cfg.packets = packets;
    cfg.seed = 31000 + r * 17 + n + packets;
    auto result = core::run_chain_experiment(cfg);
    if (!result.final_analysis.identified) ++failures;
  }
  double measured = static_cast<double>(failures) / runs;
  double p = std::min(1.0, 3.0 / static_cast<double>(n));
  double law = analysis::prob_identification_failure(p, packets);
  // The law is the dominant term, not exact: allow a generous band, but the
  // rate must be the right order of magnitude and never far below the bound
  // (you cannot identify without ordering the first pair).
  EXPECT_GE(measured, law * 0.3 - 0.02) << "n=" << n << " L=" << packets;
  EXPECT_LE(measured, law * 3.0 + 0.06) << "n=" << n << " L=" << packets;
}

INSTANTIATE_TEST_SUITE_P(Regimes, FailureLawProperty,
                         ::testing::Values(std::make_pair(30u, 100u),
                                           std::make_pair(30u, 250u),
                                           std::make_pair(40u, 200u)));

// ---------------------------------------------------------------------------
// Invariant: one-hop precision of PNM holds across path lengths and mole
// placements, not just the defaults.

class PrecisionProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PrecisionProperty, RemovalMoleAlwaysCornered) {
  auto [n, offset] = GetParam();
  core::ChainExperimentConfig cfg;
  cfg.forwarders = n;
  cfg.packets = 300;
  cfg.attack = attack::AttackKind::kRemoval;
  cfg.forwarder_offset = offset;
  cfg.seed = 71 + n * 13 + offset;
  auto r = core::run_chain_experiment(cfg);
  if (r.packets_delivered == 0) return;
  ASSERT_TRUE(r.final_analysis.identified) << "n=" << n << " offset=" << offset;
  EXPECT_TRUE(r.mole_in_suspects) << "n=" << n << " offset=" << offset;
}

INSTANTIATE_TEST_SUITE_P(Placements, PrecisionProperty,
                         ::testing::Combine(::testing::Values(6u, 10u, 16u),
                                            ::testing::Values(2u, 3u, 5u)));

// ---------------------------------------------------------------------------
// Invariant: packet conservation in the simulator — every injected packet is
// accounted for exactly once (delivered, link loss, node drop, or queue
// overflow), under arbitrary combinations of loss, dropping handlers and
// tiny queues.

class ConservationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationProperty, InjectedEqualsDeliveredPlusDropped) {
  std::uint64_t seed = GetParam();
  Rng knobs(seed);
  net::Topology topo = net::Topology::chain(6 + knobs.next_below(6));
  net::RoutingTable routing(topo, net::RoutingStrategy::kTree);
  net::LinkModel link;
  link.loss_probability = knobs.next_double() * 0.2;
  net::Simulator sim(topo, routing, link, net::EnergyModel{}, seed ^ 0xC0);
  if (knobs.chance(0.5)) sim.set_queue_capacity(1 + knobs.next_below(4));

  // A random node drops a random fraction of what it sees.
  NodeId dropper = static_cast<NodeId>(1 + knobs.next_below(topo.node_count() - 2));
  double drop_rate = knobs.next_double() * 0.5;
  Rng drop_rng(seed ^ 0xD1);
  sim.set_node_handler(dropper,
                       [&](net::Packet&, NodeId) { return !drop_rng.chance(drop_rate); });

  std::size_t delivered = 0;
  sim.set_sink_handler([&](net::Packet&&, double) { ++delivered; });

  NodeId origin = static_cast<NodeId>(topo.node_count() - 1);
  const std::size_t injected = 150;
  for (std::size_t i = 0; i < injected; ++i) {
    double at = static_cast<double>(i) * 0.01;
    sim.schedule(at, [&sim, origin, i] {
      net::Packet p;
      p.report = net::Report{static_cast<std::uint32_t>(i), 1, 1, i}.encode();
      sim.inject(origin, std::move(p));
    });
  }
  ASSERT_TRUE(sim.run());

  EXPECT_EQ(delivered + sim.packets_dropped_by_links() +
                sim.packets_dropped_by_nodes() + sim.packets_dropped_by_queues(),
            injected)
      << "seed " << seed;
  EXPECT_EQ(sim.packets_delivered(), delivered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Values(3u, 14u, 15u, 92u, 65u, 35u, 89u, 79u));

// ---------------------------------------------------------------------------
// Invariant: lossless links conserve bytes — total received equals total
// transmitted; with loss, received is strictly bounded by transmitted.

TEST(ConservationEnergy, BytesBalanceWithoutLoss) {
  net::Topology topo = net::Topology::chain(8);
  net::RoutingTable routing(topo, net::RoutingStrategy::kTree);
  net::Simulator sim(topo, routing, net::LinkModel{}, net::EnergyModel{}, 4);
  sim.set_sink_handler([](net::Packet&&, double) {});
  for (std::uint32_t i = 0; i < 40; ++i) {
    net::Packet p;
    p.report = net::Report{i, 1, 1, i}.encode();
    sim.inject(9, std::move(p));
  }
  ASSERT_TRUE(sim.run());
  std::size_t tx = 0, rx = 0;
  for (NodeId v = 0; v < topo.node_count(); ++v) {
    tx += sim.energy().tx_bytes(v);
    rx += sim.energy().rx_bytes(v);
  }
  EXPECT_EQ(tx, rx);
  EXPECT_GT(tx, 0u);
}

// ---------------------------------------------------------------------------
// Invariant: every scheme verifies its own honest output for every MAC and
// anon-ID width — no hidden coupling to the default sizes.

class WidthProperty
    : public ::testing::TestWithParam<std::tuple<marking::SchemeKind, std::size_t>> {};

TEST_P(WidthProperty, HonestChainVerifiesAtAllWidths) {
  auto [kind, mac_len] = GetParam();
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  cfg.mac_len = mac_len;
  cfg.anon_len = 1 + mac_len % 3;
  auto scheme = marking::make_scheme(kind, cfg);
  crypto::KeyStore keys(str_bytes("width-master"), 12);
  Rng rng(99 + mac_len);

  net::Packet p;
  p.report = net::Report{1, 2, 3, 4}.encode();
  for (NodeId v = 1; v <= 6; ++v) scheme->mark(p, v, keys.key_unchecked(v), rng);
  auto vr = scheme->verify(p, keys);
  if (kind == marking::SchemeKind::kNoMarking) {
    EXPECT_TRUE(vr.chain.empty());
  } else {
    EXPECT_EQ(vr.chain.size(), 6u) << "mac_len=" << mac_len;
    EXPECT_EQ(vr.invalid_marks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndWidths, WidthProperty,
    ::testing::Combine(::testing::ValuesIn(marking::all_scheme_kinds()),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u)),
    [](const auto& info) {
      std::string name(marking::scheme_kind_name(std::get<0>(info.param)));
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_mac" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Invariant: the wire codec is a bijection on well-formed packets. Every
// packet within the caps — including every boundary (zero marks, the 255-mark
// max, empty and maximum-width fields) — survives encode → decode → encode
// byte-identically. The trace format stores exactly these wire images, so
// this is what makes a replayed packet verify like the live one.

class WireRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTripProperty, EncodeDecodeEncodeIsIdentity) {
  Rng rng(GetParam());
  const std::size_t boundary_counts[] = {0, 1, 2, net::kMaxWireMarks};
  const std::size_t boundary_fields[] = {0, 1, 2, net::kMaxIdFieldBytes};

  for (int trial = 0; trial < 60; ++trial) {
    net::Packet p;
    // Report size: mostly small, sometimes the exact cap.
    std::size_t report_len = trial % 10 == 0 ? net::kMaxReportBytes : rng.next_below(64);
    p.report.resize(report_len);
    for (auto& b : p.report) b = static_cast<std::uint8_t>(rng.next_below(256));

    std::size_t mark_count = trial < 8 ? boundary_counts[trial % 4]
                                       : rng.next_below(net::kMaxWireMarks + 1);
    for (std::size_t i = 0; i < mark_count; ++i) {
      net::Mark m;
      std::size_t id_len = i < 4 ? boundary_fields[i % 4] : rng.next_below(8);
      std::size_t mac_len = i < 4 ? boundary_fields[(i + 1) % 4] : rng.next_below(8);
      m.id_field.resize(id_len);
      m.mac.resize(std::min(mac_len, net::kMaxMacBytes));
      for (auto& b : m.id_field) b = static_cast<std::uint8_t>(rng.next_below(256));
      for (auto& b : m.mac) b = static_cast<std::uint8_t>(rng.next_below(256));
      p.marks.push_back(std::move(m));
    }

    Bytes wire = net::encode_packet(p);
    auto decoded = net::decode_packet(wire);
    ASSERT_TRUE(decoded.has_value())
        << "trial " << trial << ": " << mark_count << " marks, report " << report_len;
    EXPECT_EQ(decoded->report, p.report);
    ASSERT_EQ(decoded->marks.size(), p.marks.size());
    for (std::size_t i = 0; i < p.marks.size(); ++i) {
      EXPECT_EQ(decoded->marks[i].id_field, p.marks[i].id_field);
      EXPECT_EQ(decoded->marks[i].mac, p.marks[i].mac);
    }
    EXPECT_EQ(net::encode_packet(*decoded), wire);  // canonical: no second image
  }
}

TEST_P(WireRoundTripProperty, DecodeRejectsBeyondCapImages) {
  Rng rng(GetParam() ^ 0x5151);
  // Hand-build images that violate exactly one cap; the parser must reject
  // every one (the encoder can't produce them, a mole can).
  for (int trial = 0; trial < 20; ++trial) {
    ByteWriter w;
    int which = trial % 3;
    if (which == 0) {  // oversized report
      Bytes report(net::kMaxReportBytes + 1 + rng.next_below(100));
      w.blob16(report);
      w.u8(0);
    } else if (which == 1) {  // oversized id field
      w.blob16(Bytes{});
      w.u8(1);
      Bytes id(net::kMaxIdFieldBytes + 1 + rng.next_below(100));
      w.blob16(id);
      w.blob16(Bytes{});
    } else {  // trailing garbage after a valid image
      w.blob16(Bytes{0x01});
      w.u8(0);
      w.u8(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    EXPECT_FALSE(net::decode_packet(w.bytes()).has_value()) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace pnm
