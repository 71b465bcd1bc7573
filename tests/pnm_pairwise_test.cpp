// Tests for the pairwise neighbor-authentication extension: claims resolve,
// lies are bounded to the liar's own neighbor set, and traceback precision
// sharpens from a neighborhood to a pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "attack/attacks.h"
#include "core/protocol.h"
#include "crypto/pairwise.h"
#include "marking/pnm_pairwise.h"
#include "net/routing.h"
#include "net/simulator.h"
#include "sink/traceback.h"

namespace pnm::marking {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(PairwiseKeys, SymmetricDistinctDeterministic) {
  crypto::PairwiseKeys pk(str_bytes("pair-master"));
  EXPECT_EQ(pk.key(3, 7), pk.key(7, 3));
  EXPECT_NE(pk.key(3, 7), pk.key(3, 8));
  EXPECT_NE(pk.key(3, 7), pk.key(4, 7));
  EXPECT_EQ(pk.key(3, 7).size(), crypto::kKeySize);
  crypto::PairwiseKeys other(str_bytes("other-master"));
  EXPECT_NE(pk.key(3, 7), other.key(3, 7));
}

class PairwiseFixture : public ::testing::Test {
 protected:
  PairwiseFixture()
      : topo_(net::Topology::chain(8)),
        keys_(str_bytes("pw-master"), topo_.node_count()),
        pair_keys_(str_bytes("pw-master-pair")),
        rng_(777) {
    SchemeConfig cfg;
    cfg.mark_probability = 1.0;
    scheme_ = std::make_unique<PnmPairwise>(cfg, pair_keys_, topo_);
  }

  /// Simulates forwarding along the chain: marks carry true arrived_from.
  net::Packet forwarded_packet(std::uint32_t event) {
    net::Packet p;
    p.report = net::Report{event, 1, 1, event}.encode();
    p.true_source = 9;
    // Path 9 -> 8 -> ... -> 1 -> sink; node v receives from v+1.
    for (NodeId v = 8; v >= 1; --v) {
      p.arrived_from = static_cast<NodeId>(v + 1);
      scheme_->mark(p, v, keys_.key_unchecked(v), rng_);
    }
    p.delivered_by = 1;
    return p;
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  crypto::PairwiseKeys pair_keys_;
  Rng rng_;
  std::unique_ptr<PnmPairwise> scheme_;
};

TEST_F(PairwiseFixture, ChainVerifiesAndClaimsResolve) {
  net::Packet p = forwarded_packet(1);
  auto vr = scheme_->verify(p, keys_);
  ASSERT_EQ(vr.chain.size(), 8u);
  EXPECT_EQ(vr.chain.front().node, 8);

  auto claims = scheme_->resolve_claims(p, vr);
  ASSERT_EQ(claims.size(), 8u);
  for (const auto& claim : claims) {
    EXPECT_EQ(claim.received_from, static_cast<NodeId>(claim.node + 1))
        << "node " << claim.node;
  }
}

TEST_F(PairwiseFixture, PairSuspectsPinSourceExactly) {
  net::Packet p = forwarded_packet(2);
  auto vr = scheme_->verify(p, keys_);
  auto claims = scheme_->resolve_claims(p, vr);
  // Stop node is V1 = node 8; its claim names the true source, node 9.
  auto pair = scheme_->pair_suspects(8, claims);
  EXPECT_EQ(pair, (std::vector<NodeId>{8, 9}));
  // Plain PNM would have suspected {7, 8, 9}: the pair is strictly sharper.
  EXPECT_LT(pair.size(), topo_.closed_neighborhood(8).size());
}

TEST_F(PairwiseFixture, TamperedTagInvalidatesTheMark) {
  // Flip a bit in one mark's claim tag in transit, at every position, before
  // the nodes downstream add theirs: the nested MAC covers the whole
  // id_field, so that mark fails and the backward pass stops there. Only the
  // marks added after it verify.
  for (std::size_t pos = 0; pos < 8; ++pos) {
    SCOPED_TRACE("tampered mark " + std::to_string(pos));
    net::Packet p;
    p.report = net::Report{3, 1, 1, 3}.encode();
    for (NodeId v = 8; v >= 1; --v) {
      p.arrived_from = static_cast<NodeId>(v + 1);
      scheme_->mark(p, v, keys_.key_unchecked(v), rng_);
      if (p.marks.size() == pos + 1) p.marks.back().id_field.back() ^= 1;
    }
    auto vr = scheme_->verify(p, keys_);
    EXPECT_TRUE(vr.truncated_by_invalid);
    EXPECT_EQ(vr.invalid_marks, pos + 1);
    ASSERT_EQ(vr.chain.size(), 8 - pos - 1);
    for (std::size_t i = 0; i < vr.chain.size(); ++i) {
      EXPECT_EQ(vr.chain[i].mark_index, pos + 1 + i);
      EXPECT_EQ(vr.chain[i].node, static_cast<NodeId>(8 - (pos + 1 + i)));
    }
  }
}

TEST_F(PairwiseFixture, MoleCanOnlyClaimItsOwnNeighbors) {
  // A mole at node 5 forges a claim naming node 2 (not its neighbor). It
  // lacks k_{5,2}? No — in our derivation it could compute it, but the SINK
  // only accepts claims over radio neighbors, so the forged tag resolves to
  // nothing and the suspects fall back to the neighborhood.
  net::Packet p;
  p.report = net::Report{4, 1, 1, 4}.encode();
  p.arrived_from = 2;  // lie: claims it heard the packet from node 2
  scheme_->mark(p, 5, keys_.key_unchecked(5), rng_);
  auto vr = scheme_->verify(p, keys_);
  ASSERT_EQ(vr.chain.size(), 1u);
  auto claims = scheme_->resolve_claims(p, vr);
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims[0].received_from, kInvalidNode);  // non-neighbor: rejected
  auto suspects = scheme_->pair_suspects(5, claims);
  EXPECT_EQ(suspects, topo_.closed_neighborhood(5));  // graceful fallback
}

TEST_F(PairwiseFixture, LyingMoleImplicatesItself) {
  // Mole at node 5 claims it received from node 6 — but 6 never actually
  // sent it (the mole originated the flow). The claim RESOLVES (5 and 6 are
  // neighbors and the mole holds k_{5,6}); the pair is {5, 6} and contains
  // the mole itself. A lie never moves BOTH suspects off the moles.
  net::Packet p;
  p.report = net::Report{5, 1, 1, 5}.encode();
  p.arrived_from = 6;
  scheme_->mark(p, 5, keys_.key_unchecked(5), rng_);
  auto vr = scheme_->verify(p, keys_);
  auto claims = scheme_->resolve_claims(p, vr);
  auto suspects = scheme_->pair_suspects(5, claims);
  EXPECT_EQ(suspects, (std::vector<NodeId>{5, 6}));
  EXPECT_NE(std::find(suspects.begin(), suspects.end(), NodeId{5}), suspects.end());
}

TEST_F(PairwiseFixture, ProbabilisticMarkingStillWorks) {
  SchemeConfig cfg;
  cfg.mark_probability = 0.4;
  PnmPairwise prob(cfg, pair_keys_, topo_);
  std::size_t total = 0;
  for (std::uint32_t e = 0; e < 300; ++e) {
    net::Packet p;
    p.report = net::Report{e, 1, 1, e}.encode();
    for (NodeId v = 8; v >= 1; --v) {
      p.arrived_from = static_cast<NodeId>(v + 1);
      prob.mark(p, v, keys_.key_unchecked(v), rng_);
    }
    auto vr = prob.verify(p, keys_);
    EXPECT_EQ(vr.chain.size(), p.marks.size());
    auto claims = prob.resolve_claims(p, vr);
    for (const auto& claim : claims)
      EXPECT_EQ(claim.received_from, static_cast<NodeId>(claim.node + 1));
    total += p.marks.size();
  }
  EXPECT_NEAR(static_cast<double>(total) / 300.0, 3.2, 0.35);  // 8 * 0.4
}

TEST_F(PairwiseFixture, EndToEndThroughSimulatorPinsThePair) {
  // Full pipeline: simulator fills arrived_from, traceback stops at V1,
  // pairwise claims upgrade the neighborhood to the exact pair {V1, S}.
  net::RoutingTable routing(topo_, net::RoutingStrategy::kTree);
  SchemeConfig cfg;
  cfg.mark_probability = 0.4;
  PnmPairwise scheme(cfg, pair_keys_, topo_);

  net::Simulator sim(topo_, routing, net::LinkModel{}, net::EnergyModel{}, 4242);
  for (NodeId v = 1; v <= 8; ++v) {
    Rng node_rng(100 + v);
    sim.set_node_handler(v, [&, node_rng](net::Packet& p, NodeId self) mutable {
      scheme.mark(p, self, keys_.key_unchecked(self), node_rng);
      return true;
    });
  }

  sink::TracebackEngine engine(scheme, keys_, topo_);
  std::vector<NodeId> claimed_upstreams_of_v1;
  sim.set_sink_handler([&](net::Packet&& p, double) {
    auto vr = engine.ingest(p);
    for (const auto& claim : scheme.resolve_claims(p, vr))
      if (claim.node == 8 && claim.received_from != kInvalidNode)
        claimed_upstreams_of_v1.push_back(claim.received_from);
  });

  net::BogusReportFactory factory(9, 0);
  for (int i = 0; i < 120; ++i) {
    net::Packet p;
    p.report = factory.next().encode();
    p.true_source = 9;
    p.bogus = true;
    sim.inject(9, std::move(p));
  }
  ASSERT_TRUE(sim.run());

  ASSERT_TRUE(engine.analysis().identified);
  EXPECT_EQ(engine.analysis().stop_node, 8);
  ASSERT_FALSE(claimed_upstreams_of_v1.empty());
  for (NodeId claimed : claimed_upstreams_of_v1) EXPECT_EQ(claimed, 9);
}

TEST_F(PairwiseFixture, SurvivesBlindRemovalAttackLikePlainPnm) {
  // The pairwise extension must not weaken the base scheme: a blind-removal
  // forwarding mole is still cornered, and the pair refinement still applies
  // at whatever stop node results.
  net::RoutingTable routing(topo_, net::RoutingStrategy::kTree);
  SchemeConfig cfg;
  cfg.mark_probability = 0.4;
  PnmPairwise scheme(cfg, pair_keys_, topo_);

  NodeId source = 9;
  attack::Scenario scenario;
  scenario.source = source;
  scenario.forwarder = 5;
  scenario.moles = {source, 5};
  scenario.source_mole = std::make_unique<attack::PlainSourceMole>(source, 9, 0);
  scenario.forwarder_mole =
      std::make_unique<attack::RemovalMole>(attack::RemovalPolicy::kFirstK, 2);

  crypto::KeyStore keys(str_bytes("pw-master"), topo_.node_count());
  net::Simulator sim(topo_, routing, net::LinkModel{}, net::EnergyModel{}, 888);
  core::Deployment deployment(sim, scheme, keys, scenario, 889);
  deployment.install();

  sink::TracebackEngine engine(scheme, keys, topo_);
  std::vector<NeighborClaim> stop_claims;
  sim.set_sink_handler([&](net::Packet&& p, double) {
    auto vr = engine.ingest(p);
    for (const auto& claim : scheme.resolve_claims(p, vr)) stop_claims.push_back(claim);
  });
  for (int i = 0; i < 300; ++i) deployment.inject_bogus();
  ASSERT_TRUE(sim.run());

  ASSERT_TRUE(engine.analysis().identified);
  // Chains truncate at the mole: stop is its downstream neighbor, node 4.
  EXPECT_EQ(engine.analysis().stop_node, 4);
  auto pair = scheme.pair_suspects(4, stop_claims);
  EXPECT_EQ(pair, (std::vector<NodeId>{4, 5}));  // pins the mole exactly
}

TEST_F(PairwiseFixture, BlindToSelectiveDropLikePlainPnm) {
  // Claims are tags under pairwise keys, not plaintext IDs: a dropping mole
  // still cannot attribute marks, so targeted filtering remains impossible.
  SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  PnmPairwise scheme(cfg, pair_keys_, topo_);
  EXPECT_FALSE(scheme.plaintext_ids());
  net::Packet p;
  p.report = net::Report{6, 1, 1, 6}.encode();
  p.arrived_from = 3;
  scheme.mark(p, 2, keys_.key_unchecked(2), rng_);
  // The wire image carries no decodable node ID.
  EXPECT_EQ(p.marks[0].id_field.size(), cfg.anon_len + scheme.claim_len());
}

}  // namespace
}  // namespace pnm::marking
