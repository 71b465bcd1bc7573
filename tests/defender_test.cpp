// Defender façade tests: the composed sink-side stack end to end — screening,
// replay quarantine, per-flow tracing, stable-identification catches, and
// revocation minting.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/defender.h"
#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/simulator.h"

namespace pnm::core {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

class DefenderFixture : public ::testing::Test {
 protected:
  DefenderFixture()
      : topo_(net::Topology::chain(8)),
        keys_(str_bytes("defender-master"), topo_.node_count()),
        rng_(5150) {
    marking::SchemeConfig cfg;
    cfg.mark_probability = 0.4;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  }

  Defender make_defender(std::vector<NodeId> moles, std::size_t window = 5) {
    DefenderConfig cfg;
    cfg.stability_window = window;
    return Defender(cfg, *scheme_, keys_, topo_, [moles](NodeId n) {
      return std::find(moles.begin(), moles.end(), n) != moles.end();
    });
  }

  /// A bogus packet marked along the chain (source = node 9).
  net::Packet bogus_packet(std::uint32_t event) {
    net::Packet p;
    p.report = net::Report{0xBAD00000u | event, 9, 0, event}.encode();
    p.true_source = 9;
    p.bogus = true;
    for (NodeId v = 8; v >= 1; --v) scheme_->mark(p, v, keys_.key_unchecked(v), rng_);
    p.delivered_by = 1;
    return p;
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  Rng rng_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST_F(DefenderFixture, LegitimateTrafficPassesUntraced) {
  Defender defender = make_defender({9});
  defender.register_event(42);
  net::Packet legit;
  legit.report = net::Report{42, 3, 3, 1}.encode();
  auto [disposition, catch_event] = defender.on_packet(legit);
  EXPECT_EQ(disposition, PacketDisposition::kLegitimate);
  EXPECT_FALSE(catch_event.has_value());
  EXPECT_EQ(defender.legitimate_seen(), 1u);
  EXPECT_EQ(defender.suspicious_traced(), 0u);
}

TEST_F(DefenderFixture, MalformedAndReplaysQuarantined) {
  Defender defender = make_defender({9});
  net::Packet junk;
  junk.report = Bytes{1, 2};
  EXPECT_EQ(defender.on_packet(junk).first, PacketDisposition::kMalformed);

  net::Packet p = bogus_packet(1);
  EXPECT_EQ(defender.on_packet(p).first, PacketDisposition::kTraced);
  EXPECT_EQ(defender.on_packet(p).first, PacketDisposition::kReplay);
  EXPECT_EQ(defender.replays_blocked(), 1u);
}

TEST_F(DefenderFixture, StableIdentificationTriggersCatchWithRevocations) {
  Defender defender = make_defender({9}, /*window=*/5);
  std::optional<CatchEvent> caught;
  for (std::uint32_t e = 0; e < 50 && !caught; ++e) {
    auto [disposition, event] = defender.on_packet(bogus_packet(e));
    EXPECT_EQ(disposition, PacketDisposition::kTraced);
    caught = event;
  }
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(caught->mole, 9);
  EXPECT_GE(caught->inspections, 1u);
  // Revocations minted for the mole's radio neighbors (node 8 only: 9 is
  // the chain's end, its other neighbor is nothing).
  ASSERT_EQ(caught->revocations.size(), 1u);
  EXPECT_EQ(caught->revocations[0].revoked, 9);
  EXPECT_EQ(caught->revocations[0].addressee, 8);
  EXPECT_EQ(defender.catches().size(), 1u);
  EXPECT_TRUE(defender.already_caught(9));
}

TEST_F(DefenderFixture, StabilityWindowDelaysDispatch) {
  Defender eager = make_defender({9}, 1);
  Defender patient = make_defender({9}, 25);
  std::size_t eager_at = 0, patient_at = 0;
  for (std::uint32_t e = 0; e < 120; ++e) {
    net::Packet p = bogus_packet(1000 + e);
    if (!eager_at && eager.on_packet(p).second) eager_at = e + 1;
    if (!patient_at && patient.on_packet(p).second) patient_at = e + 1;
  }
  ASSERT_GT(eager_at, 0u);
  ASSERT_GT(patient_at, 0u);
  EXPECT_LT(eager_at, patient_at);
  EXPECT_GE(patient_at, 25u);
}

TEST_F(DefenderFixture, InnocentNeighborhoodDoesNotEndTheHunt) {
  // Oracle says nobody is a mole: the defender pays inspections but keeps
  // tracing rather than declaring victory.
  Defender defender = make_defender({}, 3);
  for (std::uint32_t e = 0; e < 40; ++e) {
    auto [disposition, event] = defender.on_packet(bogus_packet(2000 + e));
    EXPECT_EQ(disposition, PacketDisposition::kTraced);
    EXPECT_FALSE(event.has_value());
  }
  EXPECT_TRUE(defender.catches().empty());
}

TEST_F(DefenderFixture, TwoFlowsCaughtIndependently) {
  // Mole 9 injects with origin (9,0); a second forged flow claims (5,5) and
  // carries no valid marks — its traceback cannot complete, and the first
  // flow is unaffected.
  Defender defender = make_defender({9}, 5);
  std::optional<CatchEvent> caught;
  for (std::uint32_t e = 0; e < 60; ++e) {
    if (auto event = defender.on_packet(bogus_packet(3000 + e)).second) caught = event;
    net::Packet other;
    other.report = net::Report{0xBAD10000u | e, 5, 5, e}.encode();
    other.bogus = true;
    auto [disposition, event] = defender.on_packet(other);
    EXPECT_EQ(disposition, PacketDisposition::kTraced);
    EXPECT_FALSE(event.has_value());
    if (caught) break;
  }
  ASSERT_TRUE(caught.has_value());
  EXPECT_EQ(caught->mole, 9);
  EXPECT_EQ(defender.flows().flow_count(), 2u);
}

TEST_F(DefenderFixture, EndToEndThroughSimulatorWithRevocationEnforcement) {
  net::RoutingTable routing(topo_, net::RoutingStrategy::kTree);
  net::Simulator sim(topo_, routing, net::LinkModel{}, net::EnergyModel{}, 611);

  std::vector<sink::NeighborBlacklist> blacklists;
  for (NodeId v = 0; v < topo_.node_count(); ++v)
    blacklists.emplace_back(v, keys_.key_unchecked(v));

  for (NodeId v = 1; v <= 8; ++v) {
    Rng node_rng(400 + v);
    sim.set_node_handler(v, [&, node_rng](net::Packet& p, NodeId self) mutable {
      if (blacklists[self].blocked(p.arrived_from)) return false;
      scheme_->mark(p, self, keys_.key_unchecked(self), node_rng);
      return true;
    });
  }

  Defender defender = make_defender({9}, 5);
  std::size_t bogus_before_catch = 0;
  bool caught = false;
  sim.set_sink_handler([&](net::Packet&& p, double) {
    auto [disposition, event] = defender.on_packet(p);
    if (disposition == PacketDisposition::kTraced && !caught) ++bogus_before_catch;
    if (event) {
      caught = true;
      // Flood the revocation orders (modeled as reliable out-of-band control).
      for (const auto& order : event->revocations)
        EXPECT_TRUE(blacklists[order.addressee].accept(order));
    }
  });

  net::BogusReportFactory factory(9, 0);
  std::size_t injected = 0;
  std::function<void()> pump = [&]() {
    net::Packet p;
    p.report = factory.next().encode();
    p.true_source = 9;
    p.bogus = true;
    sim.inject(9, std::move(p));
    if (++injected < 200) sim.schedule(0.03, pump);
  };
  sim.schedule(0.0, pump);
  ASSERT_TRUE(sim.run());

  ASSERT_TRUE(caught);
  EXPECT_EQ(defender.catches()[0].mole, 9);
  // After the catch, node 8 blackholes everything from 9: traced count stops
  // growing even though the mole kept injecting.
  EXPECT_LT(bogus_before_catch, 120u);
  EXPECT_GT(sim.packets_dropped_by_nodes(), 0u);
}

}  // namespace
}  // namespace pnm::core
