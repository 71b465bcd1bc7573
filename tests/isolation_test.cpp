// Isolation-protocol tests: authenticated revocation orders, forgery and
// replay rejection, and the end-to-end effect — a revoked mole's traffic dies
// at its first honest neighbor.
#include <gtest/gtest.h>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/simulator.h"
#include "sink/isolation.h"

namespace pnm::sink {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

class IsolationFixture : public ::testing::Test {
 protected:
  IsolationFixture()
      : topo_(net::Topology::chain(6)),
        keys_(str_bytes("iso-master"), topo_.node_count()),
        authority_(keys_) {}

  NeighborBlacklist blacklist_for(NodeId v) {
    return NeighborBlacklist(v, keys_.key_unchecked(v));
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  IsolationAuthority authority_;
};

TEST_F(IsolationFixture, OrdersMintedPerNeighbor) {
  auto orders = authority_.revoke(4, topo_);
  ASSERT_EQ(orders.size(), 2u);  // chain: neighbors 3 and 5
  EXPECT_EQ(orders[0].revoked, 4);
  EXPECT_NE(orders[0].addressee, orders[1].addressee);
  EXPECT_EQ(authority_.epoch(), 1u);
}

TEST_F(IsolationFixture, AddresseeAcceptsAndBlocks) {
  auto orders = authority_.revoke(4, topo_);
  for (const auto& order : orders) {
    NeighborBlacklist bl = blacklist_for(order.addressee);
    EXPECT_TRUE(bl.accept(order));
    EXPECT_TRUE(bl.blocked(4));
    EXPECT_FALSE(bl.blocked(3));
  }
}

TEST_F(IsolationFixture, WrongAddresseeRejects) {
  auto orders = authority_.revoke(4, topo_);
  NeighborBlacklist other = blacklist_for(1);
  EXPECT_FALSE(other.accept(orders[0]));  // addressed to 3 or 5, not 1
  EXPECT_EQ(other.size(), 0u);
}

TEST_F(IsolationFixture, ForgedOrderRejected) {
  // A mole (knowing only its own key) cannot revoke an innocent node.
  auto orders = authority_.revoke(4, topo_);
  RevocationOrder forged = orders[0];
  forged.revoked = 2;  // frame node 2 instead
  NeighborBlacklist bl = blacklist_for(forged.addressee);
  EXPECT_FALSE(bl.accept(forged));

  RevocationOrder tampered = orders[0];
  tampered.mac[0] ^= 1;
  EXPECT_FALSE(bl.accept(tampered));
  EXPECT_EQ(bl.size(), 0u);
}

TEST_F(IsolationFixture, ReplayedEpochRejected) {
  auto first = authority_.revoke(4, topo_);
  auto second = authority_.revoke(2, topo_);
  // Node 3 is a neighbor of both 4 and 2 on the chain.
  NeighborBlacklist bl = blacklist_for(3);
  RevocationOrder* for3_first = nullptr;
  RevocationOrder* for3_second = nullptr;
  for (auto& o : first)
    if (o.addressee == 3) for3_first = &o;
  for (auto& o : second)
    if (o.addressee == 3) for3_second = &o;
  ASSERT_NE(for3_first, nullptr);
  ASSERT_NE(for3_second, nullptr);

  EXPECT_TRUE(bl.accept(*for3_second));   // epoch 2 first
  EXPECT_FALSE(bl.accept(*for3_first));   // epoch 1 now stale
  EXPECT_TRUE(bl.blocked(2));
  EXPECT_FALSE(bl.blocked(4));
  // Replaying the accepted order is also rejected.
  EXPECT_FALSE(bl.accept(*for3_second));
}

TEST_F(IsolationFixture, WireRoundTripAndMalformedRejected) {
  auto orders = authority_.revoke(4, topo_);
  Bytes wire = orders[0].encode();
  auto decoded = RevocationOrder::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->revoked, orders[0].revoked);
  EXPECT_EQ(decoded->mac, orders[0].mac);

  wire.pop_back();
  EXPECT_FALSE(RevocationOrder::decode(wire).has_value());
  EXPECT_FALSE(RevocationOrder::decode(Bytes{}).has_value());
}

TEST_F(IsolationFixture, RevokedMoleTrafficDiesAtFirstHonestNeighbor) {
  net::RoutingTable routing(topo_, net::RoutingStrategy::kTree);
  net::Simulator sim(topo_, routing, net::LinkModel{}, net::EnergyModel{}, 112);

  // Distribute blacklists to all nodes; deliver the revocation of node 7
  // (the source mole at the end of the chain).
  NodeId mole = 7;
  std::vector<NeighborBlacklist> blacklists;
  blacklists.reserve(topo_.node_count());
  for (NodeId v = 0; v < topo_.node_count(); ++v) blacklists.push_back(blacklist_for(v));
  for (const auto& order : authority_.revoke(mole, topo_))
    EXPECT_TRUE(blacklists[order.addressee].accept(order));

  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, {});
  for (NodeId v = 1; v <= 6; ++v) {
    Rng node_rng(200 + v);
    sim.set_node_handler(v, [&, v, node_rng](net::Packet& p, NodeId self) mutable {
      if (blacklists[self].blocked(p.arrived_from)) return false;
      scheme->mark(p, self, keys_.key_unchecked(self), node_rng);
      return true;
    });
  }
  std::size_t delivered = 0;
  sim.set_sink_handler([&](net::Packet&&, double) { ++delivered; });

  // The revoked mole keeps injecting: everything dies at node 6.
  for (std::uint32_t i = 0; i < 20; ++i) {
    net::Packet p;
    p.report = net::Report{i, 7, 0, i}.encode();
    p.true_source = mole;
    p.bogus = true;
    sim.inject(mole, std::move(p));
  }
  // An innocent node's traffic still flows.
  for (std::uint32_t i = 0; i < 5; ++i) {
    net::Packet p;
    p.report = net::Report{1000 + i, 4, 0, i}.encode();
    p.true_source = 4;
    sim.inject(4, std::move(p));
  }
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(delivered, 5u);  // only the innocent's packets arrive
  EXPECT_EQ(sim.packets_dropped_by_nodes(), 20u);
}

}  // namespace
}  // namespace pnm::sink
