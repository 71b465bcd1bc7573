// Network substrate tests: reports, topologies, routing, link/energy models,
// and the discrete-event simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>

#include "crypto/sha256.h"
#include "net/energy.h"
#include "net/link.h"
#include "net/report.h"
#include "net/routing.h"
#include "net/simulator.h"
#include "net/topology.h"

namespace pnm::net {
namespace {

// --------------------------------------------------------------- reports

TEST(Report, EncodeDecodeRoundTrip) {
  Report r{0xdeadbeef, 12, 34, 567890};
  auto decoded = Report::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(Report, DecodeRejectsTruncated) {
  Report r{1, 2, 3, 4};
  Bytes enc = r.encode();
  enc.pop_back();
  EXPECT_FALSE(Report::decode(enc).has_value());
}

TEST(Report, DecodeRejectsTrailingGarbage) {
  Bytes enc = Report{1, 2, 3, 4}.encode();
  enc.push_back(0);
  EXPECT_FALSE(Report::decode(enc).has_value());
}

TEST(BogusReportFactory, DistinctContent) {
  BogusReportFactory f(10, 20);
  std::set<std::uint32_t> events;
  for (int i = 0; i < 100; ++i) {
    Report r = f.next();
    events.insert(r.event);
    EXPECT_EQ(r.loc_x, 10);
    EXPECT_EQ(r.loc_y, 20);
  }
  EXPECT_EQ(events.size(), 100u);  // §2.3: bogus reports must vary
}

TEST(Packet, WireSizeCountsMarksAndFraming) {
  Packet p;
  p.report = Bytes(16, 0);
  EXPECT_EQ(p.wire_size(), 16u);
  p.marks.push_back(Mark{Bytes(2, 0), Bytes(4, 0)});
  EXPECT_EQ(p.wire_size(), 16u + 2 + 2 + 4);
}

TEST(Packet, SameWireIgnoresGroundTruth) {
  Packet a, b;
  a.report = b.report = Bytes{1, 2, 3};
  a.true_source = 5;
  b.true_source = 9;
  a.seq = 1;
  b.seq = 2;
  EXPECT_TRUE(a.same_wire(b));
  b.marks.push_back(Mark{{1}, {2}});
  EXPECT_FALSE(a.same_wire(b));
}

// ------------------------------------------------------------ topologies

TEST(Topology, ChainStructure) {
  Topology t = Topology::chain(5);
  EXPECT_EQ(t.node_count(), 7u);  // sink + 5 forwarders + source
  EXPECT_TRUE(t.connected());
  // Only adjacent nodes are neighbors.
  EXPECT_TRUE(t.are_neighbors(0, 1));
  EXPECT_TRUE(t.are_neighbors(5, 6));
  EXPECT_FALSE(t.are_neighbors(0, 2));
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(3), 2u);
}

TEST(Topology, ClosedNeighborhoodIncludesSelf) {
  Topology t = Topology::chain(5);
  auto nbhd = t.closed_neighborhood(3);
  EXPECT_EQ(nbhd, (std::vector<NodeId>{2, 3, 4}));
}

TEST(Topology, GridStructure) {
  Topology t = Topology::grid(4, 3, 1.1);
  EXPECT_EQ(t.node_count(), 12u);
  EXPECT_TRUE(t.connected());
  // Corner has 2 neighbors (range 1.1 excludes diagonals), interior has 4.
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(5), 4u);  // (1,1)
}

TEST(Topology, GridWithDiagonalRange) {
  Topology t = Topology::grid(3, 3, 1.5);
  EXPECT_EQ(t.degree(4), 8u);  // center reaches all 8 surrounding cells
}

TEST(Topology, RandomGeometricConnected) {
  Rng rng(99);
  Topology t = Topology::random_geometric(60, 10.0, 2.5, rng);
  EXPECT_EQ(t.node_count(), 60u);
  EXPECT_TRUE(t.connected());
  // Sink pinned at center.
  EXPECT_DOUBLE_EQ(t.position(kSinkId).x, 5.0);
  EXPECT_DOUBLE_EQ(t.position(kSinkId).y, 5.0);
}

TEST(Topology, NeighborRelationSymmetric) {
  Rng rng(7);
  Topology t = Topology::random_geometric(40, 8.0, 2.5, rng);
  for (NodeId a = 0; a < t.node_count(); ++a)
    for (NodeId b : t.neighbors(a)) EXPECT_TRUE(t.are_neighbors(b, a));
}

// --------------------------------------------------------------- routing

TEST(Routing, ChainTreeRouting) {
  Topology t = Topology::chain(5);
  RoutingTable rt(t, RoutingStrategy::kTree);
  EXPECT_EQ(rt.next_hop(1), kSinkId);
  EXPECT_EQ(rt.next_hop(6), 5);
  EXPECT_EQ(rt.next_hop(kSinkId), kInvalidNode);
  EXPECT_EQ(rt.hops_to_sink(6), 6u);
  auto path = rt.path_to_sink(6);
  EXPECT_EQ(path, (std::vector<NodeId>{6, 5, 4, 3, 2, 1, 0}));
}

TEST(Routing, GeographicMatchesChain) {
  Topology t = Topology::chain(4);
  RoutingTable rt(t, RoutingStrategy::kGeographic);
  EXPECT_EQ(rt.path_to_sink(5), (std::vector<NodeId>{5, 4, 3, 2, 1, 0}));
}

TEST(Routing, GridRoutesEveryNode) {
  Topology t = Topology::grid(6, 6, 1.1);
  for (RoutingStrategy strat : {RoutingStrategy::kTree, RoutingStrategy::kGeographic}) {
    RoutingTable rt(t, strat);
    for (NodeId v = 1; v < t.node_count(); ++v) {
      EXPECT_TRUE(rt.has_route(v));
      EXPECT_NE(rt.hops_to_sink(v), SIZE_MAX);
    }
  }
}

TEST(Routing, GeographicNeverLongerThanTwiceBfs) {
  Rng rng(3);
  Topology t = Topology::random_geometric(80, 10.0, 2.2, rng);
  RoutingTable tree(t, RoutingStrategy::kTree);
  RoutingTable geo(t, RoutingStrategy::kGeographic);
  for (NodeId v = 1; v < t.node_count(); ++v) {
    ASSERT_TRUE(geo.has_route(v));
    std::size_t g = geo.hops_to_sink(v);
    std::size_t b = tree.hops_to_sink(v);
    ASSERT_NE(g, SIZE_MAX);
    EXPECT_LE(g, 2 * b + 4);  // greedy is near-shortest on dense fields
  }
}

TEST(Routing, ExclusionRoutesAround) {
  Topology t = Topology::grid(5, 5, 1.1);
  std::vector<bool> excluded(t.node_count(), false);
  excluded[1] = true;  // (1,0), on the straight path from (4,0)
  RoutingTable rt(t, RoutingStrategy::kTree, excluded);
  EXPECT_FALSE(rt.has_route(1));
  auto path = rt.path_to_sink(4);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(std::count(path.begin(), path.end(), NodeId{1}), 0);
}

TEST(Routing, ExclusionCanDisconnect) {
  Topology t = Topology::chain(3);
  std::vector<bool> excluded(t.node_count(), false);
  excluded[2] = true;  // middle of the chain
  RoutingTable rt(t, RoutingStrategy::kTree, excluded);
  EXPECT_FALSE(rt.has_route(4));
  EXPECT_TRUE(rt.path_to_sink(4).empty());
  EXPECT_EQ(rt.hops_to_sink(4), SIZE_MAX);
  EXPECT_TRUE(rt.has_route(1));
}

// ------------------------------------------------------------ link model

TEST(LinkModel, Mica2Timing) {
  LinkModel link;
  // 48 bytes at 19.2 kbps = 20 ms serialization.
  EXPECT_NEAR(link.tx_time_s(48), 0.020, 1e-9);
  EXPECT_NEAR(link.hop_latency_s(48), 0.021, 1e-9);
}

TEST(LinkModel, LossRate) {
  LinkModel link;
  link.loss_probability = 0.25;
  Rng rng(5);
  int delivered = 0;
  for (int i = 0; i < 100000; ++i)
    if (link.delivers(rng)) ++delivered;
  EXPECT_NEAR(delivered / 100000.0, 0.75, 0.01);
}

// ---------------------------------------------------------------- energy

TEST(EnergyLedger, AccountsPerNode) {
  EnergyLedger ledger(3, EnergyModel{16.0, 12.0, 15.0});
  ledger.on_transmit(1, 100);
  ledger.on_receive(2, 100);
  EXPECT_EQ(ledger.tx_bytes(1), 100u);
  EXPECT_EQ(ledger.rx_bytes(2), 100u);
  EXPECT_DOUBLE_EQ(ledger.node_energy_uj(1), 1600.0);
  EXPECT_DOUBLE_EQ(ledger.node_energy_uj(2), 1200.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_uj(), 2800.0);
  EXPECT_EQ(ledger.total_bytes(), 200u);
  ledger.reset();
  EXPECT_DOUBLE_EQ(ledger.total_energy_uj(), 0.0);
}

TEST(EnergyLedger, ComputeCostCharged) {
  EnergyLedger ledger(2, EnergyModel{16.0, 12.0, 15.0});
  ledger.on_compute(1, 4);
  EXPECT_EQ(ledger.hashes(1), 4u);
  EXPECT_DOUBLE_EQ(ledger.node_cpu_energy_uj(1), 60.0);
  EXPECT_DOUBLE_EQ(ledger.node_energy_uj(1), 60.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_uj(), 60.0);
  ledger.reset();
  EXPECT_EQ(ledger.hashes(1), 0u);
}

// ------------------------------------------------------------- simulator

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : topo_(Topology::chain(4)),
        routing_(topo_, RoutingStrategy::kTree),
        sim_(topo_, routing_, LinkModel{}, EnergyModel{}, 1234) {}

  Packet make_packet(std::uint32_t seq = 0) {
    Packet p;
    p.report = Report{1, 2, 3, 4}.encode();
    p.true_source = 5;
    p.seq = seq;
    return p;
  }

  Topology topo_;
  RoutingTable routing_;
  Simulator sim_;
};

TEST_F(SimulatorTest, DeliversEndToEnd) {
  std::size_t delivered = 0;
  NodeId last_hop = kInvalidNode;
  sim_.set_sink_handler([&](Packet&& p, double) {
    ++delivered;
    last_hop = p.delivered_by;
  });
  sim_.inject(5, make_packet());
  EXPECT_TRUE(sim_.run());
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(last_hop, 1);  // V1 hands it to the sink
  EXPECT_EQ(sim_.packets_delivered(), 1u);
}

TEST_F(SimulatorTest, HandlersRunAtEachForwarder) {
  std::vector<NodeId> visited;
  for (NodeId v = 1; v <= 4; ++v) {
    sim_.set_node_handler(v, [&visited](Packet&, NodeId self) {
      visited.push_back(self);
      return true;
    });
  }
  sim_.set_sink_handler([](Packet&&, double) {});
  sim_.inject(5, make_packet());
  sim_.run();
  EXPECT_EQ(visited, (std::vector<NodeId>{4, 3, 2, 1}));
}

TEST_F(SimulatorTest, NodeDropStopsPacket) {
  sim_.set_node_handler(3, [](Packet&, NodeId) { return false; });
  std::size_t delivered = 0;
  sim_.set_sink_handler([&](Packet&&, double) { ++delivered; });
  sim_.inject(5, make_packet());
  sim_.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(sim_.packets_dropped_by_nodes(), 1u);
}

TEST_F(SimulatorTest, LatencyAccumulatesPerHop) {
  double arrival = -1.0;
  sim_.set_sink_handler([&](Packet&&, double t) { arrival = t; });
  Packet p = make_packet();
  std::size_t bytes = p.wire_size();
  sim_.inject(5, std::move(p));
  sim_.run();
  LinkModel link;
  EXPECT_NEAR(arrival, 5 * link.hop_latency_s(bytes), 1e-9);
}

TEST_F(SimulatorTest, EnergyChargedOnEveryHop) {
  sim_.set_sink_handler([](Packet&&, double) {});
  Packet p = make_packet();
  std::size_t bytes = p.wire_size();
  sim_.inject(5, std::move(p));
  sim_.run();
  // 5 transmissions (nodes 5..1), 5 receptions (nodes 4..0).
  EXPECT_EQ(sim_.energy().tx_bytes(5), bytes);
  EXPECT_EQ(sim_.energy().tx_bytes(1), bytes);
  EXPECT_EQ(sim_.energy().rx_bytes(0), bytes);
  EXPECT_EQ(sim_.energy().rx_bytes(4), bytes);
  EXPECT_EQ(sim_.energy().tx_bytes(0), 0u);
}

TEST_F(SimulatorTest, IsolatedNodeBlackholes) {
  sim_.isolate(3);
  std::size_t delivered = 0;
  sim_.set_sink_handler([&](Packet&&, double) { ++delivered; });
  sim_.inject(5, make_packet());
  sim_.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_TRUE(sim_.is_isolated(3));
}

TEST_F(SimulatorTest, IsolatedOriginCannotInject) {
  sim_.isolate(5);
  std::size_t delivered = 0;
  sim_.set_sink_handler([&](Packet&&, double) { ++delivered; });
  sim_.inject(5, make_packet());
  sim_.run();
  EXPECT_EQ(delivered, 0u);
}

TEST_F(SimulatorTest, InjectionWithoutARouteIsCounted) {
  std::vector<bool> excluded(topo_.node_count(), false);
  excluded[3] = true;  // cuts node 5 (and 4) off from the sink
  RoutingTable cut(topo_, RoutingStrategy::kTree, excluded);
  sim_.set_routing(cut);
  sim_.inject(5, make_packet());
  sim_.run();
  EXPECT_EQ(sim_.packets_unroutable(), 1u);
  EXPECT_EQ(sim_.packets_delivered(), 0u);
  sim_.set_routing(routing_);
  sim_.inject(5, make_packet());
  sim_.run();
  EXPECT_EQ(sim_.packets_unroutable(), 1u);
  EXPECT_EQ(sim_.packets_delivered(), 1u);
}

TEST_F(SimulatorTest, ArrivalAtIsolatedNodeIsCountedDropped) {
  sim_.isolate(3);
  sim_.inject(5, make_packet());
  sim_.run();
  // The packet crossed 5→4, then died on arrival at the isolated node 3.
  EXPECT_EQ(sim_.packets_delivered(), 0u);
  EXPECT_EQ(sim_.packets_dropped_isolated(), 1u);
  EXPECT_EQ(sim_.packets_dropped_by_nodes(), 0u);
}

TEST_F(SimulatorTest, IsolationDrainsQueuedTransmissions) {
  // Three back-to-back injections: the radio serializes, so the first is on
  // the air immediately and two sit in node 5's transmit queue. Isolating 5
  // must discard the backlog — the regression here was that pump_tx never
  // checked isolated_, so a caught mole's queued packets still leaked out.
  sim_.inject(5, make_packet(1));
  sim_.inject(5, make_packet(2));
  sim_.inject(5, make_packet(3));
  sim_.isolate(5);
  EXPECT_EQ(sim_.packets_dropped_isolated(), 2u);
  sim_.run();
  // Only the in-flight packet completes the trip.
  EXPECT_EQ(sim_.packets_delivered(), 1u);
  EXPECT_EQ(sim_.packets_dropped_isolated(), 2u);
}

TEST_F(SimulatorTest, MidRunIsolationSilencesBacklog) {
  for (std::uint32_t s = 0; s < 4; ++s) sim_.inject(5, make_packet(s));
  // Cut node 5 off while its backlog is still serializing.
  sim_.schedule(0.0, [&] { sim_.isolate(5); });
  sim_.run();
  EXPECT_EQ(sim_.packets_delivered(), 1u);
  EXPECT_EQ(sim_.packets_dropped_isolated(), 3u);
}

TEST_F(SimulatorTest, ScheduledCallbacksFireInOrder) {
  std::vector<int> order;
  sim_.schedule(0.2, [&] { order.push_back(2); });
  sim_.schedule(0.1, [&] { order.push_back(1); });
  sim_.schedule(0.3, [&] { order.push_back(3); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_NEAR(sim_.now(), 0.3, 1e-12);
}

TEST_F(SimulatorTest, SimultaneousEventsFifo) {
  std::vector<int> order;
  sim_.schedule(0.1, [&] { order.push_back(1); });
  sim_.schedule(0.1, [&] { order.push_back(2); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(SimulatorTest, EventBudgetGuard) {
  // A self-rescheduling event never drains; run() must bail out.
  std::function<void()> forever = [&] { sim_.schedule(0.001, forever); };
  sim_.schedule(0.0, forever);
  EXPECT_FALSE(sim_.run(1000));
}

TEST_F(SimulatorTest, RadioSerializesBackToBackPackets) {
  // Two packets injected simultaneously: the second must wait for the
  // first's serialization time at every shared transmitter.
  std::vector<double> arrivals;
  sim_.set_sink_handler([&](Packet&&, double t) { arrivals.push_back(t); });
  Packet a = make_packet(), b = make_packet();
  std::size_t bytes = a.wire_size();
  sim_.inject(5, std::move(a));
  sim_.inject(5, std::move(b));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  LinkModel link;
  // First packet: 5 hop latencies. Second: pipelines one tx_time behind.
  EXPECT_NEAR(arrivals[0], 5 * link.hop_latency_s(bytes), 1e-9);
  EXPECT_NEAR(arrivals[1] - arrivals[0], link.tx_time_s(bytes), 1e-6);
}

TEST_F(SimulatorTest, QueueOverflowDropsPackets) {
  sim_.set_queue_capacity(4);
  std::size_t delivered = 0;
  sim_.set_sink_handler([&](Packet&&, double) { ++delivered; });
  for (int i = 0; i < 20; ++i) {
    Packet p = make_packet();
    p.seq = static_cast<std::uint64_t>(i);
    sim_.inject(5, std::move(p));
  }
  sim_.run();
  // Origin queue holds 4 + 1 in flight at a time; the burst overflows.
  EXPECT_GT(sim_.packets_dropped_by_queues(), 0u);
  EXPECT_LT(delivered, 20u);
  EXPECT_EQ(delivered + sim_.packets_dropped_by_queues(), 20u);
}

TEST_F(SimulatorTest, PacedTrafficSurvivesSmallQueues) {
  sim_.set_queue_capacity(4);
  std::size_t delivered = 0;
  sim_.set_sink_handler([&](Packet&&, double) { ++delivered; });
  // One packet per 100 ms is far below the radio's service rate.
  for (int i = 0; i < 20; ++i) {
    sim_.schedule(0.1 * i, [this, i] {
      Packet p = make_packet();
      p.seq = static_cast<std::uint64_t>(i);
      sim_.inject(5, std::move(p));
    });
  }
  sim_.run();
  EXPECT_EQ(delivered, 20u);
  EXPECT_EQ(sim_.packets_dropped_by_queues(), 0u);
}

TEST_F(SimulatorTest, HandlerMayInjectWhileHoldingItsPacket) {
  // Node 3's handler injects enough packets to grow the packet slab by
  // several chunks, then keeps writing through the reference it was handed.
  // Packets never move out of their slots, so this is clean under ASan.
  constexpr std::uint32_t kInjected = 1000;
  sim_.set_node_handler(3, [this](Packet& p, NodeId self) {
    if (p.seq != 7) return true;
    for (std::uint32_t i = 0; i < kInjected; ++i) sim_.inject(4, make_packet(100 + i));
    p.marks.push_back(Mark{Bytes{static_cast<std::uint8_t>(self)}, Bytes(8, 0xAB)});
    p.seq = 8;
    return true;
  });
  std::vector<Packet> delivered;
  sim_.set_sink_handler([&](Packet&& p, double) { delivered.push_back(std::move(p)); });
  sim_.inject(5, make_packet(7));
  EXPECT_TRUE(sim_.run());
  ASSERT_EQ(delivered.size(), kInjected + 1);
  ASSERT_EQ(delivered.front().seq, 8u);
  ASSERT_EQ(delivered.front().marks.size(), 1u);
  EXPECT_EQ(delivered.front().marks[0].id_field, Bytes{3});
  EXPECT_EQ(delivered.front().marks[0].mac, Bytes(8, 0xAB));
  for (std::size_t i = 1; i < delivered.size(); ++i)
    EXPECT_EQ(delivered[i].seq, 100 + i - 1) << "delivery " << i;
}

TEST(SimulatorClock, FinalLostTransmissionStillAdvancesTheClock) {
  // The last transmission is lost, so no event follows its radio-free time
  // and nothing waits for that radio: the event is never pushed. The clock
  // must still end at that time, as if it had been dispatched.
  Topology topo = Topology::chain(4);
  RoutingTable routing(topo, RoutingStrategy::kTree);
  LinkModel link;
  link.loss_probability = 1.0;
  Simulator sim(topo, routing, link, EnergyModel{}, 5);
  Packet p;
  p.report = Report{1, 2, 3, 4}.encode();
  const std::size_t bytes = p.wire_size();
  sim.schedule(0.25, [&sim, &p] { sim.inject(5, std::move(p)); });
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(sim.packets_dropped_by_links(), 1u);
  EXPECT_EQ(sim.events_processed(), 1u);  // the callback; no arrival, no radio-free
  EXPECT_EQ(sim.now(), 0.25 + link.tx_time_s(bytes));
}

TEST(SimulatorLoss, LossyLinksDropSomePackets) {
  Topology topo = Topology::chain(10);
  RoutingTable routing(topo, RoutingStrategy::kTree);
  LinkModel link;
  link.loss_probability = 0.1;
  Simulator sim(topo, routing, link, EnergyModel{}, 77);
  std::size_t delivered = 0;
  sim.set_sink_handler([&](Packet&&, double) { ++delivered; });
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.report = Report{static_cast<std::uint32_t>(i), 0, 0, 0}.encode();
    sim.inject(11, std::move(p));
  }
  sim.run();
  // Expected delivery rate 0.9^11 ~ 31%; allow a wide deterministic band.
  EXPECT_GT(delivered, 20u);
  EXPECT_LT(delivered, 150u);
  EXPECT_GT(sim.packets_dropped_by_links(), 0u);
  EXPECT_EQ(delivered + sim.packets_dropped_by_links(), 200u);
}

// A lossy flood pinned to the result the retired std::function heap core
// produced for it: delivered and lost counts, total energy, final clock and
// a SHA-256 over every delivery time's bit pattern. Any drift in event
// order, RNG draws or energy accounting moves one of them. The event count
// is the lazy core's own.
TEST(SimulatorEventCore, LossyFloodMatchesRecordedResult) {
  Topology topo = Topology::chain(12);
  RoutingTable routing(topo, RoutingStrategy::kTree);
  LinkModel link;
  link.loss_probability = 0.07;
  Simulator sim(topo, routing, link, EnergyModel{}, 20260809);
  Bytes delivery_bits;
  sim.set_sink_handler([&](Packet&&, double t) {
    std::uint64_t u;
    std::memcpy(&u, &t, sizeof u);
    for (int b = 0; b < 8; ++b)
      delivery_bits.push_back(static_cast<std::uint8_t>(u >> (8 * b)));
  });
  for (int i = 0; i < 150; ++i) {
    sim.schedule(0.01 * i, [&sim, i] {
      Packet p;
      p.report = Report{static_cast<std::uint32_t>(i), 0, 0, 0}.encode();
      p.true_source = 13;
      sim.inject(13, std::move(p));
    });
  }
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(sim.packets_delivered(), 55u);
  EXPECT_EQ(sim.packets_dropped_by_links(), 95u);
  EXPECT_EQ(sim.energy().total_energy_uj(), 0x1.2a368p+19);
  EXPECT_EQ(sim.now(), 0x1.96b2dbd19423ap+0);
  // Radio-free events are pushed only when a packet waits (the eager core
  // dispatched 2793 here); a reintroduced no-op event moves this count.
  EXPECT_EQ(sim.events_processed(), 1424u);
  EXPECT_EQ(to_hex(crypto::Sha256::hash(delivery_bits)),
            "65a450482a980b16288b97bf179769e7b7e9500c299c8c4f1e7eddc995843ea3");
}

// Calendar-queue stress: a deterministic scatter of callback times (dense
// clusters, far outliers, exact ties) spanning many re-spans must dispatch
// in exact (time, FIFO-order) order.
TEST(SimulatorEventCore, CalendarQueueOrdersScatteredTimes) {
  Topology topo = Topology::chain(2);
  RoutingTable routing(topo, RoutingStrategy::kTree);
  Simulator sim(topo, routing, LinkModel{}, EnergyModel{}, 1);
  struct Fired {
    double time;
    int id;
  };
  std::vector<Fired> fired;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int id = 0;
  std::vector<std::pair<double, int>> expected;
  auto add = [&](double t) {
    expected.push_back({t, id});
    int captured = id++;
    sim.schedule(t, [&fired, &sim, captured] {
      fired.push_back({sim.now(), captured});
    });
  };
  for (int i = 0; i < 3000; ++i) {
    switch (next() % 4) {
      case 0: add(static_cast<double>(next() % 1000) / 997.0); break;
      case 1: add(1.0 + static_cast<double>(next() % 64) / 1e6); break;
      case 2: add(5000.0 + static_cast<double>(next() % 7)); break;
      default: add(static_cast<double>(next() % 10)); break;  // heavy ties
    }
  }
  ASSERT_TRUE(sim.run());
  ASSERT_EQ(fired.size(), expected.size());
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].time, expected[i].first) << "event " << i;
    EXPECT_EQ(fired[i].id, expected[i].second) << "event " << i;
  }
}

// Calendar-queue order while callbacks push more events mid-dispatch, as a
// campaign does: a chained pump (each pump schedules the next, as
// run_chain_experiment's does) that starts a 20-hop relay, bursts of
// near-simultaneous events, exact ties with the running event's time, and
// far outliers that force re-spans. Every schedule() is logged with its
// absolute time in call order, which is the queue's FIFO order, so the
// dispatch sequence must equal that log sorted by (time, call order).
TEST(SimulatorEventCore, CalendarQueueOrdersInterleavedPushes) {
  Topology topo = Topology::chain(2);
  RoutingTable routing(topo, RoutingStrategy::kTree);
  Simulator sim(topo, routing, LinkModel{}, EnergyModel{}, 1);
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::pair<double, int>> scheduled;  // (time, call order)
  std::vector<std::pair<double, int>> fired;
  std::function<void(double, std::function<void()>)> add =
      [&](double delay, std::function<void()> then) {
        const int id = static_cast<int>(scheduled.size());
        scheduled.push_back({sim.now() + delay, id});
        sim.schedule(delay, [&fired, &sim, id, then = std::move(then)] {
          fired.push_back({sim.now(), id});
          if (then) then();
        });
      };
  std::function<void(int)> hop = [&](int left) {
    if (next() % 8 == 0) add(0.0, nullptr);  // exact tie with this event
    if (left > 0) add(0.0123 + static_cast<double>(next() % 4) * 1e-4, [&hop, left] {
      hop(left - 1);
    });
  };
  int pumps = 0;
  std::function<void()> pump = [&] {
    ++pumps;
    hop(20);
    if (pumps % 10 == 0)  // a burst, with ties among its own events
      for (int i = 0; i < 50; ++i) add(static_cast<double>(next() % 5) * 1e-3, nullptr);
    if (pumps % 50 == 0) add(1000.0 + static_cast<double>(next() % 3), nullptr);
    if (pumps < 300) add(1.0 / 30.0, pump);
  };
  add(0.0, pump);
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(pumps, 300);
  ASSERT_EQ(fired.size(), scheduled.size());
  std::vector<std::pair<double, int>> expected = scheduled;
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i].first, expected[i].first) << "event " << i;
    ASSERT_EQ(fired[i].second, expected[i].second) << "event " << i;
  }
}

}  // namespace
}  // namespace pnm::net
