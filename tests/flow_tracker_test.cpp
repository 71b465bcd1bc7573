// Multi-flow traceback tests: concurrent source moles (§9 future work) are
// separated by claimed origin and caught independently.
#include <gtest/gtest.h>

#include <algorithm>

#include "attack/attacks.h"
#include "core/protocol.h"
#include "crypto/keys.h"
#include "net/simulator.h"
#include "sink/catcher.h"
#include "sink/flow_tracker.h"

namespace pnm::sink {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(FlowTracker, SeparatesFlowsByClaimedOrigin) {
  net::Topology topo = net::Topology::chain(6);
  crypto::KeyStore keys(str_bytes("flow-master"), topo.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);

  FlowTracker tracker(*scheme, keys, topo);
  net::Packet a;
  a.report = net::Report{1, 10, 10, 1}.encode();
  net::Packet b;
  b.report = net::Report{2, 20, 20, 1}.encode();
  auto ka = tracker.ingest(a);
  auto kb = tracker.ingest(b);
  ASSERT_TRUE(ka && kb);
  EXPECT_NE(*ka, *kb);
  EXPECT_EQ(tracker.flow_count(), 2u);
  EXPECT_NE(tracker.engine(*ka), nullptr);
  EXPECT_EQ(tracker.engine(*ka)->packets_ingested(), 1u);
}

TEST(FlowTracker, MalformedReportsRejected) {
  net::Topology topo = net::Topology::chain(4);
  crypto::KeyStore keys(str_bytes("flow-master"), topo.node_count());
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, {});
  FlowTracker tracker(*scheme, keys, topo);
  net::Packet junk;
  junk.report = Bytes{1, 2, 3};
  EXPECT_FALSE(tracker.ingest(junk).has_value());
  EXPECT_EQ(tracker.flow_count(), 0u);
}

TEST(FlowTracker, PooledGraphWouldBeAmbiguousButFlowsResolve) {
  // Two source moles on opposite branches of a grid inject concurrently.
  // One pooled engine superimposes two paths (two most-upstream nodes ->
  // never unequivocal); per-flow engines identify both.
  net::Topology topo = net::Topology::grid(7, 7, 1.1);
  net::RoutingTable routing(topo, net::RoutingStrategy::kTree);
  crypto::KeyStore keys(str_bytes("flow-grid"), topo.node_count());

  NodeId mole_a = 6;                                          // corner (6,0)
  NodeId mole_b = static_cast<NodeId>(topo.node_count() - 7); // corner (0,6)
  std::size_t hops =
      std::max(routing.hops_to_sink(mole_a), routing.hops_to_sink(mole_b));
  marking::SchemeConfig cfg;
  cfg.mark_probability = std::min(1.0, 3.0 / static_cast<double>(hops));
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);

  net::Simulator sim(topo, routing, net::LinkModel{}, net::EnergyModel{}, 515);
  for (NodeId v = 1; v < topo.node_count(); ++v) {
    Rng node_rng(3000 + v);
    sim.set_node_handler(v, [&, node_rng](net::Packet& p, NodeId self) mutable {
      if (self != p.true_source)  // moles don't mark their own injections
        scheme->mark(p, self, keys.key_unchecked(self), node_rng);
      return true;
    });
  }

  FlowTracker tracker(*scheme, keys, topo);
  TracebackEngine pooled(*scheme, keys, topo);
  sim.set_sink_handler([&](net::Packet&& p, double) {
    tracker.ingest(p);
    pooled.ingest(p);
  });

  net::BogusReportFactory factory_a(6, 0), factory_b(0, 6);
  for (int i = 0; i < 250; ++i) {
    net::Packet pa;
    pa.report = factory_a.next().encode();
    pa.true_source = mole_a;
    pa.bogus = true;
    sim.inject(mole_a, std::move(pa));
    net::Packet pb;
    pb.report = factory_b.next().encode();
    pb.true_source = mole_b;
    pb.bogus = true;
    sim.inject(mole_b, std::move(pb));
  }
  ASSERT_TRUE(sim.run());

  // Pooled: two superimposed paths -> ambiguous.
  EXPECT_FALSE(pooled.analysis().identified);

  // Per-flow: both flows identified, each pinning its own mole.
  ASSERT_EQ(tracker.flow_count(), 2u);
  auto summaries = tracker.summaries();
  std::size_t caught = 0;
  for (const auto& flow : summaries) {
    ASSERT_TRUE(flow.analysis.identified)
        << "flow at (" << flow.loc_x << "," << flow.loc_y << ")";
    NodeId expected_mole = flow.loc_x == 6 ? mole_a : mole_b;
    auto outcome = resolve_catch(flow.analysis, {expected_mole});
    if (outcome && outcome->mole == expected_mole) ++caught;
  }
  EXPECT_EQ(caught, 2u);
}

TEST(FlowTracker, SummariesOrderIdentifiedFirst) {
  net::Topology topo = net::Topology::chain(6);
  crypto::KeyStore keys(str_bytes("flow-master"), topo.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  Rng rng(1);

  FlowTracker tracker(*scheme, keys, topo);
  // Flow 1: marked chain -> identified.
  net::Packet p1;
  p1.report = net::Report{1, 50, 50, 1}.encode();
  for (NodeId v : {5, 4, 3}) scheme->mark(p1, v, keys.key_unchecked(v), rng);
  tracker.ingest(p1);
  // Flow 2: bare packets, more traffic, never identified.
  for (std::uint32_t i = 0; i < 5; ++i) {
    net::Packet p2;
    p2.report = net::Report{10 + i, 60, 60, 10 + i}.encode();
    tracker.ingest(p2);
  }
  auto summaries = tracker.summaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_TRUE(summaries[0].analysis.identified);
  EXPECT_EQ(summaries[0].loc_x, 50);
  EXPECT_FALSE(summaries[1].analysis.identified);
  EXPECT_EQ(summaries[1].packets, 5u);
}

}  // namespace
}  // namespace pnm::sink
