// Sink-side tests: order graph closure, route analysis (loop-free and loopy),
// anonymous-ID lookup, traceback engine, suspicion filter and catch logic.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/anon_id.h"
#include "crypto/keys.h"
#include "marking/scheme.h"
#include "sink/anon_lookup.h"
#include "sink/catcher.h"
#include "sink/order_matrix.h"
#include "sink/route_reconstruct.h"
#include "sink/route_render.h"
#include "sink/traceback.h"
#include "sink/verifier.h"

namespace pnm::sink {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------------------- NodeBitset

TEST(NodeBitset, SetTestGrow) {
  NodeBitset b;
  EXPECT_FALSE(b.test(0));
  b.set(3);
  b.set(200);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(200));
  EXPECT_FALSE(b.test(4));
  EXPECT_EQ(b.count(), 2u);
}

TEST(NodeBitset, OrWithAndIntersects) {
  NodeBitset a, b;
  a.set(1);
  b.set(70);
  EXPECT_FALSE(a.intersects(b));
  a.or_with(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(70));
  EXPECT_TRUE(a.intersects(b));
}

// -------------------------------------------------------------- OrderGraph

TEST(OrderGraph, TransitiveClosure) {
  OrderGraph g;
  g.add_order(1, 2);
  g.add_order(2, 3);
  EXPECT_TRUE(g.reaches(1, 2));
  EXPECT_TRUE(g.reaches(1, 3));
  EXPECT_TRUE(g.reaches(2, 3));
  EXPECT_FALSE(g.reaches(3, 1));
  EXPECT_FALSE(g.reaches(1, 1));
  EXPECT_EQ(g.observed_count(), 3u);
  EXPECT_EQ(g.order_count(), 2u);
}

TEST(OrderGraph, ClosureUpdatesExistingPredecessors) {
  OrderGraph g;
  g.add_order(1, 2);
  g.add_order(3, 4);
  g.add_order(2, 3);  // joins the two chains
  EXPECT_TRUE(g.reaches(1, 4));
}

TEST(OrderGraph, DuplicateAndSelfEdgesIgnored) {
  OrderGraph g;
  g.add_order(1, 2);
  g.add_order(1, 2);
  g.add_order(1, 1);
  EXPECT_EQ(g.order_count(), 1u);
  EXPECT_FALSE(g.reaches(1, 1));
}

TEST(OrderGraph, ObserveWithoutOrder) {
  OrderGraph g;
  g.observe(9);
  EXPECT_TRUE(g.is_observed(9));
  EXPECT_EQ(g.observed_count(), 1u);
  EXPECT_EQ(g.minimal_candidates(), (std::vector<NodeId>{9}));
}

TEST(OrderGraph, CycleDetection) {
  OrderGraph g;
  g.add_order(1, 2);
  g.add_order(2, 3);
  EXPECT_FALSE(g.has_loop());
  g.add_order(3, 1);
  EXPECT_TRUE(g.has_loop());
  auto loop = g.loop_nodes();
  std::sort(loop.begin(), loop.end());
  EXPECT_EQ(loop, (std::vector<NodeId>{1, 2, 3}));
}

TEST(OrderGraph, MinimalCandidatesAcyclic) {
  OrderGraph g;
  g.add_order(1, 3);
  g.add_order(2, 3);
  auto mins = g.minimal_candidates();
  std::sort(mins.begin(), mins.end());
  EXPECT_EQ(mins, (std::vector<NodeId>{1, 2}));
  g.add_order(1, 2);
  EXPECT_EQ(g.minimal_candidates(), (std::vector<NodeId>{1}));
}

TEST(OrderGraph, MinimalCandidatesOneRepPerCycle) {
  OrderGraph g;
  g.add_order(1, 2);
  g.add_order(2, 1);
  g.add_order(2, 3);
  auto mins = g.minimal_candidates();
  EXPECT_EQ(mins.size(), 1u);  // the 2-cycle counts once
  EXPECT_TRUE(mins[0] == 1 || mins[0] == 2);
}

TEST(OrderGraph, ReachesAll) {
  OrderGraph g;
  g.add_order(1, 2);
  g.add_order(2, 3);
  EXPECT_TRUE(g.reaches_all(1));
  EXPECT_FALSE(g.reaches_all(2));
  g.observe(9);  // isolated sighting breaks coverage
  EXPECT_FALSE(g.reaches_all(1));
}

TEST(OrderGraph, DirectSuccessors) {
  OrderGraph g;
  g.add_order(1, 2);
  g.add_order(1, 3);
  g.add_order(2, 3);
  auto succ = g.direct_successors(1);
  std::sort(succ.begin(), succ.end());
  EXPECT_EQ(succ, (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(g.direct_successors(3).empty());
}

// ------------------------------------------------------------ route analysis

class RouteFixture : public ::testing::Test {
 protected:
  RouteFixture() : topo_(net::Topology::chain(8)) {}
  net::Topology topo_;  // sink 0, forwarders 1..8, source 9
};

TEST_F(RouteFixture, EmptyGraphUnidentified) {
  OrderGraph g;
  EXPECT_FALSE(analyze_route(g, topo_).identified);
}

TEST_F(RouteFixture, UniqueMostUpstreamIdentified) {
  OrderGraph g;
  for (NodeId v = 8; v > 1; --v) g.add_order(v, static_cast<NodeId>(v - 1));
  RouteAnalysis a = analyze_route(g, topo_);
  ASSERT_TRUE(a.identified);
  EXPECT_FALSE(a.via_loop);
  EXPECT_EQ(a.stop_node, 8);
  // Suspects = {7, 8, 9}: includes the true source 9.
  EXPECT_EQ(a.suspects, (std::vector<NodeId>{7, 8, 9}));
}

TEST_F(RouteFixture, TwoMinimalsAmbiguous) {
  OrderGraph g;
  g.add_order(8, 6);
  g.add_order(7, 6);  // 8 and 7 incomparable
  g.add_order(6, 5);
  EXPECT_FALSE(analyze_route(g, topo_).identified);
}

TEST_F(RouteFixture, MinimalMustCoverAllObserved) {
  OrderGraph g;
  g.add_order(8, 7);
  g.observe(3);  // seen but unordered
  EXPECT_FALSE(analyze_route(g, topo_).identified);
}

TEST_F(RouteFixture, LoopWithUniqueLineHead) {
  // Identity-swap shape: loop {8,7,6}, line 5 -> 4 hanging off it.
  OrderGraph g;
  g.add_order(8, 7);
  g.add_order(7, 6);
  g.add_order(6, 8);  // close the loop
  g.add_order(6, 5);  // loop feeds the line
  g.add_order(5, 4);
  RouteAnalysis a = analyze_route(g, topo_);
  ASSERT_TRUE(a.identified);
  EXPECT_TRUE(a.via_loop);
  EXPECT_EQ(a.stop_node, 5);
  EXPECT_EQ(a.suspects, (std::vector<NodeId>{4, 5, 6}));
  std::sort(a.loop.begin(), a.loop.end());
  EXPECT_EQ(a.loop, (std::vector<NodeId>{6, 7, 8}));
}

TEST_F(RouteFixture, LoopWithTwoLineHeadsAmbiguous) {
  OrderGraph g;
  g.add_order(8, 7);
  g.add_order(7, 8);
  g.add_order(8, 5);
  g.add_order(7, 4);  // two distinct line heads 5 and 4
  EXPECT_FALSE(analyze_route(g, topo_).identified);
}

TEST_F(RouteFixture, LoopNotMostUpstreamRejected) {
  OrderGraph g;
  g.add_order(8, 7);  // acyclic fragment upstream of the loop
  g.add_order(7, 6);
  g.add_order(6, 7);  // loop {6,7} but 8 precedes it
  g.add_order(6, 5);
  EXPECT_FALSE(analyze_route(g, topo_).identified);
}

TEST_F(RouteFixture, TwoSeparateLoopsRejected) {
  OrderGraph g;
  g.add_order(8, 7);
  g.add_order(7, 8);
  g.add_order(3, 2);
  g.add_order(2, 3);
  EXPECT_FALSE(analyze_route(g, topo_).identified);
}

TEST_F(RouteFixture, SingleObservedNodeIdentifiesItself) {
  OrderGraph g;
  g.observe(4);
  RouteAnalysis a = analyze_route(g, topo_);
  ASSERT_TRUE(a.identified);
  EXPECT_EQ(a.stop_node, 4);
}

// ------------------------------------------------------------- anon lookup

class AnonLookupFixture : public ::testing::Test {
 protected:
  AnonLookupFixture() : keys_(str_bytes("anon-master"), 40) {}
  crypto::KeyStore keys_;
  Bytes report_ = str_bytes("some-report");
};

TEST_F(AnonLookupFixture, ResolvesEveryNode) {
  AnonIdTable table(keys_, report_, 2);
  for (NodeId id = 1; id < 40; ++id) {
    Bytes anon = crypto::anon_id(keys_.key_unchecked(id), report_, id, 2);
    const auto& cands = table.candidates(anon);
    EXPECT_NE(std::find(cands.begin(), cands.end(), id), cands.end());
  }
}

TEST_F(AnonLookupFixture, SinkNeverACandidate) {
  AnonIdTable table(keys_, report_, 2);
  Bytes anon = crypto::anon_id(keys_.key_unchecked(kSinkId), report_, kSinkId, 2);
  const auto& cands = table.candidates(anon);
  EXPECT_EQ(std::find(cands.begin(), cands.end(), kSinkId), cands.end());
}

TEST_F(AnonLookupFixture, UnknownAnonIdEmpty) {
  AnonIdTable table(keys_, report_, 4);
  EXPECT_TRUE(table.candidates(Bytes{0xde, 0xad, 0xbe, 0xef}).empty());
}

TEST_F(AnonLookupFixture, OneByteIdsCollide) {
  // 39 nodes into 256 buckets: with 1-byte IDs the table must still resolve
  // every node, collisions producing multi-candidate buckets.
  AnonIdTable table(keys_, report_, 1);
  std::size_t resolved = 0;
  for (NodeId id = 1; id < 40; ++id) {
    Bytes anon = crypto::anon_id(keys_.key_unchecked(id), report_, id, 1);
    const auto& cands = table.candidates(anon);
    if (std::find(cands.begin(), cands.end(), id) != cands.end()) ++resolved;
  }
  EXPECT_EQ(resolved, 39u);
  EXPECT_EQ(table.size(), 39u);
}

TEST_F(AnonLookupFixture, ScopedSearchFindsNeighborOnly) {
  net::Topology topo = net::Topology::chain(10);  // 12 nodes
  crypto::KeyStore keys(str_bytes("anon-master"), topo.node_count());
  // Node 5's anon id must be found when scoped to node 4's neighborhood...
  Bytes anon5 = crypto::anon_id(keys.key_unchecked(5), report_, 5, 2);
  auto hits = scoped_candidates(keys, topo, 4, report_, anon5, 2);
  EXPECT_NE(std::find(hits.begin(), hits.end(), NodeId{5}), hits.end());
  // ...but not when scoped far away.
  auto far = scoped_candidates(keys, topo, 9, report_, anon5, 2);
  EXPECT_EQ(std::find(far.begin(), far.end(), NodeId{5}), far.end());
}

// -------------------------------------------------------- traceback engine

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture()
      : topo_(net::Topology::chain(6)),
        keys_(str_bytes("engine-master"), topo_.node_count()),
        rng_(31) {
    marking::SchemeConfig cfg;
    cfg.mark_probability = 1.0;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  }

  net::Packet path_packet(std::uint32_t event, const std::vector<NodeId>& markers) {
    net::Packet p;
    p.report = net::Report{event, 1, 1, event}.encode();
    p.true_source = 7;
    p.bogus = true;
    for (NodeId v : markers) scheme_->mark(p, v, keys_.key_unchecked(v), rng_);
    p.delivered_by = 1;
    return p;
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  Rng rng_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST_F(EngineFixture, SinglePacketFullChainIdentifies) {
  TracebackEngine engine(*scheme_, keys_, topo_);
  auto vr = engine.ingest(path_packet(1, {6, 5, 4, 3, 2, 1}));
  EXPECT_EQ(vr.chain.size(), 6u);
  EXPECT_TRUE(engine.analysis().identified);
  EXPECT_EQ(engine.analysis().stop_node, 6);
  EXPECT_EQ(engine.packets_to_identification().value(), 1u);
  EXPECT_EQ(engine.markers_seen().size(), 6u);
  EXPECT_EQ(engine.marks_verified(), 6u);
  EXPECT_EQ(engine.last_delivered_by(), 1);
}

TEST_F(EngineFixture, PartialChainsAccumulate) {
  TracebackEngine engine(*scheme_, keys_, topo_);
  engine.ingest(path_packet(1, {6, 4}));
  // One fragment: its head trivially covers everything observed so far.
  EXPECT_TRUE(engine.analysis().identified);
  engine.ingest(path_packet(2, {5, 3}));
  // Two disconnected fragments: heads 6 and 5 are incomparable.
  EXPECT_FALSE(engine.analysis().identified);
  engine.ingest(path_packet(3, {6, 5}));
  // 6<4, 5<3, 6<5 — closure makes 6 upstream of everything observed.
  ASSERT_TRUE(engine.analysis().identified);
  EXPECT_EQ(engine.analysis().stop_node, 6);
  EXPECT_EQ(engine.packets_to_identification().value(), 3u);
  // Downstream-only additions do not disturb the identification.
  engine.ingest(path_packet(4, {3, 2}));
  engine.ingest(path_packet(5, {2, 1}));
  EXPECT_TRUE(engine.analysis().identified);
  EXPECT_EQ(engine.analysis().stop_node, 6);
  EXPECT_EQ(engine.packets_to_identification().value(), 3u);
}

TEST_F(EngineFixture, PrematureIdentificationIsOverturned) {
  TracebackEngine engine(*scheme_, keys_, topo_);
  engine.ingest(path_packet(1, {4, 3}));  // premature: 4 looks most upstream
  EXPECT_TRUE(engine.analysis().identified);
  EXPECT_EQ(engine.analysis().stop_node, 4);
  engine.ingest(path_packet(2, {6, 5}));  // new fragment: ambiguous again
  EXPECT_FALSE(engine.analysis().identified);
  EXPECT_FALSE(engine.packets_to_identification().has_value());
  engine.ingest(path_packet(3, {5, 4}));  // 6<5<4<3: total order restored
  ASSERT_TRUE(engine.analysis().identified);
  EXPECT_EQ(engine.analysis().stop_node, 6);
  EXPECT_EQ(engine.packets_to_identification().value(), 3u);
}

TEST_F(EngineFixture, UnmarkedPacketsCountButTeachNothing) {
  TracebackEngine engine(*scheme_, keys_, topo_);
  engine.ingest(path_packet(1, {}));
  engine.ingest(path_packet(2, {}));
  EXPECT_EQ(engine.packets_ingested(), 2u);
  EXPECT_FALSE(engine.analysis().identified);
}

TEST_F(EngineFixture, SinglePacketStopHelper) {
  net::Packet p = path_packet(1, {5, 4});
  auto vr = scheme_->verify(p, keys_);
  EXPECT_EQ(TracebackEngine::single_packet_stop(vr, p), 5);
  net::Packet bare = path_packet(2, {});
  auto vr2 = scheme_->verify(bare, keys_);
  EXPECT_EQ(TracebackEngine::single_packet_stop(vr2, bare), 1);  // delivered_by
}

// ---------------------------------------------------------- route rendering

TEST(RouteRender, TextShowsEvidenceAndVerdict) {
  net::Topology topo = net::Topology::chain(6);
  OrderGraph g;
  g.add_order(6, 5);
  g.add_order(5, 4);
  RouteAnalysis a = analyze_route(g, topo);
  std::string text = render_route_text(g, a);
  EXPECT_NE(text.find("observed nodes (3)"), std::string::npos);
  EXPECT_NE(text.find("6 -> 5"), std::string::npos);
  EXPECT_NE(text.find("stop node 6"), std::string::npos);
  EXPECT_EQ(text.find("LOOP"), std::string::npos);
}

TEST(RouteRender, TextFlagsLoops) {
  net::Topology topo = net::Topology::chain(6);
  OrderGraph g;
  g.add_order(6, 5);
  g.add_order(5, 6);
  g.add_order(5, 4);
  g.add_order(4, 3);
  RouteAnalysis a = analyze_route(g, topo);
  std::string text = render_route_text(g, a);
  EXPECT_NE(text.find("LOOP detected"), std::string::npos);
  EXPECT_NE(text.find("via loop junction"), std::string::npos);
}

TEST(RouteRender, UnidentifiedSaysSo) {
  net::Topology topo = net::Topology::chain(6);
  OrderGraph g;
  g.observe(3);
  g.observe(5);
  RouteAnalysis a = analyze_route(g, topo);
  std::string text = render_route_text(g, a);
  EXPECT_NE(text.find("not yet unequivocal"), std::string::npos);
}

TEST(RouteRender, DotIsWellFormed) {
  net::Topology topo = net::Topology::chain(6);
  OrderGraph g;
  g.add_order(6, 5);
  g.add_order(5, 4);
  RouteAnalysis a = analyze_route(g, topo);
  std::string dot = render_route_dot(g, a);
  EXPECT_EQ(dot.find("digraph traceback {"), 0u);
  EXPECT_NE(dot.find("n6 -> n5;"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=gray80"), std::string::npos);  // stop node
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);     // suspects
  EXPECT_EQ(dot.back(), '\n');
}

// -------------------------------------------------------- suspicion filter

TEST(SuspicionFilter, FlagsUnknownEventsAndGarbage) {
  SuspicionFilter filter;
  filter.register_event(100);
  net::Packet legit;
  legit.report = net::Report{100, 1, 1, 5}.encode();
  EXPECT_FALSE(filter.suspicious(legit));

  net::Packet bogus;
  bogus.report = net::Report{999, 1, 1, 5}.encode();
  EXPECT_TRUE(filter.suspicious(bogus));

  net::Packet garbage;
  garbage.report = Bytes{1, 2, 3};
  EXPECT_TRUE(filter.suspicious(garbage));
  EXPECT_EQ(filter.known_event_count(), 1u);
}

// ----------------------------------------------------------------- catcher

TEST(Catcher, StopNodeInspectedFirst) {
  net::Topology topo = net::Topology::chain(5);
  OrderGraph g;
  g.add_order(5, 4);
  RouteAnalysis a = analyze_route(g, topo);
  ASSERT_TRUE(a.identified);
  // Stop node 5 is itself the mole: one inspection suffices.
  auto outcome = resolve_catch(a, {5});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->mole, 5);
  EXPECT_EQ(outcome->inspections, 1u);
}

TEST(Catcher, NeighborMoleFoundWithMoreInspections) {
  net::Topology topo = net::Topology::chain(5);
  OrderGraph g;
  g.add_order(5, 4);
  RouteAnalysis a = analyze_route(g, topo);
  auto outcome = resolve_catch(a, {6});  // the source, neighbor of stop node 5
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->mole, 6);
  EXPECT_GE(outcome->inspections, 2u);
  EXPECT_LE(outcome->inspections, a.suspects.size());
}

TEST(Catcher, InnocentNeighborhoodYieldsNothing) {
  net::Topology topo = net::Topology::chain(5);
  OrderGraph g;
  g.add_order(3, 2);
  RouteAnalysis a = analyze_route(g, topo);
  ASSERT_TRUE(a.identified);
  EXPECT_FALSE(resolve_catch(a, {6}).has_value());  // mole far away
}

TEST(Catcher, UnidentifiedYieldsNothing) {
  RouteAnalysis a;
  EXPECT_FALSE(resolve_catch(a, {1}).has_value());
}

}  // namespace
}  // namespace pnm::sink
