// Topology-scoped verification tests (§7): equivalence with the exhaustive
// verifier, cost advantage, edge cases (unknown anchor, alien marks), and a
// warm verifier's PrfCache serving a repeated batch without one PRF.
#include <gtest/gtest.h>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/routing.h"
#include "sink/batch_verifier.h"
#include "sink/scoped_verify.h"
#include "util/counters.h"
#include "util/rng.h"

namespace pnm::sink {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

class ScopedVerifyFixture : public ::testing::Test {
 protected:
  ScopedVerifyFixture()
      : topo_(net::Topology::chain(12)),
        keys_(str_bytes("scoped-master"), topo_.node_count()),
        rng_(3141) {
    cfg_.mark_probability = 0.3;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg_);
  }

  net::Packet marked(std::uint32_t event, double p_override = -1.0) {
    marking::SchemeConfig cfg = cfg_;
    if (p_override >= 0) cfg.mark_probability = p_override;
    auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
    net::Packet pkt;
    pkt.report = net::Report{event, 1, 1, event}.encode();
    for (NodeId v = 12; v >= 1; --v)  // path order: far node first
      scheme->mark(pkt, v, keys_.key_unchecked(v), rng_);
    pkt.delivered_by = 1;
    return pkt;
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  Rng rng_;
  marking::SchemeConfig cfg_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST_F(ScopedVerifyFixture, MatchesExhaustiveAcrossManyPackets) {
  for (std::uint32_t e = 0; e < 60; ++e) {
    net::Packet p = marked(e);
    auto exhaustive = scheme_->verify(p, keys_);
    auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
    ASSERT_EQ(scoped.chain.size(), exhaustive.chain.size()) << "event " << e;
    for (std::size_t i = 0; i < scoped.chain.size(); ++i) {
      EXPECT_EQ(scoped.chain[i].node, exhaustive.chain[i].node);
      EXPECT_EQ(scoped.chain[i].mark_index, exhaustive.chain[i].mark_index);
    }
    EXPECT_EQ(scoped.truncated_by_invalid, exhaustive.truncated_by_invalid);
    EXPECT_EQ(scoped.invalid_marks, exhaustive.invalid_marks);
  }
}

TEST_F(ScopedVerifyFixture, MatchesExhaustiveOnDeterministicChain) {
  net::Packet p = marked(999, 1.0);
  ASSERT_EQ(p.marks.size(), 12u);
  marking::SchemeConfig cfg = cfg_;
  cfg.mark_probability = 1.0;
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg);
  ASSERT_EQ(scoped.chain.size(), 12u);
  EXPECT_EQ(scoped.chain.front().node, 12);
  EXPECT_EQ(scoped.chain.back().node, 1);
}

TEST_F(ScopedVerifyFixture, CheaperThanExhaustiveWithDenseMarks) {
  // Deterministic marking: consecutive marks are radio neighbors, so the
  // scoped search touches ~degree nodes per mark instead of the whole net.
  net::Topology grid = net::Topology::grid(12, 12, 1.5);  // 144 nodes
  crypto::KeyStore keys(str_bytes("scoped-grid"), grid.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);

  net::RoutingTable routing(grid, net::RoutingStrategy::kTree);
  NodeId source = static_cast<NodeId>(grid.node_count() - 1);
  auto path = routing.path_to_sink(source);
  ASSERT_GE(path.size(), 4u);

  net::Packet p;
  p.report = net::Report{7, 7, 7, 7}.encode();
  for (std::size_t i = 1; i + 1 < path.size(); ++i)  // forwarders only
    scheme->mark(p, path[i], keys.key_unchecked(path[i]), rng_);
  p.delivered_by = path[path.size() - 2];

  ScopedVerifyStats stats;
  auto scoped = scoped_verify_pnm(p, keys, grid, cfg, &stats);
  ASSERT_EQ(scoped.chain.size(), p.marks.size());
  // Exhaustive would pay (nodes-1) PRFs = 143; scoped pays ~degree per mark.
  EXPECT_LT(stats.prf_evaluations, grid.node_count() * p.marks.size() / 4);
  EXPECT_GT(stats.prf_evaluations, 0u);
}

TEST_F(ScopedVerifyFixture, UnknownAnchorFallsBackToSink) {
  net::Packet p = marked(5);
  p.delivered_by = kInvalidNode;
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
  auto exhaustive = scheme_->verify(p, keys_);
  EXPECT_EQ(scoped.chain.size(), exhaustive.chain.size());
}

TEST_F(ScopedVerifyFixture, AlienMarkTruncatesAfterFullSearch) {
  net::Packet p = marked(6, 1.0);
  // Corrupt the most downstream mark: no node in the network matches.
  p.marks.back().id_field[0] ^= 0xff;
  p.marks.back().id_field[1] ^= 0xff;
  ScopedVerifyStats stats;
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_, &stats);
  EXPECT_TRUE(scoped.chain.empty());
  EXPECT_TRUE(scoped.truncated_by_invalid);
  // It had to widen the rings all the way before giving up.
  EXPECT_GT(stats.ring_expansions, 0u);
}

TEST_F(ScopedVerifyFixture, TamperedMiddleSameTruncationAsExhaustive) {
  for (int trial = 0; trial < 10; ++trial) {
    net::Packet p = marked(static_cast<std::uint32_t>(100 + trial), 0.5);
    if (p.marks.size() < 2) continue;
    p.marks[p.marks.size() / 2].mac[0] ^= 1;
    auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
    auto exhaustive = scheme_->verify(p, keys_);
    EXPECT_EQ(scoped.chain.size(), exhaustive.chain.size());
    EXPECT_EQ(scoped.truncated_by_invalid, exhaustive.truncated_by_invalid);
  }
}

TEST_F(ScopedVerifyFixture, EmptyPacketTrivial) {
  net::Packet p;
  p.report = net::Report{1, 1, 1, 1}.encode();
  auto scoped = scoped_verify_pnm(p, keys_, topo_, cfg_);
  EXPECT_TRUE(scoped.chain.empty());
  EXPECT_FALSE(scoped.truncated_by_invalid);
}

TEST_F(ScopedVerifyFixture, WarmVerifierRepeatsABatchWithoutPrfEvals) {
  // 48 packets over 6 reports, each marked afresh, plus two forged marks
  // whose searches widen across the whole chain.
  std::vector<net::Packet> batch;
  for (std::uint32_t n = 0; n < 48; ++n) batch.push_back(marked(n % 6));
  for (std::size_t k : {std::size_t{5}, std::size_t{30}}) {
    net::Packet forged = batch[k];
    if (forged.marks.empty()) continue;
    forged.marks.back().mac[0] ^= 0x01;
    batch.push_back(std::move(forged));
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::Counters counters;
    BatchVerifierConfig bcfg;
    bcfg.threads = threads;
    bcfg.strategy = BatchStrategy::kScoped;
    BatchVerifier verifier(*scheme_, keys_, bcfg, &topo_, &counters);
    const auto first = verifier.verify_batch(batch);
    const std::uint64_t prf = counters.get(util::Metric::kPrfEvals);
    const std::uint64_t hits = counters.get(util::Metric::kCacheHits);
    const std::uint64_t misses = counters.get(util::Metric::kCacheMisses);
    const std::uint64_t macs = counters.get(util::Metric::kMacChecks);
    EXPECT_GT(prf, 0u) << "threads=" << threads;

    const auto second = verifier.verify_batch(batch);
    EXPECT_EQ(counters.get(util::Metric::kPrfEvals) - prf, 0u) << "threads=" << threads;
    EXPECT_EQ(counters.get(util::Metric::kCacheMisses) - misses, 0u)
        << "threads=" << threads;
    EXPECT_EQ(counters.get(util::Metric::kCacheHits) - hits, hits + misses)
        << "threads=" << threads;
    EXPECT_EQ(counters.get(util::Metric::kMacChecks) - macs, macs) << "threads=" << threads;

    ASSERT_EQ(second.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto alone = scoped_verify_pnm(batch[i], keys_, topo_, cfg_);
      for (const auto* got : {&first[i], &second[i]}) {
        ASSERT_EQ(got->chain.size(), alone.chain.size()) << "packet " << i;
        for (std::size_t m = 0; m < alone.chain.size(); ++m) {
          EXPECT_EQ(got->chain[m].node, alone.chain[m].node);
          EXPECT_EQ(got->chain[m].mark_index, alone.chain[m].mark_index);
        }
        EXPECT_EQ(got->truncated_by_invalid, alone.truncated_by_invalid);
        EXPECT_EQ(got->invalid_marks, alone.invalid_marks);
      }
    }
  }
}

TEST(KHopNeighborhood, RingsGrowCorrectly) {
  net::Topology t = net::Topology::chain(6);
  EXPECT_EQ(t.k_hop_neighborhood(3, 0), (std::vector<NodeId>{3}));
  EXPECT_EQ(t.k_hop_neighborhood(3, 1), (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(t.k_hop_neighborhood(3, 2), (std::vector<NodeId>{1, 2, 3, 4, 5}));
  // Saturates at the whole component.
  EXPECT_EQ(t.k_hop_neighborhood(3, 100).size(), t.node_count());
}

TEST(KHopNeighborhood, GridBall) {
  net::Topology t = net::Topology::grid(5, 5, 1.1);
  auto ball1 = t.k_hop_neighborhood(12, 1);  // center of 5x5
  EXPECT_EQ(ball1.size(), 5u);               // center + 4-neighborhood
  auto ball2 = t.k_hop_neighborhood(12, 2);
  EXPECT_EQ(ball2.size(), 13u);  // diamond of radius 2
}

}  // namespace
}  // namespace pnm::sink
