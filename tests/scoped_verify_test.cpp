// Topology-scoped verification tests (§7): equivalence with the exhaustive
// verifier, cost advantage, edge cases (unknown anchor, alien marks), a
// warm verifier's PrfCache serving a repeated batch without one PRF, and the
// memoized ring walk matching a fresh unmemoized one verdict for verdict and
// count for count.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "crypto/anon_id.h"
#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "marking/mark.h"
#include "marking/scheme.h"
#include "net/routing.h"
#include "sink/batch_verifier.h"
#include "sink/ring_layers.h"
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

// ---- the memoized walk against a fresh one ----

/// The anon IDs a PrfCache row holds for one report, as the oracle sees it.
using RowModel = std::map<NodeId, Bytes>;

struct FreshWalk {
  marking::VerifyResult result;
  ScopedVerifyStats stats;
  std::uint64_t hits = 0;  ///< candidates walked that `row` already held
};

/// The scoped search without a memo: fresh RingLayers rings per mark, one
/// anon_id per candidate. With `row`, it models the cache the way the
/// verifier uses it: a ring with a candidate the row lacks sweeps and
/// caches every candidate of that ring, the ones past the resolving
/// candidate included, and the walk counts a hit for each candidate walked
/// that the row held before that ring.
FreshWalk fresh_walk(const net::Packet& p, const crypto::KeyStore& keys,
                     const net::Topology& topo, const marking::SchemeConfig& cfg,
                     RowModel* row) {
  FreshWalk out;
  out.result.total_marks = p.marks.size();
  NodeId anchor = p.delivered_by < topo.node_count() ? p.delivered_by : kSinkId;
  RingLayers rings;
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    NodeId resolved = kInvalidNode;
    if (m.id_field.size() == cfg.anon_len) {
      const Bytes input = marking::nested_mac_input(p, j, m.id_field);
      for (rings.start(topo, anchor); resolved == kInvalidNode; rings.next()) {
        if (rings.radius() > 1) ++out.stats.ring_expansions;
        std::vector<NodeId> cands;
        for (NodeId v : rings.ring())
          if (v != kSinkId && v < keys.size()) cands.push_back(v);
        if (cands.empty()) break;
        std::vector<bool> held;
        std::vector<Bytes> anons;
        for (NodeId c : cands) {
          const bool hit = row && row->count(c);
          held.push_back(hit);
          anons.push_back(hit ? row->at(c)
                              : crypto::anon_id(keys.hmac_key(c), p.report, c, cfg.anon_len));
        }
        if (row)
          for (std::size_t i = 0; i < cands.size(); ++i) row->emplace(cands[i], anons[i]);
        for (std::size_t i = 0; i < cands.size(); ++i) {
          ++out.stats.prf_evaluations;
          if (held[i]) ++out.hits;
          if (anons[i] != m.id_field) continue;
          ++out.stats.mac_checks;
          if (keys.hmac_key(cands[i]).verify(input, m.mac)) {
            resolved = cands[i];
            break;
          }
        }
        if (rings.radius() + 1 > topo.node_count()) break;
      }
    }
    if (resolved == kInvalidNode) {
      out.result.invalid_marks = j + 1;
      out.result.truncated_by_invalid = true;
      break;
    }
    out.result.chain.insert(out.result.chain.begin(), marking::VerifiedMark{resolved, j});
    anchor = resolved;
  }
  return out;
}

/// Verify `p` through scoped_verify_pnm (on `cache`, or none) and through
/// fresh_walk (on `row`, the model of `cache`'s row for p's report), and
/// expect the same verdict, stats and cache, PRF and MAC counts.
void expect_matches_fresh_walk(const net::Packet& p, const crypto::KeyStore& keys,
                               const net::Topology& topo, const marking::SchemeConfig& cfg,
                               crypto::PrfCache* cache, RowModel* row,
                               const std::string& what) {
  SCOPED_TRACE(what);
  util::Counters counters;
  ScopedVerifyStats stats;
  const marking::VerifyResult got = scoped_verify_pnm(p, keys, topo, cfg, &stats, cache,
                                                      &counters);
  const FreshWalk want = fresh_walk(p, keys, topo, cfg, row);
  ASSERT_EQ(got.chain.size(), want.result.chain.size());
  for (std::size_t i = 0; i < got.chain.size(); ++i) {
    EXPECT_EQ(got.chain[i].node, want.result.chain[i].node);
    EXPECT_EQ(got.chain[i].mark_index, want.result.chain[i].mark_index);
  }
  EXPECT_EQ(got.total_marks, want.result.total_marks);
  EXPECT_EQ(got.invalid_marks, want.result.invalid_marks);
  EXPECT_EQ(got.truncated_by_invalid, want.result.truncated_by_invalid);
  EXPECT_EQ(stats.prf_evaluations, want.stats.prf_evaluations);
  EXPECT_EQ(stats.mac_checks, want.stats.mac_checks);
  EXPECT_EQ(stats.ring_expansions, want.stats.ring_expansions);
  const std::uint64_t computed = want.stats.prf_evaluations - want.hits;
  EXPECT_EQ(counters.get(util::Metric::kCacheHits), want.hits);
  EXPECT_EQ(counters.get(util::Metric::kCacheMisses), cache ? computed : 0);
  EXPECT_EQ(counters.get(util::Metric::kPrfEvals), computed);
  EXPECT_EQ(counters.get(util::Metric::kMacChecks), want.stats.mac_checks);
}

/// Three marks by nodes drawn at random (so consecutive marks sit several
/// rings apart), delivered by `anchor`.
net::Packet random_marks(const net::Topology& topo, const crypto::KeyStore& keys,
                         std::uint32_t event, NodeId anchor, Rng& rng) {
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  net::Packet p;
  p.report = net::Report{event, 1, 1, event}.encode();
  for (int k = 0; k < 3; ++k) {
    const NodeId v = static_cast<NodeId>(1 + rng.next_below(topo.node_count() - 1));
    scheme->mark(p, v, keys.key_unchecked(v), rng);
  }
  p.delivered_by = anchor;
  return p;
}

/// Seed `cache`'s row for `report` (and its model) with every third node:
/// most rings then mix hits and misses.
void warm_every_third(crypto::PrfCache& cache, RowModel& row, const crypto::KeyStore& keys,
                      ByteView report, std::size_t anon_len) {
  std::vector<NodeId> nodes;
  Bytes values;
  for (NodeId v = 3; v < keys.size(); v += 3) {
    const Bytes anon = crypto::anon_id(keys.hmac_key(v), report, v, anon_len);
    nodes.push_back(v);
    values.insert(values.end(), anon.begin(), anon.end());
    row.emplace(v, anon);
  }
  auto ref = cache.row(crypto::PrfCache::report_key(report), anon_len);
  std::lock_guard<std::mutex> lock(ref->mutex());
  cache.insert(ref, nodes, values.data());
}

/// From every anchor of `topo`: an honest packet and a forged one (its most
/// upstream MAC fails, so that search covers a whole component), each
/// verified with no cache, then on a partly warm row, then again on the
/// row that left, and every time against a fresh walk.
void expect_memo_matches_fresh_walks(const net::Topology& topo, const std::string& name) {
  const crypto::KeyStore keys(str_bytes("memo-" + name), topo.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  Rng rng(topo.node_count());
  for (NodeId a = 0; a < topo.node_count(); ++a) {
    net::Packet honest = random_marks(topo, keys, a, a, rng);
    net::Packet forged = honest;
    forged.marks.front().mac[0] ^= 0x01;
    for (const net::Packet* p : {&honest, &forged}) {
      const std::string what = name + " anchor " + std::to_string(a) +
                               (p == &forged ? " forged" : " honest");
      expect_matches_fresh_walk(*p, keys, topo, cfg, nullptr, nullptr, what + " cold");
      crypto::PrfCache cache;
      RowModel row;
      warm_every_third(cache, row, keys, p->report, cfg.anon_len);
      expect_matches_fresh_walk(*p, keys, topo, cfg, &cache, &row, what + " partly warm");
      expect_matches_fresh_walk(*p, keys, topo, cfg, &cache, &row, what + " warm");
    }
  }
}

TEST(ScopedVerifyMemo, MatchesAFreshWalkFromEveryAnchor) {
  Rng rng(77);
  expect_memo_matches_fresh_walks(net::Topology::chain(12), "chain");
  expect_memo_matches_fresh_walks(net::Topology::grid(6, 5, 1.0), "grid");
  expect_memo_matches_fresh_walks(net::Topology::grid(5, 4, 1.5), "grid-diagonal");
  expect_memo_matches_fresh_walks(net::Topology::random_geometric(60, 10.0, 2.2, rng),
                                  "random-geometric");
}

TEST(ScopedVerifyMemo, ReachingTheCapMidRunKeepsEveryVerdict) {
  // A forged mark's search covers a whole 1502-node chain, at least 2.2k
  // memo words per anchor: 600 anchors need ~1.4M words, past the cap.
  constexpr std::size_t kForwarders = 1500;
  constexpr std::size_t kAnchors = 600;
  static_assert(kAnchors * (kForwarders + 2 + kForwarders / 2) > RingMemo::kMaxWords);
  const net::Topology chain = net::Topology::chain(kForwarders);
  const crypto::KeyStore keys(str_bytes("memo-cap"), chain.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  Rng rng(9);
  net::Packet forged;
  forged.report = net::Report{1, 1, 1, 1}.encode();
  scheme->mark(forged, 7, keys.key_unchecked(7), rng);
  forged.marks[0].mac[0] ^= 0x01;

  // One report throughout, so after the first search every probe hits.
  crypto::PrfCache cache;
  RowModel row;
  auto verify_from = [&](NodeId a) {
    forged.delivered_by = a;
    expect_matches_fresh_walk(forged, keys, chain, cfg, &cache, &row,
                              "anchor " + std::to_string(a));
  };
  for (std::size_t k = 0; k < kAnchors; ++k)
    verify_from(static_cast<NodeId>(1 + k * (kForwarders / kAnchors)));
  // The first anchors' orders went with a flush; they are rebuilt.
  for (NodeId a : {NodeId{1}, NodeId{3}, NodeId{5}}) verify_from(a);
}

TEST(ScopedVerifyMemo, ATopologyBuiltWhereAFreedOneLivedGetsItsOwnRings) {
  // One slot, so B is built at the very address A was freed from; B's
  // searches must not walk A's memoized rings.
  std::optional<net::Topology> slot;
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  const crypto::KeyStore keys(str_bytes("memo-reuse"), 30);
  Rng rng(21);

  slot.emplace(net::Topology::chain(28));
  const std::uint64_t first_id = slot->id();
  for (NodeId a = 0; a < slot->node_count(); ++a)
    expect_matches_fresh_walk(random_marks(*slot, keys, a, a, rng), keys, *slot, cfg,
                              nullptr, nullptr, "A anchor " + std::to_string(a));
  slot.reset();

  slot.emplace(net::Topology::grid(6, 5, 1.0));
  EXPECT_NE(slot->id(), first_id);
  for (NodeId a = 0; a < slot->node_count(); ++a)
    expect_matches_fresh_walk(random_marks(*slot, keys, 100 + a, a, rng), keys, *slot, cfg,
                              nullptr, nullptr, "B anchor " + std::to_string(a));
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
