// RingLayers tests: every ring matches the k-hop ball difference it replaces
// (Topology::k_hop_neighborhood is the oracle), across chain, grid,
// random-geometric and disconnected topologies; walkers on several threads
// see identical layers; and a scoped search that touches every anchor of a
// large chain keeps its memory bounded.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <iterator>
#include <thread>
#include <vector>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "sink/ring_layers.h"
#include "sink/scoped_verify.h"
#include "util/rng.h"

namespace pnm::sink {
namespace {

std::vector<NodeId> to_vec(std::span<const NodeId> s) { return {s.begin(), s.end()}; }

/// Ring r as the scoped search used to derive it: ball(1) for r = 1, else
/// ball(r) minus ball(r - 1).
std::vector<NodeId> oracle_ring(const net::Topology& topo, NodeId a, std::size_t r) {
  std::vector<NodeId> ball = topo.k_hop_neighborhood(a, r);
  if (r == 1) return ball;
  std::vector<NodeId> inner = topo.k_hop_neighborhood(a, r - 1);
  std::vector<NodeId> out;
  std::set_difference(ball.begin(), ball.end(), inner.begin(), inner.end(),
                      std::back_inserter(out));
  return out;
}

/// Every non-empty ring around `a`, innermost first.
std::vector<std::vector<NodeId>> rings_of(RingLayers& walker, const net::Topology& topo,
                                          NodeId a) {
  std::vector<std::vector<NodeId>> out;
  for (walker.start(topo, a); !walker.ring().empty(); walker.next())
    out.push_back(to_vec(walker.ring()));
  return out;
}

void expect_matches_oracle(const net::Topology& topo) {
  RingLayers walker;
  for (NodeId a = 0; a < topo.node_count(); ++a) {
    std::size_t covered = 0;
    walker.start(topo, a);
    // Past the last ring the oracle difference is empty too; node_count + 1
    // is beyond every eccentricity.
    for (std::size_t r = 1; r <= topo.node_count() + 1; ++r, walker.next()) {
      ASSERT_EQ(walker.radius(), r);
      std::vector<NodeId> ring = to_vec(walker.ring());
      ASSERT_EQ(ring, oracle_ring(topo, a, r)) << "anchor " << a << " ring " << r;
      EXPECT_TRUE(std::is_sorted(ring.begin(), ring.end()));
      if (r == 1) {
        EXPECT_TRUE(std::binary_search(ring.begin(), ring.end(), a));
      }
      covered += ring.size();
    }
    EXPECT_EQ(covered, topo.k_hop_neighborhood(a, topo.node_count()).size());
  }
}

TEST(RingLayers, ChainMatchesKHopDifferences) {
  expect_matches_oracle(net::Topology::chain(12));
  const net::Topology t = net::Topology::chain(5);
  RingLayers walker;
  EXPECT_EQ(rings_of(walker, t, 3),
            (std::vector<std::vector<NodeId>>{{2, 3, 4}, {1, 5}, {0, 6}}));
}

TEST(RingLayers, GridMatchesKHopDifferences) {
  expect_matches_oracle(net::Topology::grid(5, 5, 1.0));
  expect_matches_oracle(net::Topology::grid(6, 4, 1.5));  // diagonals in range
}

TEST(RingLayers, RandomGeometricMatchesKHopDifferences) {
  Rng rng(77);
  expect_matches_oracle(net::Topology::random_geometric(60, 10.0, 2.2, rng));
}

TEST(RingLayers, DisconnectedComponentsStayApart) {
  // Two clusters out of radio range of each other, plus an isolated node.
  const net::Topology t({{0, 0}, {1, 0}, {2, 0}, {10, 0}, {11, 0}, {11, 1}, {30, 30}},
                        1.25);
  expect_matches_oracle(t);
  RingLayers walker;
  std::vector<NodeId> reached;
  for (const auto& ring : rings_of(walker, t, 4))
    reached.insert(reached.end(), ring.begin(), ring.end());
  std::sort(reached.begin(), reached.end());
  EXPECT_EQ(reached, (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(rings_of(walker, t, 6), (std::vector<std::vector<NodeId>>{{6}}));
}

TEST(RingLayers, ConcurrentWalkersSeeIdenticalLayers) {
  Rng rng(5);
  const net::Topology topo = net::Topology::random_geometric(80, 10.0, 2.0, rng);
  RingLayers reference_walker;
  std::vector<std::vector<std::vector<NodeId>>> reference(topo.node_count());
  for (NodeId a = 0; a < topo.node_count(); ++a)
    reference[a] = rings_of(reference_walker, topo, a);

  std::vector<std::vector<std::vector<std::vector<NodeId>>>> seen(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      // Every thread walks every anchor over the one shared topology,
      // starting at different points.
      RingLayers walker;
      seen[t].resize(topo.node_count());
      for (std::size_t k = 0; k < topo.node_count(); ++k) {
        NodeId a = static_cast<NodeId>((k + t * 7) % topo.node_count());
        seen[t][a] = rings_of(walker, topo, a);
      }
    });
  }
  for (auto& th : readers) th.join();
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(seen[t], reference) << "thread " << t;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(RingLayers, TouchingEveryAnchorOfALargeChainKeepsMemoryBounded) {
  // The scoped search keeps no per-anchor state: resolving one mark next to
  // each of 20000 anchors, plus one forged mark that widens across the whole
  // chain, must not grow the process by anything near n^2 ids (1.6 GB here).
  constexpr std::size_t kForwarders = 20000;
  const net::Topology chain = net::Topology::chain(kForwarders);
  const crypto::KeyStore keys(Bytes{'r', 'l'}, chain.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  Rng rng(3);

  const long before_kb = peak_rss_kb();
  ScopedVerifyStats stats;
  for (NodeId a = 1; a <= kForwarders; ++a) {
    net::Packet p;
    p.report = net::Report{a, 1, 1, a}.encode();
    scheme->mark(p, a, keys.key_unchecked(a), rng);
    p.delivered_by = a;
    const marking::VerifyResult r = scoped_verify_pnm(p, keys, chain, cfg, &stats);
    ASSERT_EQ(r.chain.size(), 1u) << "anchor " << a;
    ASSERT_EQ(r.chain[0].node, a);
  }
  EXPECT_EQ(stats.ring_expansions, 0u);

  net::Packet forged;
  forged.report = net::Report{0, 1, 1, 0}.encode();
  scheme->mark(forged, 1, keys.key_unchecked(1), rng);
  forged.marks[0].mac[0] ^= 0x01;  // no node's MAC verifies
  forged.delivered_by = 1;
  ScopedVerifyStats forged_stats;
  const marking::VerifyResult r = scoped_verify_pnm(forged, keys, chain, cfg, &forged_stats);
  EXPECT_TRUE(r.truncated_by_invalid);
  EXPECT_EQ(forged_stats.ring_expansions, kForwarders);  // ring 1 then out to node n+1

  EXPECT_LT(peak_rss_kb() - before_kb, 64L * 1024) << "peak RSS grew past 64 MB";
}

}  // namespace
}  // namespace pnm::sink
