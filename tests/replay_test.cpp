// Replay-attack tests (§7): duplicate suppression en route, the sink's
// replay guard, and the end-to-end story — a replaying mole cannot launder
// traceback onto the original reporter's path.
#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "core/protocol.h"
#include "crypto/keys.h"
#include "net/dedup.h"
#include "net/simulator.h"
#include "sink/replay_guard.h"
#include "sink/traceback.h"

namespace pnm {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ------------------------------------------------------------- dedup cache

TEST(DedupCache, DetectsRepeats) {
  net::DedupCache cache(8);
  Bytes a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FALSE(cache.seen_or_insert(a));
  EXPECT_TRUE(cache.seen_or_insert(a));
  EXPECT_FALSE(cache.seen_or_insert(b));
  EXPECT_TRUE(cache.contains(a));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DedupCache, EvictsFifoAtCapacity) {
  net::DedupCache cache(3);
  for (std::uint8_t i = 0; i < 4; ++i) cache.seen_or_insert(Bytes{i});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains(Bytes{0}));  // oldest evicted
  EXPECT_TRUE(cache.contains(Bytes{3}));
  // An evicted report is accepted again — the cache is only a recency window.
  EXPECT_FALSE(cache.seen_or_insert(Bytes{0}));
}

TEST(DedupCache, DifferentReportsNoFalsePositives) {
  net::DedupCache cache(4096);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    net::Report r{i, 1, 1, i};
    EXPECT_FALSE(cache.seen_or_insert(r.encode())) << i;
  }
}

// ------------------------------------------------------------ replay guard

TEST(ReplayGuard, FreshDuplicateStale) {
  sink::ReplayGuard guard;
  net::Packet p1;
  p1.report = net::Report{1, 10, 10, 100}.encode();
  EXPECT_EQ(guard.classify(p1), sink::ReplayVerdict::kFresh);
  EXPECT_EQ(guard.classify(p1), sink::ReplayVerdict::kDuplicate);

  // Same origin, newer timestamp: fresh.
  net::Packet p2;
  p2.report = net::Report{2, 10, 10, 200}.encode();
  EXPECT_EQ(guard.classify(p2), sink::ReplayVerdict::kFresh);

  // Same origin, older timestamp, new content: stale replay.
  net::Packet p3;
  p3.report = net::Report{3, 10, 10, 150}.encode();
  EXPECT_EQ(guard.classify(p3), sink::ReplayVerdict::kStale);

  // Different origin unaffected by the first origin's watermark.
  net::Packet p4;
  p4.report = net::Report{4, 20, 20, 50}.encode();
  EXPECT_EQ(guard.classify(p4), sink::ReplayVerdict::kFresh);
}

TEST(ReplayGuard, MalformedFlagged) {
  sink::ReplayGuard guard;
  net::Packet junk;
  junk.report = Bytes{1, 2};
  EXPECT_EQ(guard.classify(junk), sink::ReplayVerdict::kMalformed);
}

// -------------------------------------------------------------- end to end

class ReplayEndToEnd : public ::testing::Test {
 protected:
  ReplayEndToEnd()
      : topo_(net::Topology::chain(8)),
        routing_(topo_, net::RoutingStrategy::kTree),
        keys_(str_bytes("replay-master"), topo_.node_count()) {
    marking::SchemeConfig cfg;
    cfg.mark_probability = 0.4;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  }

  net::Topology topo_;
  net::RoutingTable routing_;
  crypto::KeyStore keys_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST_F(ReplayEndToEnd, ReplayedTrafficNeverPollutesTraceback) {
  net::Simulator sim(topo_, routing_, net::LinkModel{}, net::EnergyModel{}, 808);

  // Legit forwarders: dedup suppression + marking.
  std::vector<net::DedupCache> caches(topo_.node_count(), net::DedupCache(128));
  std::size_t suppressed = 0;
  for (NodeId v = 1; v <= 8; ++v) {
    Rng node_rng(900 + v);
    sim.set_node_handler(v, [&, v, node_rng](net::Packet& p, NodeId self) mutable {
      if (caches[self].seen_or_insert(p.report)) {
        ++suppressed;
        return false;
      }
      scheme_->mark(p, self, keys_.key_unchecked(self), node_rng);
      return true;
    });
  }

  // The sink: replay guard in front of the traceback engine.
  sink::ReplayGuard guard;
  sink::TracebackEngine engine(*scheme_, keys_, topo_);
  std::size_t rejected = 0;
  std::vector<net::Packet> overheard;  // what the mole will capture
  sim.set_sink_handler([&](net::Packet&& p, double) {
    overheard.push_back(p);
    if (guard.classify(p) != sink::ReplayVerdict::kFresh) {
      ++rejected;
      return;
    }
    if (p.bogus) engine.ingest(p);  // ground-truth suspicion for the test
  });

  // Phase 1: node 4 (an innocent reporter!) sends legitimate traffic.
  for (std::uint32_t i = 0; i < 30; ++i) {
    net::Packet legit;
    legit.report = net::Report{100 + i, 4, 0, 1000 + i}.encode();
    legit.true_source = 4;
    sim.inject(4, std::move(legit));
  }
  ASSERT_TRUE(sim.run());
  std::size_t captured_count = overheard.size();
  ASSERT_GT(captured_count, 0u);

  // Phase 2: mole at node 9 replays the captured packets (old marks intact).
  attack::KeyRing ring(keys_, {9});
  Rng mole_rng(42);
  attack::MoleContext ctx{9, scheme_.get(), &ring, &mole_rng};
  attack::ReplaySourceMole mole(9, overheard);
  for (int i = 0; i < 60; ++i) sim.inject(9, mole.make_packet(ctx));
  ASSERT_TRUE(sim.run());

  // Immediate replays die at the first forwarder with a warm cache, and
  // whatever sneaks through is rejected by the guard.
  EXPECT_GT(suppressed, 0u);
  EXPECT_EQ(engine.packets_ingested(), 0u);
  // No innocent node was ever implicated.
  EXPECT_FALSE(engine.analysis().identified);
}

TEST_F(ReplayEndToEnd, StaleReplaySurvivingCachesStillCaughtAtSink) {
  // Simulate cache aging: tiny caches that the legit phase overflows.
  net::Simulator sim(topo_, routing_, net::LinkModel{}, net::EnergyModel{}, 909);
  std::vector<net::DedupCache> caches(topo_.node_count(), net::DedupCache(2));
  for (NodeId v = 1; v <= 8; ++v) {
    Rng node_rng(700 + v);
    sim.set_node_handler(v, [&, v, node_rng](net::Packet& p, NodeId self) mutable {
      if (caches[self].seen_or_insert(p.report)) return false;
      scheme_->mark(p, self, keys_.key_unchecked(self), node_rng);
      return true;
    });
  }

  sink::ReplayGuard guard;
  std::size_t stale = 0, fresh = 0;
  std::vector<net::Packet> overheard;
  sim.set_sink_handler([&](net::Packet&& p, double) {
    overheard.push_back(p);
    auto verdict = guard.classify(p);
    if (verdict == sink::ReplayVerdict::kFresh) ++fresh;
    if (verdict == sink::ReplayVerdict::kStale ||
        verdict == sink::ReplayVerdict::kDuplicate)
      ++stale;
  });

  for (std::uint32_t i = 0; i < 20; ++i) {
    net::Packet legit;
    legit.report = net::Report{500 + i, 4, 0, 2000 + i}.encode();
    legit.true_source = 4;
    sim.inject(4, std::move(legit));
  }
  ASSERT_TRUE(sim.run());
  std::size_t legit_fresh = fresh;

  // Replays: caches of size 2 have long forgotten the early reports, so the
  // packets reach the sink — where the timestamp watermark flags them.
  attack::KeyRing ring(keys_, {9});
  Rng mole_rng(43);
  attack::MoleContext ctx{9, scheme_.get(), &ring, &mole_rng};
  attack::ReplaySourceMole mole(9, overheard);
  for (int i = 0; i < 40; ++i) sim.inject(9, mole.make_packet(ctx));
  ASSERT_TRUE(sim.run());

  EXPECT_EQ(fresh, legit_fresh);  // not one replay classified fresh
  EXPECT_GT(stale, 0u);
}

}  // namespace
}  // namespace pnm
