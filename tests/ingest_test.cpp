// Streaming-ingest tests: the bounded queue's backpressure and ordering, the
// pipeline's determinism contract (same trace → byte-identical verdict digest
// and identical accusations, serial or parallel), the record→replay
// end-to-end equivalence the whole subsystem exists for, and crash-freedom on
// damaged traces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <random>

#include "core/campaign.h"
#include "crypto/keys.h"
#include "ingest/bounded_queue.h"
#include "ingest/merger.h"
#include "ingest/pipeline.h"
#include "ingest/replay.h"
#include "ingest/shard_router.h"
#include "ingest/stream_digest.h"
#include "net/report.h"
#include "net/wire.h"
#include "obs/provenance.h"
#include "sink/order_matrix.h"
#include "sink/traceback.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace pnm {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue.

TEST(BoundedQueue, FifoOrderAcrossBatchedPops) {
  ingest::BoundedQueue<int> q(64);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(q.push(int(i)));
  q.close();
  std::vector<int> drained;
  std::vector<int> batch;
  while (q.pop_up_to(7, batch)) {
    drained.insert(drained.end(), batch.begin(), batch.end());
    batch.clear();
  }
  ASSERT_EQ(drained.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(drained[static_cast<std::size_t>(i)], i);
}

TEST(BoundedQueue, PushBlocksAtCapacityUntilConsumerDrains) {
  ingest::BoundedQueue<int> q(4);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(q.push(int(i)));
      pushed.fetch_add(1);
    }
    q.close();
  });

  // Give the producer time to slam into the capacity wall.
  for (int spin = 0; spin < 200 && pushed.load() < 4; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_LE(pushed.load(), 5);  // 4 queued + at most 1 in flight

  std::vector<int> drained;
  std::vector<int> batch;
  while (q.pop_up_to(3, batch)) {
    drained.insert(drained.end(), batch.begin(), batch.end());
    batch.clear();
  }
  producer.join();
  ASSERT_EQ(drained.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(drained[static_cast<std::size_t>(i)], i);
  EXPECT_LE(q.high_water(), 4u);
  EXPECT_GE(q.high_water(), 1u);
}

TEST(BoundedQueue, PushAfterCloseIsRejected) {
  ingest::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  q.close();
  EXPECT_FALSE(q.push(2));
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_up_to(8, batch));  // drains the pre-close item
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(q.pop_up_to(8, batch));  // closed and drained
}

TEST(BoundedQueue, PushAllKeepsFifoOrderAcrossBatches) {
  ingest::BoundedQueue<int> q(64);
  std::vector<int> first = {0, 1, 2, 3, 4};
  std::vector<int> second = {5, 6, 7};
  EXPECT_EQ(q.push_all(first), 5u);
  ASSERT_TRUE(q.push(8));
  EXPECT_EQ(q.push_all(second), 3u);
  q.close();
  std::vector<int> drained;
  std::vector<int> batch;
  while (q.pop_up_to(4, batch)) {
    drained.insert(drained.end(), batch.begin(), batch.end());
    batch.clear();
  }
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4, 8, 5, 6, 7}));
  EXPECT_EQ(q.high_water(), 9u);
}

TEST(BoundedQueue, PushAllLargerThanCapacityCompletesAgainstSlowConsumer) {
  // Capacity 1, a batch of 8: the producer must wake the consumer after each
  // item that fits, or both sides wait forever mid-batch.
  ingest::BoundedQueue<int> q(1);
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
  std::size_t pushed = 0;
  std::thread producer([&] {
    pushed = q.push_all(items);
    q.close();
  });
  std::vector<int> drained;
  std::vector<int> batch;
  while (q.pop_up_to(8, batch)) {
    drained.insert(drained.end(), batch.begin(), batch.end());
    batch.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  producer.join();
  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(q.high_water(), 1u);
}

TEST(BoundedQueue, PushAllReturnsPartialCountOnClose) {
  ingest::BoundedQueue<std::unique_ptr<int>> q(2);
  std::vector<std::unique_ptr<int>> items;
  for (int i = 0; i < 5; ++i) items.push_back(std::make_unique<int>(i));
  std::atomic<bool> returned{false};
  std::size_t pushed = 0;
  std::thread producer([&] {
    pushed = q.push_all(items);
    returned = true;
  });
  // Nothing drains: the producer fills the queue and blocks mid-batch until
  // close() refuses the rest.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.close();
  producer.join();
  EXPECT_EQ(pushed, 2u);
  for (std::size_t i = 2; i < items.size(); ++i) {  // refused items stay put
    ASSERT_TRUE(items[i]) << i;
    EXPECT_EQ(*items[i], static_cast<int>(i));
  }
  std::vector<std::unique_ptr<int>> batch;
  ASSERT_TRUE(q.pop_up_to(8, batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(*batch[0], 0);
  EXPECT_EQ(*batch[1], 1);
  EXPECT_FALSE(q.pop_up_to(8, batch));
}

// ---------------------------------------------------------------------------
// ShardRouter: flow affinity and balance.

net::Packet flow_packet(std::uint16_t loc_x, std::uint16_t loc_y, NodeId hop,
                        std::uint32_t event) {
  net::Packet p;
  p.report = net::Report{event, loc_x, loc_y, event}.encode();
  p.delivered_by = hop;
  return p;
}

TEST(ShardRouter, AllRecordsOfOneFlowLandOnOneShard) {
  // A flow = (claimed origin location, previous hop). Event/timestamp vary
  // per record — they must not affect routing.
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ingest::ShardRouter router(shards);
    std::size_t home = router.shard_of(flow_packet(7, 9, 3, 0));
    for (std::uint32_t event = 1; event < 200; ++event) {
      EXPECT_EQ(router.shard_of(flow_packet(7, 9, 3, event)), home)
          << "shards=" << shards << " event=" << event;
    }
  }
}

TEST(ShardRouter, DistinctFlowsSpreadAcrossShards) {
  // 64 flows over 8 shards: every shard must see work, and no shard may
  // hoard more than half the flows (loose bounds — the hash is fixed, so
  // this is a deterministic property of the router, not a flaky statistic).
  ingest::ShardRouter router(8);
  std::vector<std::size_t> per_shard(8, 0);
  for (std::uint16_t f = 0; f < 64; ++f)
    ++per_shard[router.shard_of(flow_packet(static_cast<std::uint16_t>(3 + f), 3, 1, f))];
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_GE(per_shard[s], 1u) << "shard " << s << " got no flows";
    EXPECT_LE(per_shard[s], 32u) << "shard " << s << " hoards flows";
  }
}

TEST(ShardRouter, UndecodableReportStillRoutesDeterministically) {
  ingest::ShardRouter router(4);
  net::Packet garbled;
  garbled.report = Bytes{0x01, 0x02, 0x03};  // too short for a Report
  garbled.delivered_by = 5;
  std::size_t first = router.shard_of(garbled);
  EXPECT_EQ(router.shard_of(garbled), first);
  EXPECT_LT(first, 4u);
}

TEST(ShardRouter, SingleShardRoutesEverythingToLaneZero) {
  ingest::ShardRouter router(1);
  for (std::uint16_t f = 0; f < 32; ++f)
    EXPECT_EQ(router.shard_of(flow_packet(f, f, f, f)), 0u);
}

// ---------------------------------------------------------------------------
// TracebackMerger: deterministic recombination of shard accumulators.

// Build synthetic fold entries over a small chain: entry i's chain walks two
// consecutive nodes, so order evidence accumulates exactly as a real verified
// stream's would.
std::vector<ingest::FoldEntry> synthetic_entries(std::size_t count) {
  std::vector<ingest::FoldEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ingest::FoldEntry e;
    e.seq = i;
    e.delivered_by = static_cast<NodeId>(1 + i % 3);
    marking::VerifiedMark up, down;
    up.node = static_cast<NodeId>(1 + i % 5);
    up.mark_index = 0;
    down.node = static_cast<NodeId>(1 + (i + 1) % 5);
    down.mark_index = 1;
    e.verdict.chain = {up, down};
    e.verdict.total_marks = 2;
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(i));
    w.u16(up.node);
    w.u16(down.node);
    e.fingerprint = std::move(w).take();
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(TracebackMerger, RandomizedCompletionOrderIsDigestStable) {
  constexpr std::size_t kEntries = 500;
  net::Topology topo = net::Topology::chain(6);
  crypto::KeyStore keys(Bytes{0x01}, topo.node_count());
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, {});

  // Reference: sequential submission, one entry at a time.
  sink::TracebackEngine ref_engine(*scheme, keys, topo);
  ingest::TracebackMerger ref(&ref_engine);
  for (auto& e : synthetic_entries(kEntries)) {
    std::vector<ingest::FoldEntry> one;
    one.push_back(std::move(e));
    ref.submit(std::move(one));
  }
  std::string ref_digest = ref.digest_hex();
  ASSERT_EQ(ref.folded(), kEntries);

  // Adversarial schedules: shard the entries by flow-ish stripes, chop each
  // shard's run into batches, and submit the batches in a different random
  // global completion order each round. The digest and the engine state must
  // never move.
  std::mt19937 rng(1234);
  for (int round = 0; round < 10; ++round) {
    std::size_t shards = 1 + static_cast<std::size_t>(rng() % 8);
    std::vector<std::vector<ingest::FoldEntry>> batches;
    {
      std::vector<std::vector<ingest::FoldEntry>> per_shard(shards);
      for (auto& e : synthetic_entries(kEntries))
        per_shard[e.seq % shards].push_back(std::move(e));
      for (auto& lane : per_shard) {
        for (std::size_t start = 0; start < lane.size();) {
          std::size_t n = std::min<std::size_t>(1 + rng() % 37, lane.size() - start);
          batches.emplace_back(
              std::make_move_iterator(lane.begin() + static_cast<long>(start)),
              std::make_move_iterator(lane.begin() + static_cast<long>(start + n)));
          start += n;
        }
      }
    }
    std::shuffle(batches.begin(), batches.end(), rng);

    sink::TracebackEngine engine(*scheme, keys, topo);
    ingest::TracebackMerger merger(&engine);
    for (auto& b : batches) merger.submit(std::move(b));

    EXPECT_EQ(merger.folded(), kEntries) << "round " << round;
    EXPECT_EQ(merger.pending(), 0u) << "round " << round;
    EXPECT_EQ(merger.digest_hex(), ref_digest) << "round " << round;
    EXPECT_EQ(engine.packets_ingested(), ref_engine.packets_ingested());
    EXPECT_EQ(engine.marks_verified(), ref_engine.marks_verified());
    EXPECT_EQ(engine.markers_seen(), ref_engine.markers_seen());
    EXPECT_EQ(engine.analysis().identified, ref_engine.analysis().identified);
    EXPECT_EQ(engine.analysis().stop_node, ref_engine.analysis().stop_node);
    EXPECT_EQ(engine.analysis().suspects, ref_engine.analysis().suspects);
  }
}

TEST(TracebackMerger, DroppedSequenceNumbersDoNotStallTheFrontier) {
  ingest::TracebackMerger merger(nullptr);
  auto entries = synthetic_entries(10);
  // Tombstone seq 0 and 5; the rest arrive out of order behind them.
  std::vector<ingest::FoldEntry> batch;
  for (std::size_t i : {9, 8, 7, 6, 4, 3, 2, 1})
    batch.push_back(std::move(entries[i]));
  ingest::FoldEntry t0, t5;
  t0.seq = 0;
  t0.dropped = true;
  t5.seq = 5;
  t5.dropped = true;
  batch.push_back(std::move(t5));
  merger.submit(std::move(batch));
  EXPECT_EQ(merger.folded(), 0u);  // still gated on seq 0
  std::vector<ingest::FoldEntry> last;
  last.push_back(std::move(t0));
  merger.submit(std::move(last));
  EXPECT_EQ(merger.folded(), 8u);  // all 10 seqs consumed, 2 dropped
  EXPECT_EQ(merger.pending(), 0u);
}

TEST(OrderGraph, PerShardPartialGraphsMergeToTheSerialRelation) {
  // The mergeable-state property (cf. algebraic traceback): shard the
  // evidence stream, accumulate per-shard order matrices, merge — the
  // relation must equal the one graph that saw everything, in any merge
  // order.
  auto entries = synthetic_entries(200);
  sink::OrderGraph serial;
  std::vector<sink::OrderGraph> shard_graph(4);
  for (const auto& e : entries) {
    sink::OrderGraph& g = shard_graph[e.seq % 4];
    for (std::size_t i = 0; i < e.verdict.chain.size(); ++i) {
      serial.observe(e.verdict.chain[i].node);
      g.observe(e.verdict.chain[i].node);
      if (i > 0) {
        serial.add_order(e.verdict.chain[i - 1].node, e.verdict.chain[i].node);
        g.add_order(e.verdict.chain[i - 1].node, e.verdict.chain[i].node);
      }
    }
  }
  for (auto order : {std::vector<int>{0, 1, 2, 3}, std::vector<int>{3, 1, 0, 2}}) {
    sink::OrderGraph merged;
    for (int s : order) merged.merge(shard_graph[static_cast<std::size_t>(s)]);
    EXPECT_EQ(merged.observed_count(), serial.observed_count());
    EXPECT_EQ(merged.order_count(), serial.order_count());
    EXPECT_EQ(merged.has_loop(), serial.has_loop());
    for (NodeId a : serial.observed_nodes())
      for (NodeId b : serial.observed_nodes())
        EXPECT_EQ(merged.reaches(a, b), serial.reaches(a, b))
            << static_cast<int>(a) << "->" << static_cast<int>(b);
  }
}

// ---------------------------------------------------------------------------
// Record → replay equivalence and determinism. One recorded campaign is
// shared across the tests below (recording is the expensive step).

struct RecordedCampaign {
  std::string path;
  core::ChainExperimentResult live;
};

const RecordedCampaign& recorded_campaign() {
  static const RecordedCampaign* fixture = [] {
    auto* f = new RecordedCampaign;
    // ctest runs every TEST as its own process against the same TempDir;
    // a shared filename would let one process truncate the trace while
    // another replays it.
    f->path = ::testing::TempDir() + "/ingest_test_campaign." +
              std::to_string(::getpid()) + ".pnmtrace";
    core::ChainExperimentConfig cfg;
    cfg.forwarders = 8;
    cfg.packets = 150;
    cfg.seed = 21;
    cfg.attack = attack::AttackKind::kRemoval;
    cfg.record_path = f->path;
    f->live = core::run_chain_experiment(cfg);
    return f;
  }();
  return *fixture;
}

TEST(ReplayEquivalence, RecordedCampaignWroteEveryDeliveredPacket) {
  const auto& rc = recorded_campaign();
  EXPECT_GT(rc.live.packets_delivered, 0u);
  EXPECT_EQ(rc.live.records_recorded, rc.live.packets_delivered);
}

TEST(ReplayEquivalence, ReplayReproducesLiveAccusations) {
  const auto& rc = recorded_campaign();
  ingest::ReplayResult r = ingest::replay_file(rc.path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.records, rc.live.packets_delivered);
  EXPECT_EQ(r.marks_verified, rc.live.marks_verified);
  // The accusation set — the subsystem's acceptance bar.
  EXPECT_EQ(r.analysis.identified, rc.live.final_analysis.identified);
  EXPECT_EQ(r.analysis.stop_node, rc.live.final_analysis.stop_node);
  EXPECT_EQ(r.analysis.suspects, rc.live.final_analysis.suspects);
  EXPECT_EQ(r.analysis.via_loop, rc.live.final_analysis.via_loop);
}

TEST(ReplayEquivalence, SerialAndParallelReplaysAreByteIdentical) {
  const auto& rc = recorded_campaign();
  ingest::ReplayOptions serial;
  serial.threads = 1;
  ingest::ReplayResult a = ingest::replay_file(rc.path, serial);
  ASSERT_TRUE(a.ok) << a.error;

  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ingest::ReplayOptions parallel;
    parallel.threads = threads;
    parallel.batch_size = 16;  // different batching must not matter either
    ingest::ReplayResult b = ingest::replay_file(rc.path, parallel);
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.verdict_digest, b.verdict_digest) << "threads=" << threads;
    EXPECT_EQ(a.analysis.stop_node, b.analysis.stop_node);
    EXPECT_EQ(a.analysis.suspects, b.analysis.suspects);
    EXPECT_EQ(a.marks_verified, b.marks_verified);
  }
}

TEST(ReplayEquivalence, ShardedReplaysAreByteIdenticalToSerial) {
  // The tentpole invariant: the sharded pipeline (flow-affine routing,
  // per-shard verify lanes, seq-ordered merge) must produce the exact
  // verdict digest of the single-lane pipeline for every shard count,
  // including shard counts that collide all flows into few lanes.
  const auto& rc = recorded_campaign();
  ingest::ReplayOptions serial;
  serial.shards = 1;
  ingest::ReplayResult a = ingest::replay_file(rc.path, serial);
  ASSERT_TRUE(a.ok) << a.error;

  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ingest::ReplayOptions sharded;
    sharded.shards = shards;
    sharded.batch_size = 16;  // different batching must not matter either
    ingest::ReplayResult b = ingest::replay_file(rc.path, sharded);
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.verdict_digest, b.verdict_digest) << "shards=" << shards;
    EXPECT_EQ(a.analysis.stop_node, b.analysis.stop_node);
    EXPECT_EQ(a.analysis.suspects, b.analysis.suspects);
    EXPECT_EQ(a.marks_verified, b.marks_verified);
    EXPECT_EQ(b.stats.shards, shards);
    EXPECT_EQ(b.stats.records, a.stats.records);
    // Every record is accounted to exactly one shard lane.
    std::size_t sum = 0;
    for (std::size_t n : b.stats.shard_records) sum += n;
    EXPECT_EQ(sum, b.stats.records);
  }
}

TEST(ReplayEquivalence, ShardsComposeWithVerifierThreads) {
  const auto& rc = recorded_campaign();
  ingest::ReplayResult a = ingest::replay_file(rc.path);
  ASSERT_TRUE(a.ok) << a.error;
  ingest::ReplayOptions opts;
  opts.shards = 2;
  opts.threads = 2;  // 2 lanes × 2 verifier threads each
  ingest::ReplayResult b = ingest::replay_file(rc.path, opts);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.verdict_digest, b.verdict_digest);
  EXPECT_EQ(a.analysis.suspects, b.analysis.suspects);
}

TEST(ReplayEquivalence, ScopedStrategyLandsOnSameAccusations) {
  const auto& rc = recorded_campaign();
  ingest::ReplayResult exhaustive = ingest::replay_file(rc.path);
  ingest::ReplayOptions opts;
  opts.scoped = true;
  ingest::ReplayResult scoped = ingest::replay_file(rc.path, opts);
  ASSERT_TRUE(scoped.ok) << scoped.error;
  EXPECT_EQ(scoped.analysis.identified, exhaustive.analysis.identified);
  EXPECT_EQ(scoped.analysis.stop_node, exhaustive.analysis.stop_node);
  EXPECT_EQ(scoped.analysis.suspects, exhaustive.analysis.suspects);
}

TEST(ReplayEquivalence, ReplayingTwiceIsIdempotent) {
  const auto& rc = recorded_campaign();
  ingest::ReplayResult a = ingest::replay_file(rc.path);
  ingest::ReplayResult b = ingest::replay_file(rc.path);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.verdict_digest, b.verdict_digest);
  EXPECT_FALSE(a.verdict_digest.empty());
}

// ---------------------------------------------------------------------------
// Replay hardening.

std::string slurp(const std::string& path) {
  std::string blob;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return blob;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) blob.append(buf, n);
  std::fclose(f);
  return blob;
}

TEST(ReplayHardening, HeaderlessTraceFailsCleanly) {
  std::ostringstream out;
  trace::TraceMeta empty;  // no seed/forwarders/scheme
  trace::TraceWriter writer(out, empty);
  std::istringstream in(out.str());
  trace::TraceReader reader(in);
  ingest::ReplayResult r = ingest::replay_trace(reader);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("metadata"), std::string::npos);
}

TEST(ReplayHardening, CorruptedAndTruncatedTraceNeverCrashes) {
  const auto& rc = recorded_campaign();
  std::string blob = slurp(rc.path);
  ASSERT_FALSE(blob.empty());

  // Flip a byte in every 64-byte window past the header, one at a time.
  std::size_t flip_errors = 0;
  for (std::size_t pos = 64; pos < blob.size(); pos += 64) {
    std::string damaged = blob;
    damaged[pos] ^= 0x20;
    std::istringstream in(damaged);
    trace::TraceReader reader(in);
    if (!reader.valid()) continue;  // header damage: rejected up front
    ingest::ReplayResult r = ingest::replay_trace(reader);
    if (!r.ok) continue;
    flip_errors += r.stats.crc_failures + r.stats.bad_records + r.stats.decode_failures;
    EXPECT_LE(r.stats.crc_failures + r.stats.bad_records, 1u);
  }
  EXPECT_GT(flip_errors, 0u);  // at least some flips landed in record frames

  // Truncate at a sweep of lengths; replay must fail cleanly or finish with
  // the truncated flag — never crash, never hang.
  for (std::size_t keep = 0; keep < blob.size(); keep += 97) {
    std::istringstream in(blob.substr(0, keep));
    trace::TraceReader reader(in);
    if (!reader.valid()) continue;
    ingest::ReplayResult r = ingest::replay_trace(reader);
    if (r.ok && keep < blob.size()) {
      EXPECT_TRUE(r.stats.truncated || r.stats.records > 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level behavior that replay_file doesn't exercise directly.

TEST(Pipeline, TinyQueueForcesBackpressureAndKeepsOrder) {
  const auto& rc = recorded_campaign();
  trace::TraceReader reader(rc.path);
  ASSERT_TRUE(reader.valid());

  ingest::ReplayOptions cramped;
  cramped.queue_capacity = 2;  // producer must block constantly
  cramped.batch_size = 1;
  ingest::ReplayResult r = ingest::replay_trace(reader, cramped);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.stats.queue_high_water, 2u);

  ingest::ReplayResult reference = ingest::replay_file(rc.path);
  EXPECT_EQ(r.verdict_digest, reference.verdict_digest);
}

TEST(Pipeline, CountersMeterRecordsAndQueueDepth) {
  const auto& rc = recorded_campaign();
  util::Counters counters;
  ingest::ReplayOptions opts;
  opts.counters = &counters;
  ingest::ReplayResult r = ingest::replay_file(rc.path, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(counters.get(util::Metric::kTraceRecordsRead), r.stats.records);
  EXPECT_EQ(counters.get(util::Metric::kIngestRecords), r.stats.records);
  EXPECT_EQ(counters.get(util::Metric::kTraceCrcErrors), 0u);
  EXPECT_GE(counters.get(util::Metric::kIngestQueueHighWater), 1u);
}

TEST(Pipeline, ExhaustiveVerifyMetersIntoCallerCounters) {
  // An exhaustive replay given its own Counters must meter the verifier's
  // PRFs, MAC checks and verified packets there, and leave the process-wide
  // instance untouched.
  const auto& rc = recorded_campaign();
  util::Counters& global = util::Counters::global();
  const std::uint64_t prf0 = global.get(util::Metric::kPrfEvals);
  const std::uint64_t mac0 = global.get(util::Metric::kMacChecks);
  const std::uint64_t verified0 = global.get(util::Metric::kPacketsVerified);

  util::Counters counters;
  trace::TraceReader reader(rc.path);
  ASSERT_TRUE(reader.valid());
  ingest::ReplayOptions opts;
  opts.counters = &counters;
  ingest::ReplayResult r = ingest::replay_trace(reader, opts);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_GT(r.marks_verified, 0u);
  EXPECT_GT(counters.get(util::Metric::kPrfEvals), 0u);
  EXPECT_GE(counters.get(util::Metric::kMacChecks), r.marks_verified);
  EXPECT_EQ(counters.get(util::Metric::kPacketsVerified), r.stats.records);

  EXPECT_EQ(global.get(util::Metric::kPrfEvals), prf0);
  EXPECT_EQ(global.get(util::Metric::kMacChecks), mac0);
  EXPECT_EQ(global.get(util::Metric::kPacketsVerified), verified0);
}

// ---------------------------------------------------------------------------
// Daemon seams: stream-tagged pushes, quiescence, shard-gauge lifecycle.
// These are the Pipeline hooks `pnm serve` builds on; tests/serve_test.cpp
// exercises them end-to-end over sockets, these pin the contracts in-process.

// The verify stack replay_file assembles internally, with the Pipeline left
// exposed so a test can drive push()/run() directly. Campaign parameters
// mirror recorded_campaign().
struct LiveStack {
  static ingest::PipelineConfig with_shards(ingest::PipelineConfig pcfg,
                                            std::size_t shards) {
    pcfg.shards = shards;
    return pcfg;
  }

  net::Topology topo;
  crypto::KeyStore keys;
  std::unique_ptr<marking::MarkingScheme> scheme;
  sink::VerifierBank bank;
  sink::TracebackEngine engine;
  ingest::Pipeline pipeline;

  LiveStack(util::Counters& counters, std::size_t shards,
            ingest::PipelineConfig pcfg = {})
      : topo(net::Topology::chain(8)),
        keys(core::campaign_master_secret(21), topo.node_count()),
        scheme(marking::make_scheme(marking::SchemeKind::kPnm, {})),
        bank(*scheme, keys, shards, {}, &topo, &counters),
        engine(*scheme, keys, topo),
        pipeline(bank, &engine, with_shards(pcfg, shards), &counters) {}
};

// Streams every record of the recorded campaign into the pipeline with a
// per-stream tap attached, one push_batch per record; returns the number of
// records pushed.
std::uint64_t push_stream(ingest::Pipeline& pipeline, const std::string& path,
                          std::shared_ptr<ingest::StreamSink> sink) {
  trace::TraceReader reader(path);
  EXPECT_TRUE(reader.valid());
  std::uint64_t stream_seq = 0;
  while (auto outcome = reader.next()) {
    if (outcome->status != trace::ReadStatus::kRecord) continue;
    auto packet = net::decode_packet(outcome->record.wire);
    if (!packet) continue;
    packet->delivered_by = outcome->record.delivered_by;
    ingest::PushRecord record{std::move(*packet), outcome->record.time_s()};
    if (pipeline.push_batch(std::span(&record, 1), sink, stream_seq) != 1) break;
    ++stream_seq;
  }
  return stream_seq;
}

TEST(Pipeline, StreamTaggedPushMatchesReplayDigest) {
  // The serve determinism contract at its root: one client's records pushed
  // with a StreamDigest tap fold to the exact `pnm replay` digest of that
  // client's trace — whatever the shard count.
  const auto& rc = recorded_campaign();
  ingest::ReplayResult reference = ingest::replay_file(rc.path);
  ASSERT_TRUE(reference.ok) << reference.error;

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    util::Counters counters;
    LiveStack stack(counters, shards);
    auto digest = std::make_shared<ingest::StreamDigest>();
    stack.pipeline.attach_producer();
    EXPECT_EQ(stack.pipeline.active_producers(), 1u);
    std::uint64_t pushed = push_stream(stack.pipeline, rc.path, digest);
    stack.pipeline.detach_producer();
    EXPECT_FALSE(stack.pipeline.quiescent());  // records sit in the queues
    stack.pipeline.close();
    stack.pipeline.run();

    ASSERT_TRUE(digest->wait_for_records(pushed, std::chrono::milliseconds(5000)));
    EXPECT_EQ(digest->records(), reference.stats.records);
    EXPECT_EQ(digest->marks(), reference.marks_verified);
    EXPECT_EQ(digest->digest_hex(), reference.verdict_digest)
        << "shards=" << shards;
    // Single client: the global arrival order is the stream order, so the
    // run digest coincides too.
    EXPECT_EQ(stack.pipeline.verdict_digest(), reference.verdict_digest);
    EXPECT_EQ(stack.pipeline.active_producers(), 0u);
  }
}

TEST(Pipeline, ConcurrentStreamTapsFoldIndependentDigests) {
  // Two sessions replaying the same trace interleave arbitrarily in the
  // global arrival order, yet each tap must still fold its own stream's
  // replay digest.
  const auto& rc = recorded_campaign();
  ingest::ReplayResult reference = ingest::replay_file(rc.path);
  ASSERT_TRUE(reference.ok) << reference.error;

  util::Counters counters;
  LiveStack stack(counters, 2);
  std::shared_ptr<ingest::StreamDigest> digests[2] = {
      std::make_shared<ingest::StreamDigest>(),
      std::make_shared<ingest::StreamDigest>()};
  std::uint64_t pushed[2] = {0, 0};
  std::vector<std::thread> producers;
  for (int c = 0; c < 2; ++c) {
    producers.emplace_back([&, c] {
      stack.pipeline.attach_producer();
      pushed[c] = push_stream(stack.pipeline, rc.path, digests[c]);
      stack.pipeline.detach_producer();
    });
  }
  for (auto& t : producers) t.join();
  stack.pipeline.close();
  stack.pipeline.run();

  EXPECT_TRUE(stack.pipeline.quiescent());
  EXPECT_TRUE(stack.pipeline.wait_quiescent(std::chrono::milliseconds(0)));
  EXPECT_EQ(stack.pipeline.stats().records, 2 * reference.stats.records);
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(digests[c]->wait_for_records(pushed[c],
                                             std::chrono::milliseconds(5000)));
    EXPECT_EQ(digests[c]->records(), reference.stats.records) << "client " << c;
    EXPECT_EQ(digests[c]->digest_hex(), reference.verdict_digest)
        << "client " << c;
  }
}

TEST(Pipeline, AbandonedStreamSinkOutlivesProducer) {
  // A serve session that dies mid-stream (peer disconnect) drops its digest
  // handle while its records still sit in the shard queues. The pipeline
  // co-owns the sink per queued item, so the lanes must still be able to
  // fold into it — under ASan this test is the use-after-free regression.
  const auto& rc = recorded_campaign();
  util::Counters counters;
  LiveStack stack(counters, 2);
  std::weak_ptr<ingest::StreamDigest> watch;
  std::uint64_t pushed = 0;
  {
    auto digest = std::make_shared<ingest::StreamDigest>();
    watch = digest;
    pushed = push_stream(stack.pipeline, rc.path, digest);
  }  // producer handle gone; every record is still queued
  ASSERT_GT(pushed, 0u);
  EXPECT_FALSE(watch.expired());  // queued items keep the sink alive
  stack.pipeline.close();
  stack.pipeline.run();
  EXPECT_EQ(stack.pipeline.stats().records, static_cast<std::size_t>(pushed));
  EXPECT_TRUE(watch.expired());  // folded and released once the run drained
}

TEST(Pipeline, ShardGaugeLifecycleAcrossRestarts) {
  // A daemon that restarts its pipeline with a different shard count must not
  // export stale `ingest_queue_depth_shard<i>` series forever: retirement
  // hides them, the next construction revives exactly the lanes it uses.
  const auto& rc = recorded_campaign();
  util::Counters counters;
  {
    LiveStack stack(counters, 2);
    trace::TraceReader reader(rc.path);
    ASSERT_TRUE(reader.valid());
    stack.pipeline.run_from_trace(reader);
    EXPECT_TRUE(counters.registry().exported("ingest_queue_depth_shard0"));
    EXPECT_TRUE(counters.registry().exported("ingest_queue_depth_shard1"));
    stack.pipeline.retire_shard_gauges();
    EXPECT_FALSE(counters.registry().exported("ingest_queue_depth_shard0"));
    EXPECT_FALSE(counters.registry().exported("ingest_queue_depth_shard1"));
  }

  // Restart over the same registry with one lane: shard0 revives (zeroed),
  // the stale shard1 series stays hidden from scrapes.
  LiveStack stack(counters, 1);
  EXPECT_TRUE(counters.registry().exported("ingest_queue_depth_shard0"));
  EXPECT_FALSE(counters.registry().exported("ingest_queue_depth_shard1"));
  trace::TraceReader reader(rc.path);
  ASSERT_TRUE(reader.valid());
  stack.pipeline.run_from_trace(reader);
  EXPECT_EQ(stack.pipeline.stats().shards, 1u);
  EXPECT_FALSE(counters.registry().exported("ingest_queue_depth_shard1"));
}

// ---------------------------------------------------------------------------
// The merge stage: lanes only verify, one thread folds.

const std::string kCorpusTrace = std::string(PNM_CORPUS_DIR) + "/mark-removal.pnmtrace";

TEST(MergeStage, LanesNeverFold) {
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(1);
  pc.clear();
  ingest::ReplayOptions opts;
  opts.shards = 2;
  ingest::ReplayResult r = ingest::replay_file(kCorpusTrace, opts);
  ASSERT_TRUE(r.ok) << r.error;

  std::set<std::uint32_t> merge_tids, verify_tids;
  std::size_t folds = 0;
  for (const obs::ProvEvent& e : pc.snapshot()) {
    if (e.stage == obs::ProvStage::kMerge || e.stage == obs::ProvStage::kFold)
      merge_tids.insert(e.tid);
    if (e.stage == obs::ProvStage::kFold) ++folds;
    if (e.stage == obs::ProvStage::kVerify) verify_tids.insert(e.tid);
  }
  EXPECT_EQ(folds, r.stats.records);
  ASSERT_EQ(merge_tids.size(), 1u);
  ASSERT_FALSE(verify_tids.empty());
  EXPECT_EQ(verify_tids.count(*merge_tids.begin()), 0u);

  pc.clear();
  pc.set_sample_rate(prior);
}

TEST(MergeStage, PushRacingCloseStillReachesTheFrontier) {
  // Producers keep pushing while close() lands: every push that lost the race
  // took a seq and must be tombstoned, so once run() returns (and the
  // producers have seen their rejection) nothing is left in flight.
  std::vector<net::Packet> packets;
  {
    trace::TraceReader reader(kCorpusTrace);
    ASSERT_TRUE(reader.valid());
    while (auto outcome = reader.next()) {
      if (outcome->status != trace::ReadStatus::kRecord) continue;
      auto packet = net::decode_packet(outcome->record.wire);
      ASSERT_TRUE(packet);
      packet->delivered_by = outcome->record.delivered_by;
      packets.push_back(std::move(*packet));
    }
  }
  ASSERT_FALSE(packets.empty());

  for (int round = 0; round < 8; ++round) {
    util::Counters counters;
    ingest::PipelineConfig pcfg;
    pcfg.queue_capacity = 4;  // producers block on backpressure mid-race
    pcfg.batch_size = 2;
    LiveStack stack(counters, 2, pcfg);
    std::thread runner([&] { stack.pipeline.run(); });
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = static_cast<std::size_t>(p);; ++i) {
          ingest::PushRecord record{packets[i % packets.size()]};
          if (stack.pipeline.push_batch(std::span(&record, 1), nullptr, 0) != 1) return;
        }
      });
    }
    while (stack.pipeline.seqs_issued() < 64 + 16 * static_cast<std::uint64_t>(round))
      std::this_thread::yield();
    stack.pipeline.close();
    runner.join();
    for (auto& t : producers) t.join();
    EXPECT_EQ(stack.pipeline.merge_frontier(), stack.pipeline.seqs_issued())
        << "round " << round;
    EXPECT_TRUE(stack.pipeline.quiescent());
    EXPECT_LT(stack.pipeline.stats().records, stack.pipeline.seqs_issued());
  }
}

TEST(MergeStage, BatchPushRacingCloseStillReachesTheFrontier) {
  // The serve path's push: each producer hands in batches that take a whole
  // range of sequence numbers at once and split across both lanes. A batch
  // caught by close() mid-way must tombstone exactly its refused records.
  std::vector<net::Packet> packets;
  {
    trace::TraceReader reader(kCorpusTrace);
    ASSERT_TRUE(reader.valid());
    while (auto outcome = reader.next()) {
      if (outcome->status != trace::ReadStatus::kRecord) continue;
      auto packet = net::decode_packet(outcome->record.wire);
      ASSERT_TRUE(packet);
      packet->delivered_by = outcome->record.delivered_by;
      packets.push_back(std::move(*packet));
    }
  }
  ASSERT_FALSE(packets.empty());

  for (int round = 0; round < 8; ++round) {
    util::Counters counters;
    ingest::PipelineConfig pcfg;
    pcfg.queue_capacity = 4;  // batches block on backpressure mid-race
    pcfg.batch_size = 2;
    LiveStack stack(counters, 2, pcfg);
    std::thread runner([&] { stack.pipeline.run(); });
    std::atomic<std::uint64_t> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        auto sink = std::make_shared<ingest::StreamDigest>();
        std::uint64_t stream_seq = 0;
        for (std::size_t i = static_cast<std::size_t>(p);; i += 7) {
          std::vector<ingest::PushRecord> batch;
          for (std::size_t k = 0; k < 7; ++k)
            batch.push_back({packets[(i + k) % packets.size()], 0.0, 0});
          const std::size_t n = batch.size();
          const std::size_t got = stack.pipeline.push_batch(batch, sink, stream_seq);
          accepted += got;
          stream_seq += n;
          if (got < n) return;
        }
      });
    }
    while (stack.pipeline.seqs_issued() < 64 + 16 * static_cast<std::uint64_t>(round))
      std::this_thread::yield();
    stack.pipeline.close();
    runner.join();
    for (auto& t : producers) t.join();
    EXPECT_EQ(stack.pipeline.merge_frontier(), stack.pipeline.seqs_issued())
        << "round " << round;
    EXPECT_TRUE(stack.pipeline.quiescent());
    EXPECT_EQ(stack.pipeline.stats().records, accepted.load()) << "round " << round;
    EXPECT_LT(stack.pipeline.stats().records, stack.pipeline.seqs_issued());
  }
}

TEST(MergeStage, RepeatedReplaysKeepTheRingCountFlat) {
  // Each replay starts a producer, lane 1 and the merge thread (lane 0 runs
  // here), all of which emit at rate 1. Their rings go back to the free
  // list as they exit, so the count stays at the peak of concurrent
  // emitters however many replays run.
  constexpr std::size_t kEmittersPerReplay = 4;
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(1);
  const std::size_t rings0 = pc.ring_count();
  ingest::ReplayOptions opts;
  opts.shards = 2;
  for (int i = 0; i < 32; ++i) {
    pc.clear();
    ASSERT_TRUE(ingest::replay_file(kCorpusTrace, opts).ok);
    EXPECT_LE(pc.ring_count(), rings0 + kEmittersPerReplay) << "replay " << i;
  }
  pc.clear();
  pc.set_sample_rate(prior);
}

}  // namespace
}  // namespace pnm
