// crypto::PrfCache row tests: a report's row grows past its first 16 slots
// and past 1024 entries (a grid search that widens over the whole field)
// without losing an anonymous ID, inserts are idempotent, a total-cap flush
// triggered by one report leaves another report's held row valid and takes
// no lock that row's holder owns, and rows that never get an entry (packets
// whose marks all have the wrong length) are bounded by the same cap.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "net/topology.h"
#include "sink/scoped_verify.h"
#include "util/counters.h"
#include "util/rng.h"

namespace pnm::crypto {
namespace {

/// Two bytes that name `node`, as a stand-in anonymous ID.
std::vector<std::uint8_t> value_of(NodeId node) {
  return {static_cast<std::uint8_t>(node), static_cast<std::uint8_t>(node >> 8)};
}

void insert_one(PrfCache& cache, const PrfCache::RowRef& row, NodeId node) {
  const std::vector<std::uint8_t> v = value_of(node);
  const NodeId nodes[] = {node};
  cache.insert(row, nodes, v.data());
}

TEST(PrfCacheRow, GrowsPastSixteenEntriesKeepingEveryValue) {
  PrfCache cache;
  const PrfCache::RowRef row = cache.row(PrfCache::report_key(Bytes{1, 2}), 2);
  std::lock_guard<std::mutex> lock(row->mutex());
  EXPECT_EQ(row->capacity(), 16u);
  for (NodeId v = 1; v <= 17; ++v) insert_one(cache, row, v);
  EXPECT_EQ(row->size(), 17u);
  EXPECT_GT(row->capacity(), 16u);
  EXPECT_EQ(cache.size(), 17u);
  for (NodeId v = 1; v <= 17; ++v) {
    const std::uint8_t* anon = row->find(v);
    ASSERT_NE(anon, nullptr) << "node " << v;
    EXPECT_EQ(std::vector<std::uint8_t>(anon, anon + 2), value_of(v)) << "node " << v;
  }
  EXPECT_EQ(row->find(18), nullptr);

  insert_one(cache, row, 5);  // already cached: no new entry
  EXPECT_EQ(row->size(), 17u);
  EXPECT_EQ(cache.size(), 17u);
  EXPECT_EQ(cache.row(PrfCache::report_key(Bytes{1, 2}), 2), row);
}

TEST(PrfCacheRow, GridForgedMarkSearchGrowsARowPastAThousandEntries) {
  // A mark no node's MAC verifies widens the scoped search over the whole
  // 40 x 40 grid: one row takes every node but the sink.
  const net::Topology grid = net::Topology::grid(40, 40, 1.1);
  const KeyStore keys(Bytes{'g', 'r'}, grid.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  Rng rng(9);
  net::Packet forged;
  forged.report = net::Report{4, 4, 4, 4}.encode();
  scheme->mark(forged, 820, keys.key_unchecked(820), rng);
  forged.marks[0].mac[0] ^= 0x01;
  forged.delivered_by = 820;

  PrfCache cache;
  util::Counters counters;
  sink::ScopedVerifyStats cold;
  const marking::VerifyResult first =
      sink::scoped_verify_pnm(forged, keys, grid, cfg, &cold, &cache, &counters);
  EXPECT_TRUE(first.truncated_by_invalid);
  EXPECT_EQ(cold.prf_evaluations, grid.node_count() - 1);

  const PrfCache::RowRef row = cache.row(PrfCache::report_key(forged.report), cfg.anon_len);
  {
    std::lock_guard<std::mutex> lock(row->mutex());
    EXPECT_EQ(row->size(), grid.node_count() - 1);
    EXPECT_GT(row->size(), 1024u);
    EXPECT_GE(row->capacity(), 2048u);
    EXPECT_EQ(row->find(kSinkId), nullptr);
  }
  EXPECT_EQ(cache.size(), grid.node_count() - 1);

  // The same search again is all hits, with the same verdict and MAC checks.
  const std::uint64_t prf_before = counters.get(util::Metric::kPrfEvals);
  const std::uint64_t hits_before = counters.get(util::Metric::kCacheHits);
  sink::ScopedVerifyStats warm;
  const marking::VerifyResult second =
      sink::scoped_verify_pnm(forged, keys, grid, cfg, &warm, &cache, &counters);
  EXPECT_EQ(counters.get(util::Metric::kPrfEvals), prf_before);
  EXPECT_EQ(counters.get(util::Metric::kCacheHits) - hits_before, cold.prf_evaluations);
  EXPECT_EQ(warm.mac_checks, cold.mac_checks);
  EXPECT_EQ(warm.ring_expansions, cold.ring_expansions);
  EXPECT_EQ(second.truncated_by_invalid, first.truncated_by_invalid);
  EXPECT_EQ(second.invalid_marks, first.invalid_marks);
}

TEST(PrfCacheRow, CapFlushLeavesAnotherReportsHeldRowValid) {
  PrfCache cache(4, 100);
  const std::uint64_t a = PrfCache::report_key(Bytes{'a'});
  const std::uint64_t b = PrfCache::report_key(Bytes{'b'});
  const PrfCache::RowRef held = cache.row(a, 2);
  std::unique_lock<std::mutex> lock(held->mutex());
  for (NodeId v = 1; v <= 60; ++v) insert_one(cache, held, v);
  EXPECT_EQ(cache.size(), 60u);

  // Another thread's insert passes the cap and flushes while this thread
  // still holds report a's row locked: the flush must not wait on it.
  std::thread other([&] {
    const PrfCache::RowRef row = cache.row(b, 2);
    std::lock_guard<std::mutex> row_lock(row->mutex());
    std::vector<NodeId> nodes;
    std::vector<std::uint8_t> values;
    for (NodeId v = 1; v <= 50; ++v) {
      nodes.push_back(v);
      const std::vector<std::uint8_t> bytes = value_of(v);
      values.insert(values.end(), bytes.begin(), bytes.end());
    }
    cache.insert(row, nodes, values.data());
  });
  other.join();
  EXPECT_EQ(cache.size(), 50u);  // report b's entries only

  // The held row keeps its entries for its holder, but no longer counts.
  EXPECT_EQ(held->size(), 60u);
  for (NodeId v = 1; v <= 60; ++v) {
    const std::uint8_t* anon = held->find(v);
    ASSERT_NE(anon, nullptr) << "node " << v;
    EXPECT_EQ(std::vector<std::uint8_t>(anon, anon + 2), value_of(v));
  }
  insert_one(cache, held, 61);
  EXPECT_EQ(held->size(), 61u);
  EXPECT_EQ(cache.size(), 50u);
  lock.unlock();

  // The cache itself has forgotten report a.
  const PrfCache::RowRef fresh = cache.row(a, 2);
  EXPECT_NE(fresh, held);
  std::lock_guard<std::mutex> fresh_lock(fresh->mutex());
  EXPECT_EQ(fresh->size(), 0u);
}

TEST(PrfCacheRow, RowsWithoutEntriesAreBoundedByTheCap) {
  PrfCache cache(4, 8);
  const PrfCache::RowRef first = cache.row(PrfCache::report_key(Bytes{0}), 2);
  for (std::uint8_t r = 1; r < 8; ++r) cache.row(PrfCache::report_key(Bytes{r}), 2);
  EXPECT_EQ(cache.row(PrfCache::report_key(Bytes{0}), 2), first);  // 8 rows: at the cap
  cache.row(PrfCache::report_key(Bytes{8}), 2);  // a ninth row flushes the cache
  EXPECT_NE(cache.row(PrfCache::report_key(Bytes{0}), 2), first);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace pnm::crypto
