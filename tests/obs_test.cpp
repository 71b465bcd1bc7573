// Tests for the observability layer (src/obs): histogram bucket geometry and
// percentile accuracy, sharded-counter exactness under contention, span
// nesting and ring wraparound, golden strings for both exposition formats,
// the util::Counters shim's stable JSON, and the periodic Reporter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/counters.h"

namespace {

using pnm::obs::Counter;
using pnm::obs::Gauge;
using pnm::obs::Histogram;
using pnm::obs::MetricsRegistry;
using pnm::obs::SpanCollector;

// ---------------------------------------------------------------- histogram

TEST(Histogram, UnitBucketsAreExact) {
  // Values 0..15 land in dedicated single-value buckets.
  for (std::uint64_t v = 0; v < Histogram::kSub; ++v) {
    std::size_t idx = Histogram::index_for(v);
    EXPECT_EQ(idx, static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::bucket_lower(idx), v);
    EXPECT_EQ(Histogram::bucket_upper(idx), v);
  }
}

TEST(Histogram, OctaveBoundaries) {
  // First octave past the unit range: [16,31] in steps of 1 (shift 0), then
  // [32,63] in steps of 2, [64,127] in steps of 4, ...
  EXPECT_EQ(Histogram::index_for(16), 16u);
  EXPECT_EQ(Histogram::index_for(31), 31u);
  EXPECT_EQ(Histogram::index_for(32), 32u);
  EXPECT_EQ(Histogram::index_for(33), 32u);  // same 2-wide sub-bucket
  EXPECT_EQ(Histogram::index_for(34), 33u);
  EXPECT_EQ(Histogram::index_for(63), 47u);
  EXPECT_EQ(Histogram::index_for(64), 48u);
}

TEST(Histogram, BucketBoundsRoundTrip) {
  // Every bucket's lower and upper bound must map back to that bucket, and
  // consecutive buckets must tile the value axis with no gaps.
  for (std::size_t idx = 0; idx + 1 < Histogram::kBucketCount; ++idx) {
    EXPECT_EQ(Histogram::index_for(Histogram::bucket_lower(idx)), idx) << idx;
    EXPECT_EQ(Histogram::index_for(Histogram::bucket_upper(idx)), idx) << idx;
    EXPECT_EQ(Histogram::bucket_upper(idx) + 1, Histogram::bucket_lower(idx + 1))
        << idx;
  }
}

TEST(Histogram, RelativeErrorBound) {
  // Bucket width / lower bound <= 1/16 + epsilon past the unit range: the
  // documented 6.25% relative error.
  for (std::size_t idx = Histogram::kSub; idx + 1 < Histogram::kBucketCount; ++idx) {
    double lower = static_cast<double>(Histogram::bucket_lower(idx));
    double width = static_cast<double>(Histogram::bucket_upper(idx) -
                                       Histogram::bucket_lower(idx) + 1);
    EXPECT_LE(width / lower, 1.0 / 16.0 + 1e-12) << idx;
  }
}

TEST(Histogram, SnapshotCountsSumMax) {
  Histogram h;
  h.record(3);
  h.record(3);
  h.record(100);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 106u);
  EXPECT_EQ(snap.max, 100u);
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0].lower, 3u);
  EXPECT_EQ(snap.buckets[0].count, 2u);
  EXPECT_EQ(snap.buckets[1].count, 1u);
  EXPECT_LE(snap.buckets[1].lower, 100u);
  EXPECT_GE(snap.buckets[1].upper, 100u);
}

TEST(Histogram, PercentileExactForSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 10; ++v) h.record(v);  // 0..9, unit buckets
  auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 9.0);
  // Fractional rank 4.5 rounds up to the next single-sample bucket.
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 5.0);
}

TEST(Histogram, PercentileAccuracyUniform) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 10000u);
  // Log-bucketing guarantees <= 6.25% relative bucket width; allow 8% for
  // interpolation slack.
  EXPECT_NEAR(snap.percentile(0.50), 5000.0, 5000.0 * 0.08);
  EXPECT_NEAR(snap.percentile(0.90), 9000.0, 9000.0 * 0.08);
  EXPECT_NEAR(snap.percentile(0.99), 9900.0, 9900.0 * 0.08);
  EXPECT_EQ(snap.max, 10000u);
}

TEST(Histogram, RecordUsRoundsAndClamps) {
  Histogram h;
  h.record_us(-3.5);  // clamps to 0
  h.record_us(2.6);   // rounds to 3
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 3u);
}

TEST(Histogram, ConcurrentRecordStress) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record((i + static_cast<std::uint64_t>(t)) % 512);
    });
  }
  for (auto& w : workers) w.join();
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto& b : snap.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, snap.count);
}

// ------------------------------------------------------------------ counter

TEST(Counter, ConcurrentIncrementExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddUpdateMax) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.update_max(5);  // below current: no-op
  EXPECT_EQ(g.value(), 7);
  g.update_max(42);
  EXPECT_EQ(g.value(), 42);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, InternsByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, TypeConflictThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
}

TEST(MetricsRegistry, ScrapeRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("c1").add(5);
  reg.gauge("g1").set(-7);
  reg.histogram("h1").record(3);
  reg.counter("c2").add(1);
  auto snap = reg.scrape();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.samples[0].name, "c1");
  EXPECT_EQ(snap.samples[1].name, "g1");
  EXPECT_EQ(snap.samples[2].name, "h1");
  EXPECT_EQ(snap.samples[3].name, "c2");
  EXPECT_EQ(snap.samples[0].counter, 5u);
  EXPECT_EQ(snap.samples[1].gauge, -7);
  EXPECT_EQ(snap.samples[2].hist.count, 1u);
  ASSERT_NE(snap.find("g1"), nullptr);
  EXPECT_EQ(snap.find("g1")->gauge, -7);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsRegistry, ResetZeroesInstruments) {
  MetricsRegistry reg;
  reg.counter("c").add(9);
  reg.gauge("g").set(9);
  reg.histogram("h").record(9);
  reg.reset();
  auto snap = reg.scrape();
  EXPECT_EQ(snap.find("c")->counter, 0u);
  EXPECT_EQ(snap.find("g")->gauge, 0);
  EXPECT_EQ(snap.find("h")->hist.count, 0u);
}

TEST(MetricsRegistry, RetireHidesFromScrapeButKeepsReferencesValid) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("shard0_depth");
  g.set(7);
  reg.counter("other").add(1);
  EXPECT_TRUE(reg.exported("shard0_depth"));

  reg.retire("shard0_depth");
  EXPECT_FALSE(reg.exported("shard0_depth"));
  EXPECT_TRUE(reg.exported("other"));
  EXPECT_EQ(reg.size(), 1u);
  auto snap = reg.scrape();
  EXPECT_EQ(snap.find("shard0_depth"), nullptr);
  ASSERT_NE(snap.find("other"), nullptr);

  // The instrument reference stays alive — a straggler thread writing to a
  // retired gauge is harmless, just unexported.
  g.set(99);
  EXPECT_EQ(g.value(), 99);
}

TEST(MetricsRegistry, RetireOfUnknownNameIsANoOp) {
  MetricsRegistry reg;
  reg.retire("never-registered");
  EXPECT_FALSE(reg.exported("never-registered"));
  EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, InternRevivesARetiredInstrumentZeroed) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(42);
  reg.retire("depth");

  // Re-interning the same name revives the same instrument, reset to zero —
  // a restarted pipeline must not inherit the old run's parting value.
  Gauge& g2 = reg.gauge("depth");
  EXPECT_EQ(&g, &g2);
  EXPECT_EQ(g2.value(), 0);
  EXPECT_TRUE(reg.exported("depth"));
  EXPECT_EQ(reg.size(), 1u);
  auto snap = reg.scrape();
  ASSERT_NE(snap.find("depth"), nullptr);
}

TEST(MetricsRegistry, RetiredNameStillTypeChecks) {
  MetricsRegistry reg;
  reg.gauge("depth");
  reg.retire("depth");
  // Retirement hides the series; it does not free the name for a different
  // instrument type.
  EXPECT_THROW(reg.counter("depth"), std::logic_error);
}

// -------------------------------------------------------------------- spans

TEST(Span, NestingAndOrdering) {
  SpanCollector& col = SpanCollector::global();
  col.enable(64);
  col.clear();
  {
    PNM_SPAN("outer");
    {
      PNM_SPAN("inner");
    }
  }
  auto spans = col.snapshot();
  col.disable();
  ASSERT_EQ(spans.size(), 2u);
  // Both scopes can open within the same microsecond, so don't rely on the
  // chronological tie-break — find each span by name.
  const pnm::obs::SpanEvent* outer = nullptr;
  const pnm::obs::SpanEvent* inner = nullptr;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "outer") outer = &s;
    if (std::string_view(s.name) == "inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_LE(outer->start_us, inner->start_us);
  EXPECT_GE(outer->start_us + outer->dur_us, inner->start_us + inner->dur_us);
  EXPECT_EQ(outer->tid, inner->tid);
}

TEST(Span, DisabledCollectorRecordsNothing) {
  SpanCollector& col = SpanCollector::global();
  col.enable(16);
  col.clear();
  col.disable();
  {
    PNM_SPAN("ignored");
  }
  EXPECT_TRUE(col.snapshot().empty());
}

TEST(Span, RingWraparoundKeepsNewest) {
  SpanCollector& col = SpanCollector::global();
  col.enable(4);
  col.clear();
  for (int i = 0; i < 10; ++i) {
    PNM_SPAN("wrap");
  }
  auto spans = col.snapshot();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(col.recorded(), 10u);
  EXPECT_EQ(col.dropped(), 6u);
  col.disable();
}

TEST(Span, ChromeTraceJsonShape) {
  SpanCollector& col = SpanCollector::global();
  col.enable(16);
  col.clear();
  {
    PNM_SPAN("verify_batch");
  }
  std::string json = col.chrome_trace_json();
  col.disable();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"verify_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

// --------------------------------------------------------------- exposition

TEST(Exposition, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("packets_verified").add(42);
  reg.gauge("queue_depth").set(7);
  Histogram& h = reg.histogram("batch_latency_us");
  h.record(3);
  h.record(3);
  h.record(20);
  std::string got = pnm::obs::to_prometheus(reg.scrape());
  const std::string want =
      "# TYPE pnm_packets_verified_total counter\n"
      "pnm_packets_verified_total 42\n"
      "# TYPE pnm_queue_depth gauge\n"
      "pnm_queue_depth 7\n"
      "# TYPE pnm_batch_latency_us histogram\n"
      "pnm_batch_latency_us_bucket{le=\"3\"} 2\n"
      "pnm_batch_latency_us_bucket{le=\"20\"} 3\n"
      "pnm_batch_latency_us_bucket{le=\"+Inf\"} 3\n"
      "pnm_batch_latency_us_sum 26\n"
      "pnm_batch_latency_us_count 3\n";
  EXPECT_EQ(got, want);
}

TEST(Exposition, JsonGolden) {
  MetricsRegistry reg;
  reg.counter("packets_verified").add(42);
  reg.gauge("queue_depth").set(-3);
  Histogram& h = reg.histogram("lat");
  for (std::uint64_t v = 0; v < 10; ++v) h.record(v);
  std::string got = pnm::obs::to_json(reg.scrape());
  const std::string want =
      "{\"packets_verified\":42,\"queue_depth\":-3,"
      "\"lat\":{\"count\":10,\"sum\":45,\"max\":9,"
      "\"p50\":5.0,\"p90\":9.0,\"p99\":9.0}}";
  EXPECT_EQ(got, want);
}

TEST(Exposition, PrometheusNameSanitization) {
  EXPECT_EQ(pnm::obs::prometheus_name("batch latency.us"), "pnm_batch_latency_us");
  EXPECT_EQ(pnm::obs::prometheus_name("ok_name"), "pnm_ok_name");
}

TEST(Exposition, ReporterFiresCallback) {
  MetricsRegistry reg;
  reg.counter("ticks").add(1);
  std::atomic<int> fired{0};
  {
    pnm::obs::Reporter rep(reg, std::chrono::milliseconds(5),
                           [&fired](const pnm::obs::MetricsSnapshot& snap) {
                             if (snap.find("ticks")) fired.fetch_add(1);
                           });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // destructor stops + final scrape
  EXPECT_GE(fired.load(), 1);
}

// --------------------------------------------------------- counters shim

TEST(CountersShim, ToJsonStableKeyOrder) {
  pnm::util::Counters c;
  c.add(pnm::util::Metric::kPrfEvals, 3);
  c.update_max(pnm::util::Metric::kIngestQueueHighWater, 17);
  c.record_batch_latency_us(100.0);
  std::string json = c.to_json();
  const std::string want_prefix =
      "{\"prf_evals\":3,\"mac_checks\":0,\"cache_hits\":0,\"cache_misses\":0,"
      "\"packets_verified\":0,\"batches\":0,\"trace_records_read\":0,"
      "\"trace_crc_errors\":0,\"trace_decode_errors\":0,\"ingest_records\":0,"
      "\"ingest_queue_high_water\":17,\"batch_latency_us\":{\"count\":1,";
  EXPECT_EQ(json.substr(0, want_prefix.size()), want_prefix);
}

TEST(CountersShim, BacksOntoRegistry) {
  pnm::util::Counters c;
  c.add(pnm::util::Metric::kMacChecks, 5);
  auto snap = c.registry().scrape();
  ASSERT_NE(snap.find("mac_checks"), nullptr);
  EXPECT_EQ(snap.find("mac_checks")->counter, 5u);
  EXPECT_EQ(c.get(pnm::util::Metric::kMacChecks), 5u);
}

TEST(CountersShim, LatencySummaryFromHistogram) {
  pnm::util::Counters c;
  for (int i = 1; i <= 100; ++i)
    c.record_batch_latency_us(static_cast<double>(i));
  auto s = c.latency_summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50_us, 50.0, 50.0 * 0.08);
  EXPECT_NEAR(s.p99_us, 99.0, 99.0 * 0.08);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);
}

}  // namespace
