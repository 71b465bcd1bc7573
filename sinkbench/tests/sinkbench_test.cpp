// Tests of the sink benchmark itself: the generator is deterministic, a
// corrupted trace is counted as failed, every printed name is well formed,
// and a ledger's rows plus its residual add up to the untraced total.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "gen.h"
#include "ingest/replay.h"
#include "ledger.h"
#include "report.h"
#include "trace/reader.h"
#include "workloads.h"

namespace sinkbench {
namespace {

GenSpec small_spec(std::uint64_t seed) {
  GenSpec s;
  s.seed = seed;
  s.forwarders = 24;
  s.flows = 8;
  s.reports = 16;
  s.deliveries = 4;
  s.strategy = "scoped";
  return s;
}

pnm::ingest::ReplayResult replay_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  pnm::trace::TraceReader reader(in);
  pnm::ingest::ReplayOptions o;
  o.threads = 1;
  o.shards = 2;
  o.batch_size = 16;
  return pnm::ingest::replay_trace(reader, o);
}

TEST(Generator, SameSeedSameBytes) {
  EXPECT_EQ(generate_trace(small_spec(5)), generate_trace(small_spec(5)));
  EXPECT_NE(generate_trace(small_spec(5)), generate_trace(small_spec(6)));
}

TEST(Generator, HeaderRebuildsTheCampaign) {
  GenSpec spec = small_spec(9);
  pnm::ingest::ReplayResult r = replay_bytes(generate_trace(spec));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.records, trace_records(spec));
  EXPECT_EQ(r.stats.crc_failures + r.stats.decode_failures, 0u);
  EXPECT_GT(r.marks_verified, 0u);
  EXPECT_EQ(r.meta.get("bench_strategy").value_or(""), "scoped");
}

TEST(Correctness, FlippedByteCountsAsFailed) {
  GenSpec spec = small_spec(3);
  std::string clean = generate_trace(spec);
  pnm::ingest::ReplayResult ref = replay_bytes(clean);
  ASSERT_TRUE(ref.ok);

  Report ok;
  check_replay(ref, trace_records(spec), ref.verdict_digest, ok);
  EXPECT_TRUE(ok.correct());
  EXPECT_EQ(ok.failed(), 0u);

  std::string corrupt = clean;
  corrupt[corrupt.size() / 2] ^= 0x40;  // inside some record frame
  Report bad;
  check_replay(replay_bytes(corrupt), trace_records(spec), ref.verdict_digest, bad);
  EXPECT_FALSE(bad.correct());
  EXPECT_GT(bad.failed(), 0u);
  EXPECT_LE(bad.failed(), bad.attempted());
}

TEST(Report, NamesAreChecked) {
  EXPECT_TRUE(valid_name("sink.verify_ns_per_record"));
  EXPECT_TRUE(valid_name("rtt_p99_ms"));
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name("bad name"));
  EXPECT_FALSE(valid_name("bad{name}"));
  Report r;
  EXPECT_THROW(r.add("has space", 1.0, "ns"), std::invalid_argument);
  EXPECT_THROW(r.add("ok_name", 1.0, "not a unit"), std::invalid_argument);
  r.add("ok_name", 1.5, "1/s");
  EXPECT_EQ(r.metrics().size(), 1u);
}

TEST(Ledger, RowsPlusResidualAddUpToTotal) {
  Ledger l = close_ledger({{"trace.read", 120.5}, {"sink.verify", 41000.25}, {"sink.fold", 800}},
                          "ingest.residual", 45000.0);
  ASSERT_EQ(l.rows.size(), 4u);
  EXPECT_EQ(l.rows.back().name, "ingest.residual");
  double sum = 0;
  for (const LedgerRow& row : l.rows) sum += row.ns_per_record;
  EXPECT_DOUBLE_EQ(sum, l.total_ns);
  EXPECT_EQ(l.dominant, "sink.verify");
}

TEST(TracedPass, WorkCountsRepeatAndMatchReplay) {
  GenSpec spec = small_spec(11);
  std::string bytes = generate_trace(spec);
  pnm::ingest::ReplayResult ref = replay_bytes(bytes);
  ASSERT_TRUE(ref.ok);
  TracedPass a = traced_pass(bytes, pnm::sink::BatchStrategy::kScoped, 16);
  TracedPass b = traced_pass(bytes, pnm::sink::BatchStrategy::kScoped, 16);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.records, trace_records(spec));
  EXPECT_EQ(a.marks_verified, ref.marks_verified);
  EXPECT_EQ(a.stop_node, ref.analysis.stop_node);
  EXPECT_TRUE(a.work == b.work);
  EXPECT_GT(a.work.prf_evals, 0u);
}

// Every workload, untraced and traced, on a tiny time budget: it passes its
// own checks, prints only well-formed names, and prints the same metric set
// as every other workload in the same mode.
TEST(Workloads, EveryRunIsCorrectAndPrintsOneMetricSet) {
  for (bool traced : {false, true}) {
    std::set<std::string> first;
    for (const std::string& name : workload_names()) {
      Options o;
      o.workload = name;
      o.seed = 2;
      o.seconds = 0.05;
      o.traced = traced;
      o.tmp_dir = ::testing::TempDir();
      Report rep;
      ASSERT_TRUE(run_workload(o, rep));
      EXPECT_TRUE(rep.correct()) << name << " traced=" << traced;
      std::set<std::string> names;
      for (const Metric& m : rep.metrics()) {
        EXPECT_TRUE(valid_name(m.name)) << m.name;
        names.insert(m.name);
      }
      EXPECT_EQ(names.size(), rep.metrics().size()) << name;
      if (first.empty()) first = names;
      EXPECT_EQ(names, first) << name << " traced=" << traced;
    }
  }
}

}  // namespace
}  // namespace sinkbench
