// Provenance-tracing and flight-recorder tests: content-derived trace IDs
// and deterministic sampling, the lock-free ring's drop accounting, the
// canonical JSONL export's byte-identity across shard/thread configurations
// (and digest invariance with tracing on vs off), the Chrome-trace merge
// shape, anomaly note-keeping with its bounded log and counters, the
// versioned .pnmflight dump document, and the watchdog's edge-latch.
//
// The provenance collector and flight recorder are process globals; every
// test that touches them clears state first (ctest runs each TEST in its own
// process, but the whole binary must also pass when run directly).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "ingest/replay.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "util/bytes.h"

namespace pnm {
namespace {

/// Registry the tests bind the global collectors to. Function-local static
/// (not a test member): the globals hold raw pointers into it, so it must
/// outlive every test in the process.
obs::MetricsRegistry& test_registry() {
  static auto* r = new obs::MetricsRegistry();
  return *r;
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// ---------------------------------------------------------------------------
// Trace IDs and sampling.

TEST(ProvenanceTest, TraceIdIsContentDerivedAndNeverZero) {
  std::vector<std::uint8_t> report = bytes({1, 2, 3, 4, 5, 6, 7, 8});
  std::uint64_t id = obs::prov_trace_id(ByteView(report), 9);
  EXPECT_NE(id, 0u);
  // Deterministic: the same bytes + hop always hash to the same ID — the
  // property that makes replays sample exactly the records the live run did.
  EXPECT_EQ(id, obs::prov_trace_id(ByteView(report), 9));
  // Sensitive to both inputs.
  EXPECT_NE(id, obs::prov_trace_id(ByteView(report), 10));
  std::vector<std::uint8_t> other = bytes({1, 2, 3, 4, 5, 6, 7, 9});
  EXPECT_NE(id, obs::prov_trace_id(ByteView(other), 9));
}

TEST(ProvenanceTest, SamplingIsDeterministicInTheTraceId) {
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  std::vector<std::uint8_t> report = bytes({10, 20, 30, 40});

  pc.set_sample_rate(0);  // off: nothing admitted
  EXPECT_EQ(pc.admit(ByteView(report), 1), 0u);
  EXPECT_FALSE(pc.sampled(12345));

  pc.set_sample_rate(1);  // everything admitted, ID passed through
  std::uint64_t id = pc.admit(ByteView(report), 1);
  EXPECT_EQ(id, obs::prov_trace_id(ByteView(report), 1));

  pc.set_sample_rate(64);
  // Whatever the decision is, it is a pure function of the ID.
  std::size_t hits = 0;
  for (std::uint64_t hop = 0; hop < 512; ++hop) {
    std::uint64_t got = pc.admit(ByteView(report), hop);
    std::uint64_t want = obs::prov_trace_id(ByteView(report), hop);
    EXPECT_EQ(got != 0, pc.sampled(want)) << "hop=" << hop;
    if (got != 0) {
      EXPECT_EQ(got, want);
      ++hits;
    }
  }
  // 1-in-64 over 512 distinct IDs: some sampled, most not.
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, 64u);

  pc.set_sample_rate(prior);
}

TEST(ProvenanceTest, StageNamesAndCanonicalSubset) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kProvStageCount; ++i)
    names.insert(obs::prov_stage_name(static_cast<obs::ProvStage>(i)));
  EXPECT_EQ(names.size(), obs::kProvStageCount);  // all distinct
  EXPECT_TRUE(obs::prov_stage_canonical(obs::ProvStage::kDecode));
  EXPECT_TRUE(obs::prov_stage_canonical(obs::ProvStage::kVerify));
  EXPECT_TRUE(obs::prov_stage_canonical(obs::ProvStage::kFold));
  EXPECT_TRUE(obs::prov_stage_canonical(obs::ProvStage::kAccuse));
  // Stages carrying thread/lane/cache context must stay out of the
  // canonical (determinism-compared) export.
  EXPECT_FALSE(obs::prov_stage_canonical(obs::ProvStage::kDeliver));
  EXPECT_FALSE(obs::prov_stage_canonical(obs::ProvStage::kEnqueue));
  EXPECT_FALSE(obs::prov_stage_canonical(obs::ProvStage::kVerifyCtx));
}

// ---------------------------------------------------------------------------
// Ring accounting.

TEST(ProvenanceTest, RingWraparoundCountsDrops) {
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(1);
  pc.clear();
  obs::Counter& dropped = test_registry().counter("provenance_dropped");
  pc.bind_metrics(test_registry());
  std::uint64_t recorded0 = pc.recorded();
  std::uint64_t dropped0 = pc.dropped();
  std::uint64_t metered_drops0 = dropped.value();

  // Capacity only applies to rings created after the call, so emit from a
  // fresh thread (whose ring doesn't exist yet).
  pc.set_ring_capacity(8);
  std::thread writer([&pc] {
    for (std::uint64_t i = 0; i < 20; ++i)
      obs::prov_emit(0x1000 + i, i, obs::ProvStage::kDecode, i, 0);
    (void)pc;
  });
  writer.join();
  pc.set_ring_capacity(4096);  // restore the default for later rings

  EXPECT_EQ(pc.recorded() - recorded0, 20u);
  EXPECT_EQ(pc.dropped() - dropped0, 12u);  // 20 pushed into 8 slots
  EXPECT_EQ(dropped.value() - metered_drops0, 12u);
  // The snapshot retains exactly the last ring-full from that thread.
  std::size_t kept = 0;
  for (const obs::ProvEvent& e : pc.snapshot())
    if (e.trace_id >= 0x1000 && e.trace_id < 0x1000 + 20) ++kept;
  EXPECT_EQ(kept, 8u);

  pc.clear();
  pc.set_sample_rate(prior);
}

TEST(ProvenanceTest, ShortLivedThreadsRecycleRingsAndKeepTheirEvents) {
  // A daemon's session threads come and go; each exiting thread hands its
  // ring back, so the ring count stays at the peak of concurrent emitters
  // while every event the exited threads wrote stays in the snapshot.
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(1);
  pc.clear();
  const std::size_t rings0 = pc.ring_count();

  constexpr std::uint64_t kThreads = 64;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    std::thread worker(
        [t] { obs::prov_emit(0x2000 + t, t, obs::ProvStage::kDecode, t, 0); });
    worker.join();
  }
  EXPECT_LE(pc.ring_count(), rings0 + 1);

  std::set<std::uint64_t> ids;
  std::set<std::uint32_t> tids;
  for (const obs::ProvEvent& e : pc.snapshot()) {
    if (e.trace_id < 0x2000 || e.trace_id >= 0x2000 + kThreads) continue;
    ids.insert(e.trace_id);
    tids.insert(e.tid);
  }
  EXPECT_EQ(ids.size(), kThreads);
  EXPECT_EQ(tids.size(), kThreads);  // a shared ring still stamps each writer

  pc.clear();
  pc.set_sample_rate(prior);
}

TEST(ProvenanceTest, EmitStampsThreadAndTimeAndSnapshotOrdersByTimestamp) {
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(1);
  pc.clear();
  obs::prov_emit(0xabc, 5, obs::ProvStage::kVerify, 3, 1, 2);
  obs::prov_emit(0xabd, 6, obs::ProvStage::kMerge, 4, 0, 0);
  std::vector<obs::ProvEvent> events = pc.snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const obs::ProvEvent& e : events) {
    EXPECT_NE(e.tid, 0u);
    EXPECT_NE(e.ts_us, 0u);
  }
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_EQ(events[0].trace_id, 0xabcu);
  EXPECT_EQ(events[0].stage, obs::ProvStage::kVerify);
  EXPECT_EQ(events[0].lane, 2u);
  pc.clear();
  pc.set_sample_rate(prior);
}

// ---------------------------------------------------------------------------
// Export shapes.

TEST(ProvenanceTest, ExportsRenderFullAndChromeShapes) {
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(1);
  pc.clear();
  obs::prov_emit(0x1234, 7, obs::ProvStage::kVerify, 9, 2, 1);

  std::string full = obs::provenance_jsonl_full();
  EXPECT_NE(full.find("\"trace_id\":\"0000000000001234\""), std::string::npos);
  EXPECT_NE(full.find("\"stage\":\"verify\""), std::string::npos);
  EXPECT_NE(full.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(full.find("\"lane\":1"), std::string::npos);
  EXPECT_NE(full.find("\"ts_us\":"), std::string::npos);

  std::string chrome = obs::export_chrome_trace();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"name\":\"prov:verify\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(chrome.substr(chrome.size() - 2), "]}");

  // Canonical keeps verify but strips runtime context fields.
  std::string canonical = obs::provenance_jsonl_canonical();
  EXPECT_NE(canonical.find("\"stage\":\"verify\""), std::string::npos);
  EXPECT_EQ(canonical.find("\"ts_us\""), std::string::npos);
  EXPECT_EQ(canonical.find("\"tid\""), std::string::npos);

  pc.clear();
  pc.set_sample_rate(prior);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the canonical JSONL is byte-identical across
// shard/thread configurations, and tracing never perturbs the verdict
// digest. One recorded campaign is shared across the cases.

struct RecordedCampaign {
  std::string path;
  core::ChainExperimentResult live;
};

const RecordedCampaign& recorded_campaign() {
  static const RecordedCampaign* fixture = [] {
    auto* f = new RecordedCampaign;
    f->path = ::testing::TempDir() + "/provenance_test_campaign." +
              std::to_string(::getpid()) + ".pnmtrace";
    core::ChainExperimentConfig cfg;
    cfg.forwarders = 8;
    cfg.packets = 120;
    cfg.seed = 33;
    cfg.attack = attack::AttackKind::kRemoval;
    cfg.record_path = f->path;
    f->live = core::run_chain_experiment(cfg);
    return f;
  }();
  return *fixture;
}

TEST(ProvenanceTest, CanonicalJsonlIsByteIdenticalAcrossShardsAndThreads) {
  const auto& rc = recorded_campaign();
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(4);  // dense enough that the export is never empty

  pc.clear();
  ingest::ReplayResult baseline = ingest::replay_file(rc.path);
  ASSERT_TRUE(baseline.ok) << baseline.error;
  std::string canonical = obs::provenance_jsonl_canonical();
  ASSERT_FALSE(canonical.empty());
  EXPECT_NE(canonical.find("\"stage\":\"decode\""), std::string::npos);
  EXPECT_NE(canonical.find("\"stage\":\"verify\""), std::string::npos);
  EXPECT_NE(canonical.find("\"stage\":\"fold\""), std::string::npos);

  struct Config {
    std::size_t shards, threads;
  };
  for (Config c : {Config{1, 4}, Config{8, 1}, Config{8, 4}}) {
    pc.clear();
    ingest::ReplayOptions opts;
    opts.shards = c.shards;
    opts.threads = c.threads;
    opts.batch_size = 16;  // different batching must not matter either
    ingest::ReplayResult r = ingest::replay_file(rc.path, opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.verdict_digest, baseline.verdict_digest)
        << "shards=" << c.shards << " threads=" << c.threads;
    EXPECT_EQ(obs::provenance_jsonl_canonical(), canonical)
        << "shards=" << c.shards << " threads=" << c.threads;
  }

  pc.clear();
  pc.set_sample_rate(prior);
}

TEST(ProvenanceTest, TracingDoesNotPerturbTheVerdictDigest) {
  const auto& rc = recorded_campaign();
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();

  pc.set_sample_rate(0);
  pc.clear();
  ingest::ReplayResult off = ingest::replay_file(rc.path);
  ASSERT_TRUE(off.ok) << off.error;
  EXPECT_TRUE(obs::provenance_jsonl_canonical().empty());

  pc.set_sample_rate(1);  // trace every record — the maximal perturbation
  pc.clear();
  ingest::ReplayResult on = ingest::replay_file(rc.path);
  ASSERT_TRUE(on.ok) << on.error;
  EXPECT_EQ(on.verdict_digest, off.verdict_digest);
  EXPECT_EQ(on.analysis.stop_node, off.analysis.stop_node);
  EXPECT_EQ(on.analysis.suspects, off.analysis.suspects);
  // At rate 1 every replayed record contributes decode+verify+fold lines.
  std::string canonical = obs::provenance_jsonl_canonical();
  std::size_t lines = 0;
  for (char ch : canonical)
    if (ch == '\n') ++lines;
  EXPECT_GE(lines, 3 * off.stats.records);

  pc.clear();
  pc.set_sample_rate(prior);
}

TEST(ProvenanceTest, AccusationEventIsEmittedOnceWithStopNode) {
  const auto& rc = recorded_campaign();
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  pc.set_sample_rate(1);
  pc.clear();
  ingest::ReplayResult r = ingest::replay_file(rc.path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.analysis.identified);
  std::size_t accusations = 0;
  for (const obs::ProvEvent& e : pc.snapshot()) {
    if (e.stage != obs::ProvStage::kAccuse) continue;
    ++accusations;
    // The event snapshots the analysis at the identification transition —
    // later folds may still narrow the suspect set, so the final analysis
    // is not the comparison point. The transition always names a suspect.
    EXPECT_GE(e.b, 1u);
    EXPECT_NE(e.trace_id, 0u);
  }
  EXPECT_EQ(accusations, 1u);
  pc.clear();
  pc.set_sample_rate(prior);
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightTest, NoteAnomalyBumpsCountersAndKeepsTheNote) {
  auto& fr = obs::FlightRecorder::global();
  fr.clear();
  fr.set_dump_path("");
  fr.bind_metrics(test_registry());
  obs::Counter& total = test_registry().counter("obs_anomaly");
  obs::Counter& kind = test_registry().counter("obs_anomaly_digest_mismatch");
  std::uint64_t total0 = total.value();
  std::uint64_t kind0 = kind.value();

  fr.note_anomaly(obs::AnomalyKind::kDigestMismatch, "stream 7 never settled", 7);

  EXPECT_EQ(total.value() - total0, 1u);
  EXPECT_EQ(kind.value() - kind0, 1u);
  EXPECT_EQ(fr.anomaly_count(), 1u);
  std::vector<obs::FlightNote> notes = fr.notes();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].kind, obs::AnomalyKind::kDigestMismatch);
  EXPECT_EQ(notes[0].session, 7u);
  EXPECT_EQ(notes[0].detail, "stream 7 never settled");
  EXPECT_NE(notes[0].ts_us, 0u);
  fr.clear();
}

TEST(FlightTest, NoteLogIsBoundedButTheTotalKeepsCounting) {
  auto& fr = obs::FlightRecorder::global();
  fr.clear();
  fr.set_dump_path("");
  const std::size_t overflow = obs::FlightRecorder::kMaxNotes + 10;
  for (std::size_t i = 0; i < overflow; ++i)
    fr.note_anomaly(obs::AnomalyKind::kQueueSaturated, "n" + std::to_string(i));
  EXPECT_EQ(fr.anomaly_count(), overflow);
  std::vector<obs::FlightNote> notes = fr.notes();
  ASSERT_EQ(notes.size(), obs::FlightRecorder::kMaxNotes);
  EXPECT_EQ(notes.front().detail, "n10");  // oldest 10 evicted
  EXPECT_EQ(notes.back().detail, "n" + std::to_string(overflow - 1));
  fr.clear();
}

TEST(FlightTest, DumpIsAVersionedDocumentWithAnomaliesAndProvenance) {
  auto& fr = obs::FlightRecorder::global();
  auto& pc = obs::ProvenanceCollector::global();
  std::uint32_t prior = pc.sample_rate();
  fr.clear();
  fr.set_dump_path("");
  pc.set_sample_rate(1);
  pc.clear();
  obs::prov_emit(0xfeed, 3, obs::ProvStage::kFold, 5, 5);
  fr.note_anomaly(obs::AnomalyKind::kMergeStall, "frontier stuck \"here\"", 2);

  std::string doc = fr.dump("unit test");
  EXPECT_NE(doc.find("\"pnmflight\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"reason\":\"unit test\""), std::string::npos);
  EXPECT_NE(doc.find("\"anomaly_total\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"merge_stall\""), std::string::npos);
  // Detail strings are JSON-escaped.
  EXPECT_NE(doc.find("frontier stuck \\\"here\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(doc.find("\"provenance\":["), std::string::npos);
  EXPECT_NE(doc.find("000000000000feed"), std::string::npos);
  EXPECT_NE(doc.find("\"spans\":"), std::string::npos);

  std::string path = ::testing::TempDir() + "/flight_test." +
                     std::to_string(::getpid()) + ".pnmflight";
  ASSERT_TRUE(fr.dump_to_file(path, "unit test file"));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"pnmflight\":1"), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"unit test file\""), std::string::npos);

  pc.clear();
  pc.set_sample_rate(prior);
  fr.clear();
}

TEST(FlightTest, AnomalyWithDumpPathWritesTheFlightFile) {
  auto& fr = obs::FlightRecorder::global();
  fr.clear();
  std::string path = ::testing::TempDir() + "/flight_auto." +
                     std::to_string(::getpid()) + ".pnmflight";
  std::remove(path.c_str());
  fr.set_dump_path(path);
  fr.note_anomaly(obs::AnomalyKind::kRekeyFailed, "quiesce timed out");
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"reason\":\"anomaly:rekey_failed\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"rekey_failed\""), std::string::npos);
  fr.set_dump_path("");
  fr.clear();
}

TEST(FlightTest, WatchdogLatchesOnTheEdgeNotTheLevel) {
  auto& fr = obs::FlightRecorder::global();
  fr.clear();
  fr.set_dump_path("");
  bool stuck = false;
  obs::AnomalyWatchdog wd(std::chrono::milliseconds(1000));
  wd.add_probe(obs::AnomalyKind::kMergeStall, [&]() -> std::optional<std::string> {
    if (stuck) return "frontier pinned";
    return std::nullopt;
  });

  wd.poll_once();
  EXPECT_EQ(fr.anomaly_count(), 0u);  // clear condition: no note
  stuck = true;
  wd.poll_once();
  EXPECT_EQ(fr.anomaly_count(), 1u);  // clear → firing edge
  wd.poll_once();
  wd.poll_once();
  EXPECT_EQ(fr.anomaly_count(), 1u);  // still firing: latched, no re-note
  stuck = false;
  wd.poll_once();
  EXPECT_EQ(fr.anomaly_count(), 1u);  // firing → clear resets the latch
  stuck = true;
  wd.poll_once();
  EXPECT_EQ(fr.anomaly_count(), 2u);  // second clear → firing edge
  fr.clear();
}

TEST(FlightTest, WatchdogThreadStartStopIsClean) {
  auto& fr = obs::FlightRecorder::global();
  fr.clear();
  fr.set_dump_path("");
  std::atomic<int> polls{0};
  obs::AnomalyWatchdog wd(std::chrono::milliseconds(1));
  wd.add_probe(obs::AnomalyKind::kQueueSaturated,
               [&]() -> std::optional<std::string> {
                 polls.fetch_add(1);
                 return std::nullopt;
               });
  wd.start();
  for (int spin = 0; spin < 500 && polls.load() < 3; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  wd.stop();
  wd.stop();  // idempotent
  EXPECT_GE(polls.load(), 3);
  EXPECT_EQ(fr.anomaly_count(), 0u);
  fr.clear();
}

}  // namespace
}  // namespace pnm
