// PNM's result is a verdict (the stop node and its one-hop suspects). These
// cases pin it end to end through the `pnm` binary: every corpus trace
// against its golden `.digest` and one canonical provenance export across
// every shards x threads x batch x scoped config; a fresh record->replay
// round trip; a fully instrumented replay whose exports pass the
// scripts/check_*.py linters; and damaged traces, which must end by exit
// status 0 or 1 with no sanitizer report. The pnm subprocesses inherit
// PNM_FORCE_SHA_BACKEND, so one run pins one SHA-256 rung. ROADMAP items 1
// (differential harness) and 3 (explain diff) extend this file.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_runner.h"

namespace {

namespace fs = std::filesystem;
using pnm::test::CliResult;
using pnm::test::read_file;
using pnm::test::run_cli;
using pnm::test::run_command;
using pnm::test::verdict_digest;

const std::string kCorpus = PNM_CORPUS_DIR;
const std::string kMetricsKeys = PNM_GOLDEN_DIR "/replay_metrics_keys.golden";

std::string golden_digest(const std::string& name) {
  std::string text = read_file(kCorpus + "/" + name + ".digest");
  return text.substr(0, text.find('\n'));
}

/// A fresh directory for one test's files, removed when the test ends.
struct ScratchDir {
  std::string path = fs::path(::testing::TempDir()) / "pnm_determinism_XXXXXX";
  ScratchDir() { EXPECT_NE(mkdtemp(path.data()), nullptr) << path; }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  std::string operator/(const std::string& file) const { return path + "/" + file; }
};

/// `python3 scripts/<script> <args>`; a missing python3 fails the test.
CliResult run_script(const std::string& script, const std::string& args) {
  return run_command("python3 '" PNM_SCRIPTS_DIR "/" + script + "' " + args);
}

std::vector<std::string> corpus_names() {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(kCorpus))
    if (entry.path().extension() == ".pnmtrace") names.push_back(entry.path().stem());
  std::sort(names.begin(), names.end());
  return names;
}

class CorpusDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusDeterminism, DigestAndProvenanceAcrossEveryConfig) {
  const std::string trace = kCorpus + "/" + GetParam() + ".pnmtrace";
  const std::string golden = golden_digest(GetParam());
  ASSERT_EQ(golden.size(), 64u) << "no golden digest next to " << trace;
  ScratchDir dir;
  std::string baseline;  // canonical provenance at shards/threads/batch/scoped 1/1/1/0
  for (int shards : {1, 2, 8}) {
    for (int threads : {1, 4}) {
      for (int batch : {1, 256}) {
        for (int scoped : {0, 1}) {
          const std::string config =
              "--shards " + std::to_string(shards) + " --threads " + std::to_string(threads) +
              " --batch " + std::to_string(batch) + " --scoped " + std::to_string(scoped);
          fs::remove(dir / "prov.jsonl");  // a run that writes nothing must not pass
          CliResult r = run_cli("replay --in " + trace + " " + config + " --provenance-out " +
                                (dir / "prov.jsonl"));
          ASSERT_EQ(r.exit_code, 0) << config << "\n" << r.out;
          EXPECT_EQ(verdict_digest(r.out), golden) << config;
          std::string jsonl = read_file(dir / "prov.jsonl");
          ASSERT_FALSE(jsonl.empty()) << config << ": no provenance exported";
          if (baseline.empty()) baseline = jsonl;
          EXPECT_EQ(jsonl, baseline) << config << ": provenance diverges from 1/1/1/0";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusDeterminism, ::testing::ValuesIn(corpus_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Determinism, FreshRecordReplaysToOneDigestSerialThreadedAndSharded) {
  ScratchDir dir;
  const std::string replay = "replay --in " + (dir / "fresh.pnmtrace");
  CliResult rec = run_cli("record --out " + (dir / "fresh.pnmtrace") +
                          " --forwarders 10 --packets 1000 --seed 1 --attack mark-removal");
  ASSERT_EQ(rec.exit_code, 0) << rec.out;
  const std::string serial = verdict_digest(run_cli(replay + " --threads 1").out);
  ASSERT_EQ(serial.size(), 64u);
  EXPECT_EQ(verdict_digest(run_cli(replay + " --threads 4 --batch 8").out), serial);
  EXPECT_EQ(verdict_digest(run_cli(replay + " --shards 4 --batch 8").out), serial);
}

TEST(Determinism, InstrumentedReplayKeepsTheDigestAndExportsCleanly) {
  ScratchDir dir;
  const std::string spans = dir / "spans.json";
  // Each shard exports an ingest_queue_depth_shard<i> gauge, so the json key
  // check is told the run's shard count.
  struct Run {
    std::string config, format;
    int shards;
  };
  const Run runs[] = {{"--threads 4", "prom", 1},
                      {"--threads 4", "json", 1},
                      {"--shards 2 --threads 2", "prom", 2},
                      {"--shards 2 --threads 2", "json", 2}};
  for (const auto& [config, format, shards] : runs) {
    const std::string metrics = dir / ("metrics." + format);
    fs::remove(metrics);  // stale exports from an earlier run must not pass
    fs::remove(spans);
    CliResult r = run_cli("replay --in " + kCorpus + "/mark-removal.pnmtrace " + config +
                          " --metrics-every-ms 1 --span-trace " + spans + " --metrics-out " +
                          metrics + " --metrics-format " + format);
    ASSERT_EQ(r.exit_code, 0) << config << " " << format << "\n" << r.out;
    EXPECT_EQ(verdict_digest(r.out), golden_digest("mark-removal")) << config << " " << format;
    CliResult lint = format == "prom"
                         ? run_script("check_prom.py", metrics)
                         : run_script("check_metrics_json.py", metrics + " " + kMetricsKeys +
                                                                   " --shards " +
                                                                   std::to_string(shards));
    EXPECT_EQ(lint.exit_code, 0) << config << " " << format << "\n" << lint.out;
    CliResult span_check = run_script("check_spans.py", spans);
    EXPECT_EQ(span_check.exit_code, 0) << config << " " << format << "\n" << span_check.out;
  }
}

TEST(Determinism, DamagedTracesExitCleanlyWithoutSanitizerReports) {
  // Every 293rd byte from offset 16: overwrite it with 0xFF, and separately
  // cut the file there. Damage is counted, never fatal: replay and
  // trace-stat exit 0 (records skipped) or 1 (header unreadable).
  const std::string source = read_file(kCorpus + "/mark-removal.pnmtrace");
  ASSERT_GT(source.size(), 16u);
  ScratchDir dir;
  const std::string flipped = dir / "flipped.pnmtrace", cut = dir / "cut.pnmtrace";
  for (std::size_t off = 16; off < source.size(); off += 293) {
    std::string bytes = source;
    bytes[off] = '\xff';
    std::ofstream(flipped, std::ios::binary) << bytes;
    std::ofstream(cut, std::ios::binary) << source.substr(0, off);
    for (const std::string& file : {flipped, cut}) {
      for (const std::string cmd : {"replay", "trace-stat"}) {
        CliResult r = run_cli(cmd + " --in " + file);
        const std::string label = cmd + " " + file + " at offset " + std::to_string(off);
        EXPECT_TRUE(r.exit_code == 0 || r.exit_code == 1) << label << ": exit " << r.exit_code;
        EXPECT_EQ(r.out.find("Sanitizer"), std::string::npos) << label << "\n" << r.out;
        EXPECT_EQ(r.out.find("runtime error:"), std::string::npos) << label << "\n" << r.out;
      }
    }
  }
}

}  // namespace
