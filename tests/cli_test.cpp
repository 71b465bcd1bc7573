// End-to-end tests of the `pnm` CLI binary: every subcommand runs, produces
// the expected shape of output, and exits with the right status. Exercises
// the tool the way a user does (subprocess + captured stdout).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "cli_runner.h"

namespace {

using pnm::test::CliResult;
using pnm::test::run_cli;

TEST(Cli, ListEnumeratesSchemesAndAttacks) {
  CliResult r = run_cli("list");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("pnm"), std::string::npos);
  EXPECT_NE(r.out.find("extended-ams"), std::string::npos);
  EXPECT_NE(r.out.find("identity-swap"), std::string::npos);
  EXPECT_NE(r.out.find("selective-drop"), std::string::npos);
}

TEST(Cli, ExperimentReportsVerdict) {
  CliResult r = run_cli("experiment --forwarders 8 --packets 120 --seed 5");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("identified"), std::string::npos);
  EXPECT_NE(r.out.find("mole in suspects (ground truth) | YES"), std::string::npos);
}

TEST(Cli, ExperimentRenderDotEmitsGraphviz) {
  CliResult r = run_cli("experiment --forwarders 6 --packets 80 --render dot");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("digraph traceback"), std::string::npos);
}

TEST(Cli, CampaignNeutralizesAttack) {
  CliResult r = run_cli("campaign --forwarders 12 --attack source-only --seed 7");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("caught"), std::string::npos);
}

TEST(Cli, ModelPrintsClosedForms) {
  CliResult r = run_cli("model --forwarders 20");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("90% full mark collection"), std::string::npos);
}

TEST(Cli, UnknownInputsFailCleanly) {
  EXPECT_EQ(run_cli("frobnicate").exit_code, 2);
  EXPECT_EQ(run_cli("experiment --scheme nonsense").exit_code, 2);
  EXPECT_EQ(run_cli("experiment --attack nonsense").exit_code, 2);
  EXPECT_EQ(run_cli("").exit_code, 2);
}

TEST(Cli, UnknownOrMalformedFlagsAreRefused) {
  // Each case names the flag at fault and exits 2 before any work is done;
  // none may fall back to a default and run.
  const std::string trace = std::string(PNM_CORPUS_DIR) + "/mark-removal.pnmtrace";
  const std::pair<std::string, std::string> refused[] = {
      {"replay --in " + trace + " --shard 4", "--shard"},  // typo of --shards
      {"list --sha-backend scalar", "--sha-backend"},       // not a flag at all
      {"replay --in " + trace + " --threads abc", "--threads"},
      {"replay --in " + trace + " --threads 4x", "--threads"},
      {"replay --in " + trace + " --threads -1", "--threads"},
      {"replay --in " + trace + " --threads", "--threads"},  // no value
      {"experiment --forwarders 6 --loss lots", "--loss"},
      {"campaign --grid 4xq", "--grid"},
      {"campaign --grid 4x0", "--grid"},  // an empty field
      {"list --metrics-every-ms soon", "--metrics-every-ms"},
  };
  for (const auto& [args, flag] : refused) {
    CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.out;
    EXPECT_NE(r.out.find(flag), std::string::npos) << args << "\n" << r.out;
  }
  EXPECT_EQ(run_cli("replay " + trace).exit_code, 2);  // a bare word, not --in
  // The observability flags are accepted on every command.
  EXPECT_EQ(run_cli("list --provenance-rate 0 --metrics-format prom").exit_code, 0);
  EXPECT_EQ(run_cli("model --forwarders 8 --metrics-every-ms 0").exit_code, 0);
}

TEST(Cli, OutOfRangePortsAreRefusedBeforeAnySocketOpens) {
  // A port above 65535 used to wrap (65536 read as 0, 70000 as 4464). Each
  // case must exit 2 naming the flag before a listener or a dial exists. The
  // timeout turns a regressed check, a daemon serving forever, into a
  // failure instead of a hang.
  const std::string trace = std::string(PNM_CORPUS_DIR) + "/no-mark.pnmtrace";
  const std::pair<std::string, std::string> refused[] = {
      {"serve --campaign " + trace + " --port 65536", "--port"},
      {"serve --campaign " + trace + " --admin-port 70000", "--admin-port"},
      {"loadgen --traces " + trace + " --port 65536", "--port"},
      {"loadgen --traces " + trace + " --port 70000", "--port"},
      {"flight-dump --admin-port 70000", "--admin-port"},
  };
  for (const auto& [args, flag] : refused) {
    CliResult r = pnm::test::run_command("timeout 20 '" PNM_CLI_PATH "' " + args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.out;
    EXPECT_NE(r.out.find(flag + " expects a port number"), std::string::npos)
        << args << "\n" << r.out;
    EXPECT_EQ(r.out.find("sessions on"), std::string::npos) << args << "\n" << r.out;
  }
}

TEST(Cli, WorkerCountsAboveTheCapAreRefusedBeforeAnyThreadStarts) {
  // 256 is the most threads, shards, jobs or connections a flag may ask
  // for. Each case must exit 2 naming the flag; the timeout turns a
  // regressed check (a run or a daemon with 257 workers) into a failure.
  const std::string trace = std::string(PNM_CORPUS_DIR) + "/no-mark.pnmtrace";
  const std::pair<std::string, std::string> refused[] = {
      {"replay --in " + trace + " --threads 257", "--threads"},
      {"replay --in " + trace + " --shards 257", "--shards"},
      {"serve --campaign " + trace + " --threads 257", "--threads"},
      {"serve --campaign " + trace + " --shards 257", "--shards"},
      {"verify --packets 1 --threads 257", "--threads"},
      {"matrix --packets 1 --jobs 257", "--jobs"},
      {"sweep --runs 1 --jobs 257", "--jobs"},
      {"loadgen --traces " + trace + " --connections 257", "--connections"},
  };
  for (const auto& [args, flag] : refused) {
    CliResult r = pnm::test::run_command("timeout 20 '" PNM_CLI_PATH "' " + args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.out;
    EXPECT_NE(r.out.find(flag + " expects at most 256"), std::string::npos)
        << args << "\n" << r.out;
  }
}

TEST(Cli, ShaBackendGaugeReportsTheForcedRungBeforeAnyHashing) {
  // `list` hashes nothing, so the gauge holds whatever was registered at
  // startup: that must be the rung the env override picked, not the best
  // one the CPU supports.
  const std::string out = ::testing::TempDir() + "/cli_backend_metrics.json";
  CliResult r = run_cli("list --metrics-out " + out, "PNM_FORCE_SHA_BACKEND=scalar");
  ASSERT_EQ(r.exit_code, 0) << r.out;
  const std::string body = pnm::test::read_file(out);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("\"sha256_backend\":0"), std::string::npos) << body;
  std::remove(out.c_str());
}

TEST(Cli, RecordReplayStatRoundTrip) {
  std::string trace = ::testing::TempDir() + "/cli_roundtrip.pnmtrace";

  CliResult rec = run_cli("record --out " + trace +
                          " --forwarders 8 --packets 120 --seed 5");
  EXPECT_EQ(rec.exit_code, 0) << rec.out;
  EXPECT_NE(rec.out.find("trace capture"), std::string::npos);
  EXPECT_NE(rec.out.find("records written"), std::string::npos);

  CliResult stat = run_cli("trace-stat --in " + trace);
  EXPECT_EQ(stat.exit_code, 0) << stat.out;
  EXPECT_NE(stat.out.find("meta.seed"), std::string::npos);
  EXPECT_NE(stat.out.find("meta.scheme"), std::string::npos);
  EXPECT_NE(stat.out.find("meta.config_digest"), std::string::npos);

  CliResult rep = run_cli("replay --in " + trace + " --threads 2");
  EXPECT_EQ(rep.exit_code, 0) << rep.out;
  EXPECT_NE(rep.out.find("trace replay"), std::string::npos);
  EXPECT_NE(rep.out.find("verdict digest: "), std::string::npos);
  EXPECT_NE(rep.out.find("counters: {"), std::string::npos);

  // Live and replayed runs must land on the same accusation table rows.
  CliResult live = run_cli("experiment --forwarders 8 --packets 120 --seed 5");
  // Extract a row's value with table padding stripped, so rows from tables
  // with different column widths compare equal.
  auto row = [](const std::string& out, const std::string& key) {
    std::size_t at = out.find(key);
    if (at == std::string::npos) return std::string();
    std::size_t end = out.find('\n', at);
    std::string value = out.substr(at + key.size(), end - at - key.size());
    std::string packed;
    for (char c : value)
      if (c != ' ' && c != '|') packed.push_back(c);
    return packed;
  };
  EXPECT_EQ(row(rep.out, "stop node"), row(live.out, "stop node"));
  EXPECT_EQ(row(rep.out, "suspects"), row(live.out, "suspects"));

  std::remove(trace.c_str());
}

TEST(Cli, ReplayDigestIsDeterministicAcrossThreadCounts) {
  std::string trace = ::testing::TempDir() + "/cli_digest.pnmtrace";
  ASSERT_EQ(run_cli("record --out " + trace +
                    " --forwarders 6 --packets 80 --seed 9 --attack mark-removal")
                .exit_code,
            0);
  auto digest_of = [&](const std::string& extra) {
    return pnm::test::verdict_digest(run_cli("replay --in " + trace + " " + extra).out);
  };
  std::string serial = digest_of("--threads 1");
  ASSERT_EQ(serial.size(), 64u);
  EXPECT_EQ(digest_of("--threads 4"), serial);
  EXPECT_EQ(digest_of("--threads 4 --batch 8"), serial);
  std::remove(trace.c_str());
}

TEST(Cli, TraceSubcommandsFailCleanlyOnBadInput) {
  EXPECT_EQ(run_cli("record --forwarders 4").exit_code, 2);  // missing --out
  EXPECT_EQ(run_cli("replay").exit_code, 2);                 // missing --in
  EXPECT_EQ(run_cli("trace-stat").exit_code, 2);
  EXPECT_EQ(run_cli("replay --in /nonexistent-dir-xyz/t.pnmtrace").exit_code, 1);
  EXPECT_EQ(run_cli("trace-stat --in /nonexistent-dir-xyz/t.pnmtrace").exit_code, 1);
}

}  // namespace
