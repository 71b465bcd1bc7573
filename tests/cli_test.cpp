// End-to-end tests of the `pnm` CLI binary: every subcommand runs, produces
// the expected shape of output, and exits with the right status. Exercises
// the tool the way a user does (subprocess + captured stdout).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string out;
};

/// Run the tool with `args`; `env` (e.g. "NAME=value") prefixes the command.
CliResult run_cli(const std::string& args, const std::string& env = "") {
  // The test binary runs from build/tests; the tool lives in build/tools.
  std::string cmd = env + (env.empty() ? "" : " ") + "../tools/pnm " + args + " 2>&1";
  std::array<char, 4096> buf{};
  CliResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return result;
  while (std::fgets(buf.data(), buf.size(), pipe)) result.out += buf.data();
  int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

bool tool_available() {
  FILE* f = std::fopen("../tools/pnm", "rb");
  if (f) std::fclose(f);
  return f != nullptr;
}

#define REQUIRE_TOOL() \
  if (!tool_available()) GTEST_SKIP() << "pnm tool not built next to tests"

TEST(Cli, ListEnumeratesSchemesAndAttacks) {
  REQUIRE_TOOL();
  CliResult r = run_cli("list");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("pnm"), std::string::npos);
  EXPECT_NE(r.out.find("extended-ams"), std::string::npos);
  EXPECT_NE(r.out.find("identity-swap"), std::string::npos);
  EXPECT_NE(r.out.find("selective-drop"), std::string::npos);
}

TEST(Cli, ExperimentReportsVerdict) {
  REQUIRE_TOOL();
  CliResult r = run_cli("experiment --forwarders 8 --packets 120 --seed 5");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("identified"), std::string::npos);
  EXPECT_NE(r.out.find("mole in suspects (ground truth) | YES"), std::string::npos);
}

TEST(Cli, ExperimentRenderDotEmitsGraphviz) {
  REQUIRE_TOOL();
  CliResult r = run_cli("experiment --forwarders 6 --packets 80 --render dot");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("digraph traceback"), std::string::npos);
}

TEST(Cli, CampaignNeutralizesAttack) {
  REQUIRE_TOOL();
  CliResult r = run_cli("campaign --forwarders 12 --attack source-only --seed 7");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("caught"), std::string::npos);
}

TEST(Cli, ModelPrintsClosedForms) {
  REQUIRE_TOOL();
  CliResult r = run_cli("model --forwarders 20");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("90% full mark collection"), std::string::npos);
}

TEST(Cli, UnknownInputsFailCleanly) {
  REQUIRE_TOOL();
  EXPECT_EQ(run_cli("frobnicate").exit_code, 2);
  EXPECT_EQ(run_cli("experiment --scheme nonsense").exit_code, 2);
  EXPECT_EQ(run_cli("experiment --attack nonsense").exit_code, 2);
  EXPECT_EQ(run_cli("").exit_code, 2);
}

TEST(Cli, ShaBackendGaugeReportsTheForcedRungBeforeAnyHashing) {
  // `list` hashes nothing, so the gauge holds whatever was registered at
  // startup: that must be the rung the env override picked, not the best
  // one the CPU supports.
  REQUIRE_TOOL();
  const std::string out = ::testing::TempDir() + "/cli_backend_metrics.json";
  CliResult r = run_cli("list --metrics-out " + out, "PNM_FORCE_SHA_BACKEND=scalar");
  ASSERT_EQ(r.exit_code, 0) << r.out;
  FILE* f = std::fopen(out.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  std::array<char, 4096> buf{};
  for (std::size_t n; (n = std::fread(buf.data(), 1, buf.size(), f)) > 0;)
    body.append(buf.data(), n);
  std::fclose(f);
  EXPECT_NE(body.find("\"sha256_backend\":0"), std::string::npos) << body;
  std::remove(out.c_str());
}

TEST(Cli, RecordReplayStatRoundTrip) {
  REQUIRE_TOOL();
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
  REQUIRE_TOOL();
  std::string trace = ::testing::TempDir() + "/cli_digest.pnmtrace";
  ASSERT_EQ(run_cli("record --out " + trace +
                    " --forwarders 6 --packets 80 --seed 9 --attack mark-removal")
                .exit_code,
            0);
  auto digest_of = [&](const std::string& extra) {
    std::string out = run_cli("replay --in " + trace + " " + extra).out;
    std::size_t at = out.find("verdict digest: ");
    return at == std::string::npos ? std::string()
                                   : out.substr(at + 16, 64);
  };
  std::string serial = digest_of("--threads 1");
  ASSERT_EQ(serial.size(), 64u);
  EXPECT_EQ(digest_of("--threads 4"), serial);
  EXPECT_EQ(digest_of("--threads 4 --batch 8"), serial);
  std::remove(trace.c_str());
}

TEST(Cli, TraceSubcommandsFailCleanlyOnBadInput) {
  REQUIRE_TOOL();
  EXPECT_EQ(run_cli("record --forwarders 4").exit_code, 2);  // missing --out
  EXPECT_EQ(run_cli("replay").exit_code, 2);                 // missing --in
  EXPECT_EQ(run_cli("trace-stat").exit_code, 2);
  EXPECT_EQ(run_cli("replay --in /nonexistent-dir-xyz/t.pnmtrace").exit_code, 1);
  EXPECT_EQ(run_cli("trace-stat --in /nonexistent-dir-xyz/t.pnmtrace").exit_code, 1);
}

}  // namespace
