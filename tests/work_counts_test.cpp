// Exact work-count pins for the checked-in trace corpus.
//
// Every tests/corpus/<name>.pnmtrace is verified through sink::BatchVerifier
// (threads 1) under both strategies: record by record (batches of one) and
// as one whole-trace batch. The machine-independent work of each run —
// packets, PRF evaluations, PrfCache hits and misses, MAC checks, and for
// the scoped rows the ring expansions of the §7 search — is pinned in
// <name>.work next to the trace's .digest. These counts are the same on
// every host and SHA rung, unlike wall time, so a change to a verify path
// that moves them fails here.
//
// A count that rises is a regression. When a change is meant to lower one,
// regenerate the pins in the same change and say why:
//   PNM_UPDATE_GOLDENS=1 ./work_counts_test
//
// Each PNM trace also logs the paper-model expectation of its exhaustive
// sweep (analysis::expected_exhaustive_sweep) next to the measured PRF
// evaluations per packet. The log is for reading; the pins are the gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/models.h"
#include "core/campaign.h"
#include "net/wire.h"
#include "sink/batch_verifier.h"
#include "sink/scoped_verify.h"
#include "trace/reader.h"
#include "util/counters.h"

namespace pnm {
namespace {

const std::filesystem::path kCorpus = PNM_CORPUS_DIR;

std::vector<std::string> corpus_names() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kCorpus)) {
    if (entry.path().extension() == ".pnmtrace") names.push_back(entry.path().stem());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// One verifier's context rebuilt from a trace header by the decoder replay
/// and the serve daemon use, plus the trace's decodable packets.
struct Campaign {
  core::CampaignWorld world;
  std::vector<net::Packet> packets;
  bool pnm() const { return world.kind == marking::SchemeKind::kPnm; }
};

std::optional<Campaign> load(const std::string& name) {
  trace::TraceReader reader((kCorpus / (name + ".pnmtrace")).string());
  EXPECT_TRUE(reader.valid()) << reader.header_error();
  std::string error;
  std::optional<core::CampaignWorld> world = core::decode_campaign(reader.meta(), &error);
  if (!world) {
    ADD_FAILURE() << name << ": " << error;
    return std::nullopt;
  }

  std::vector<net::Packet> packets;
  while (auto outcome = reader.next()) {
    if (outcome->status != trace::ReadStatus::kRecord) continue;
    auto packet = net::decode_packet(outcome->record.wire);
    if (!packet) continue;
    packet->delivered_by = outcome->record.delivered_by;
    packets.push_back(std::move(*packet));
  }
  return Campaign{std::move(*world), std::move(packets)};
}

/// ScopedVerifyStats::ring_expansions summed over the trace. The search widens
/// on anonymous-ID and MAC outcomes alone, never on cache state, so one
/// uncached pass gives the count every scoped run walks.
std::size_t ring_expansions(const Campaign& c) {
  sink::ScopedVerifyStats stats;
  util::Counters counters;
  for (const net::Packet& p : c.packets)
    sink::scoped_verify_pnm(p, c.world.keys, c.world.topo, c.world.scheme->config(), &stats, nullptr,
                            &counters);
  return stats.ring_expansions;
}

/// "<strategy> <batching> packets=.. prf_evals=.. cache_hits=.. ..." for one
/// run of the whole trace, metered into `counters`.
std::string run_line(const Campaign& c, sink::BatchStrategy strategy, bool whole,
                     util::Counters& counters) {
  sink::BatchVerifierConfig bcfg;
  bcfg.threads = 1;
  bcfg.strategy = strategy;
  sink::BatchVerifier verifier(*c.world.scheme, c.world.keys, bcfg, &c.world.topo, &counters);
  if (whole) {
    verifier.verify_batch(c.packets);
  } else {
    for (const net::Packet& p : c.packets) verifier.verify_batch({p});
  }
  std::ostringstream line;
  line << (strategy == sink::BatchStrategy::kScoped ? "scoped" : "exhaustive") << ' '
       << (whole ? "whole" : "one")
       << " packets=" << counters.get(util::Metric::kPacketsVerified)
       << " prf_evals=" << counters.get(util::Metric::kPrfEvals)
       << " cache_hits=" << counters.get(util::Metric::kCacheHits)
       << " cache_misses=" << counters.get(util::Metric::kCacheMisses)
       << " mac_checks=" << counters.get(util::Metric::kMacChecks);
  if (strategy == sink::BatchStrategy::kScoped)
    line << " ring_expansions=" << ring_expansions(c);
  return line.str();
}

/// Fig. 4's model of the exhaustive sweep (every forwarder of the chain marks
/// with the trace's probability, the sweep steps 16 ids on every SHA rung)
/// against the PRF evaluations per packet measured on the trace. Each trace's
/// attack moves the measurement off the honest-chain model: stripped marks
/// lower it, and an invalid mark, which sweeps the whole table, raises it.
void log_model_vs_measured(const std::string& name, const Campaign& c,
                           const util::Counters& exhaustive) {
  const std::size_t forwarders = c.world.topo.node_count() - 2;  // minus sink, source
  const double p = c.world.scheme->config().mark_probability;
  const double packets = static_cast<double>(exhaustive.get(util::Metric::kPacketsVerified));
  const double measured =
      packets > 0 ? static_cast<double>(exhaustive.get(util::Metric::kPrfEvals)) / packets
                  : 0.0;
  std::printf("[ model    ] %s: n=%zu p=%g exhaustive sweep model %.3f, measured %.3f "
              "PRF evals/packet\n",
              name.c_str(), forwarders, p,
              analysis::expected_exhaustive_sweep(forwarders, p, 16), measured);
}

std::string compute_pins(const std::string& name) {
  std::optional<Campaign> loaded = load(name);
  if (!loaded) return "undecodable trace header\n";
  const Campaign& c = *loaded;
  std::string out;
  for (auto strategy : {sink::BatchStrategy::kExhaustive, sink::BatchStrategy::kScoped}) {
    if (strategy == sink::BatchStrategy::kScoped && !c.pnm()) continue;
    for (bool whole : {false, true}) {
      util::Counters counters;
      out += run_line(c, strategy, whole, counters) + '\n';
      if (c.pnm() && strategy == sink::BatchStrategy::kExhaustive && !whole)
        log_model_vs_measured(name, c, counters);
    }
  }
  return out;
}

class WorkCounts : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkCounts, MatchPins) {
  const std::string name = GetParam();
  const std::string got = compute_pins(name);
  const std::filesystem::path pin_path = kCorpus / (name + ".work");
  if (std::getenv("PNM_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(pin_path) << got;
    GTEST_SKIP() << "rewrote " << pin_path;
  }
  std::ifstream in(pin_path);
  ASSERT_TRUE(in.good()) << "missing pin file " << pin_path
                         << " (regenerate with PNM_UPDATE_GOLDENS=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, WorkCounts, ::testing::ValuesIn(corpus_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string id = info.param;
                           std::replace(id.begin(), id.end(), '-', '_');
                           return id;
                         });

}  // namespace
}  // namespace pnm
