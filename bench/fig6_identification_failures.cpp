// Figure 6 reproduction (simulation): number of runs, out of 100, in which
// the sink fails to unequivocally identify the source, as a function of path
// length (5..50) for four traffic amounts (200/400/600/800 received packets).
//
// Paper anchors: 200 packets suffice up to 20 hops (near-zero failures),
// 400 packets up to 30 hops; 50-hop paths need ~800 packets to push the
// failure rate under 5%.
//
// One 800-packet run serves all four traffic checkpoints: identification
// state is sampled at 200/400/600/800 delivered packets. Each failure count
// k out of n runs is printed with its 95% interval, ±1.96·√(k(n−k)/n).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/campaign.h"
#include "net/campaign_runner.h"

int main(int argc, char** argv) {
  using pnm::Table;
  auto args = pnm::bench::parse_args(argc, argv);
  std::size_t runs = args.runs ? args.runs : 100;  // paper: 100

  const std::size_t checkpoints[] = {200, 400, 600, 800};

  Table t({"path length", "fail@200", "±95%", "fail@400", "±95%", "fail@600", "±95%",
           "fail@800", "±95%", "wrong@800"});
  t.set_title("Fig. 6 — runs (out of " + std::to_string(runs) +
              ") where the source is NOT unequivocally identified (±95% = "
              "1.96·sqrt(k(n-k)/n))");

  // Independent runs fan out across --jobs workers; tallies accumulate in
  // run order, so the table is identical for any J.
  pnm::net::CampaignRunner runner(args.jobs);
  struct RunOutcome {
    bool identified_at[4] = {false, false, false, false};
    bool wrong_final = false;
  };
  for (std::size_t n = 5; n <= 50; n += 5) {
    std::function<RunOutcome(std::size_t)> one_run = [&](std::size_t r) {
      pnm::core::ChainExperimentConfig cfg;
      cfg.forwarders = n;
      cfg.packets = 800;
      cfg.seed = args.seed * 99991 + r * 31337 + n;
      RunOutcome out;
      auto result = pnm::core::run_chain_experiment(
          cfg, [&](std::size_t count, const pnm::sink::TracebackEngine& engine) {
            for (int c = 0; c < 4; ++c)
              if (count == checkpoints[c])
                out.identified_at[c] = engine.analysis().identified;
          });
      out.wrong_final =
          result.final_analysis.identified && !result.correct_source_neighborhood;
      return out;
    };
    std::vector<RunOutcome> outcomes = runner.run_all<RunOutcome>(runs, one_run);
    std::size_t fails[4] = {0, 0, 0, 0};
    std::size_t wrong_final = 0;
    for (const RunOutcome& out : outcomes) {
      for (int c = 0; c < 4; ++c)
        if (!out.identified_at[c]) ++fails[c];
      if (out.wrong_final) ++wrong_final;
    }
    std::vector<std::string> row{Table::num(n)};
    for (std::size_t f : fails) {
      row.push_back(Table::num(f));
      row.push_back(Table::num(pnm::bench::count_ci95(f, runs), 1));
    }
    row.push_back(Table::num(wrong_final));
    t.add_row(std::move(row));
  }
  pnm::bench::emit(t, args);

  std::printf("paper shape: ~0 failures for n<=20 @200 and n<=30 @400; "
              "<5%% for n=50 @800\n");
  return 0;
}
