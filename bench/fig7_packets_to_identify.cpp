// Figure 7 reproduction (simulation): average number of packets the sink
// needs to unequivocally identify the source, as a function of path length,
// among runs where identification succeeds; 800 packets received per run.
//
// Paper anchors: ~55 packets on average for paths under 20 nodes; ~220
// packets for 40-node paths.
#include <cstdio>

#include "analysis/models.h"
#include "bench_util.h"
#include "core/campaign.h"
#include "net/campaign_runner.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using pnm::Table;
  auto args = pnm::bench::parse_args(argc, argv);
  // Paper averages 5000 runs; the default trades a little smoothness for time.
  std::size_t runs = args.runs ? args.runs : 300;

  Table t({"path length", "avg packets to identify", "±95%", "p50", "p90", "identified runs",
           "E[1/p^2] (pair bound)"});
  t.set_title("Fig. 7 — avg packets to unequivocally identify the source (800 pkts/run, " +
              std::to_string(runs) + " runs; averaged over identified runs only; ±95% = "
              "1.96 standard errors)");

  // Fan independent runs across --jobs workers; samples are added in run
  // order, so every statistic is identical for any J.
  pnm::net::CampaignRunner runner(args.jobs);
  for (std::size_t n = 5; n <= 50; n += 5) {
    std::function<std::optional<double>(std::size_t)> one_run =
        [&](std::size_t r) -> std::optional<double> {
      pnm::core::ChainExperimentConfig cfg;
      cfg.forwarders = n;
      cfg.packets = 800;
      cfg.seed = args.seed * 7777777 + r * 104729 + n;
      auto result = pnm::core::run_chain_experiment(cfg);
      if (result.final_analysis.identified && result.packets_to_identify)
        return static_cast<double>(*result.packets_to_identify);
      return std::nullopt;
    };
    std::vector<std::optional<double>> per_run =
        runner.run_all<std::optional<double>>(runs, one_run);
    pnm::SampleSet samples;
    pnm::Accumulator acc;
    for (const std::optional<double>& s : per_run) {
      if (!s) continue;
      samples.add(*s);
      acc.add(*s);
    }
    double p = 3.0 / static_cast<double>(n);
    t.add_row({Table::num(n), Table::num(samples.mean(), 1),
               Table::num(pnm::bench::ci95(acc), 1), Table::num(samples.median(), 1),
               Table::num(samples.percentile(0.9), 1),
               Table::num(samples.count()),
               Table::num(pnm::analysis::expected_packets_to_order_first_pair(
                              p > 1.0 ? 1.0 : p),
                          1)});
  }
  pnm::bench::emit(t, args);

  std::printf("paper shape: ~55 packets for n<20; ~220 packets for n=40\n");
  return 0;
}
