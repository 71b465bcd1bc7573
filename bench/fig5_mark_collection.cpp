// Figure 5 reproduction (simulation): average percentage of forwarding nodes
// whose marks the sink has collected within the first x packets, for paths of
// 10/20/30 nodes with np = 3.
//
// Paper anchors: 10-hop path — marks from ~9 nodes within 7 packets;
// 90% coverage at ~14 packets (n=20) and ~22 packets (n=30).
#include <cstdio>
#include <vector>

#include "analysis/models.h"
#include "bench_util.h"
#include "core/campaign.h"
#include "net/campaign_runner.h"

int main(int argc, char** argv) {
  using pnm::Table;
  auto args = pnm::bench::parse_args(argc, argv);
  // Paper uses 5000 runs; default lower for a laptop-quick pass.
  std::size_t runs = args.runs ? args.runs : 1000;

  const std::size_t lengths[] = {10, 20, 30};
  const std::size_t max_packets = 60;

  // coverage[cfg][x] accumulates, run by run, the # markers seen after x
  // packets: its mean and its 95% interval.
  std::vector<std::vector<pnm::Accumulator>> coverage(
      3, std::vector<pnm::Accumulator>(max_packets + 1));

  // Runs are independent simulations; fan them across --jobs workers and
  // accumulate in run order so the sums are byte-identical for any J.
  pnm::net::CampaignRunner runner(args.jobs);
  for (std::size_t li = 0; li < 3; ++li) {
    std::size_t n = lengths[li];
    std::function<std::vector<std::size_t>(std::size_t)> one_run =
        [&](std::size_t r) {
          pnm::core::ChainExperimentConfig cfg;
          cfg.forwarders = n;
          cfg.packets = max_packets;
          cfg.seed = args.seed * 1000003 + r * 7919 + li;
          std::vector<std::size_t> per_packet(max_packets + 1, 0);
          pnm::core::run_chain_experiment(
              cfg, [&](std::size_t count, const pnm::sink::TracebackEngine& engine) {
                if (count <= max_packets)
                  per_packet[count] = engine.markers_seen().size();
              });
          // Carry forward (coverage is monotone; fill any gaps).
          for (std::size_t x = 1; x <= max_packets; ++x)
            per_packet[x] = std::max(per_packet[x], per_packet[x - 1]);
          return per_packet;
        };
    std::vector<std::vector<std::size_t>> per_run =
        runner.run_all<std::vector<std::size_t>>(runs, one_run);
    for (const std::vector<std::size_t>& per_packet : per_run)
      for (std::size_t x = 1; x <= max_packets; ++x)
        coverage[li][x].add(static_cast<double>(per_packet[x]));
  }

  Table t({"packets(x)", "%nodes n=10", "±95% n=10", "%nodes n=20", "±95% n=20",
           "%nodes n=30", "±95% n=30"});
  t.set_title("Fig. 5 — avg % of nodes whose marks are collected in first x packets (" +
              std::to_string(runs) + " runs, np=3; ±95% = 1.96 standard errors)");
  for (std::size_t x = 1; x <= max_packets; ++x) {
    std::vector<std::string> row{Table::num(x)};
    for (std::size_t li = 0; li < 3; ++li) {
      const double to_pct = 100.0 / static_cast<double>(lengths[li]);
      row.push_back(Table::num(to_pct * coverage[li][x].mean(), 2));
      row.push_back(Table::num(to_pct * pnm::bench::ci95(coverage[li][x]), 2));
    }
    t.add_row(std::move(row));
  }
  pnm::bench::emit(t, args);

  Table anchors({"metric", "measured", "±95%", "paper"});
  anchors.set_title("Fig. 5 anchors");
  anchors.add_row({"nodes collected, n=10, 7 packets", Table::num(coverage[0][7].mean(), 2),
                   Table::num(pnm::bench::ci95(coverage[0][7]), 2), "~9"});
  auto first_x_at = [&](std::size_t li, double frac) -> std::size_t {
    double target = frac * static_cast<double>(lengths[li]);
    for (std::size_t x = 1; x <= max_packets; ++x)
      if (coverage[li][x].mean() >= target) return x;
    return max_packets;
  };
  anchors.add_row({"packets to 90% coverage, n=20", Table::num(first_x_at(1, 0.9)), "-", "~14"});
  anchors.add_row({"packets to 90% coverage, n=30", Table::num(first_x_at(2, 0.9)), "-", "~22"});
  pnm::bench::emit(anchors, args);
  return 0;
}
