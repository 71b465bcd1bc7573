// Simulator event-core microbenchmarks (google-benchmark):
//
//   BM_SimulatorEvents — event-dispatch rate on the packet-slab +
//                        calendar-queue core: a 1k-node chain flooded from
//                        50 sources, no marking or crypto, so the queue and
//                        dispatch dominate. items/s is events/s; hops_per_s
//                        counts delivered hops, the work that stays fixed.
//                        Radio-free events are pushed only when a packet
//                        waits for the radio, which roughly halved the
//                        events per run by design (511.5k -> ~257.6k), so
//                        items/s cannot be compared with runs of the eager
//                        core: compare hops_per_s or the wall time per run;
//   BM_CampaignSweep   — whole campaign sweeps (attacks × seeds of
//                        run_chain_experiment) through net::CampaignRunner at
//                        --jobs = Arg(0); items/s is runs/s, the cross-run
//                        throughput axis (scaling is machine-dependent; the
//                        recorder stores num_cpus alongside).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/sweep.h"
#include "net/report.h"
#include "net/simulator.h"
#include "net/topology.h"

namespace {

constexpr std::size_t kForwarders = 1000;  // 1002 nodes with sink + source

// Flood: 50 sources spaced along the chain, 10 packets each, paced 1 ms
// apart — deep per-node tx queues, dense same-time clusters, and kCall
// pacing events all land in the calendar.
void BM_SimulatorEvents(benchmark::State& state) {
  pnm::net::Topology topo = pnm::net::Topology::chain(kForwarders);
  pnm::net::RoutingTable routing(topo, pnm::net::RoutingStrategy::kTree);
  std::size_t total_events = 0;
  std::size_t delivered = 0;
  // Lossless flood: every packet crosses all hops from its source.
  std::size_t hops_per_run = 0;
  for (std::size_t s = 0; s < 50; ++s) {
    pnm::NodeId src = static_cast<pnm::NodeId>(kForwarders + 1 - s * 20);
    hops_per_run += 10 * routing.hops_to_sink(src);
  }
  for (auto _ : state) {
    state.PauseTiming();
    pnm::net::Simulator sim(topo, routing, pnm::net::LinkModel{},
                            pnm::net::EnergyModel{}, 42);
    for (std::size_t s = 0; s < 50; ++s) {
      pnm::NodeId src = static_cast<pnm::NodeId>(kForwarders + 1 - s * 20);
      for (std::size_t i = 0; i < 10; ++i) {
        sim.schedule(0.001 * static_cast<double>(i), [&sim, src, i] {
          pnm::net::Packet p;
          p.report =
              pnm::net::Report{static_cast<std::uint32_t>(src),
                               static_cast<std::uint16_t>(i), 0, 0}
                  .encode();
          p.true_source = src;
          p.seq = i;
          sim.inject(src, std::move(p));
        });
      }
    }
    state.ResumeTiming();
    bool ok = sim.run(100'000'000);
    benchmark::DoNotOptimize(ok);
    total_events += sim.events_processed();
    delivered = sim.packets_delivered();
  }
  if (delivered != 500) {
    std::fprintf(stderr, "flood delivered %zu packets, expected 500\n", delivered);
    std::abort();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
  state.counters["hops_per_s"] = benchmark::Counter(
      static_cast<double>(hops_per_run * state.iterations()), benchmark::Counter::kIsRate);
  state.counters["events_per_run"] =
      static_cast<double>(total_events) /
      static_cast<double>(state.iterations() ? state.iterations() : 1);
}
BENCHMARK(BM_SimulatorEvents)->Unit(benchmark::kMillisecond);

void BM_CampaignSweep(benchmark::State& state) {
  pnm::core::SweepConfig cfg;
  cfg.forwarders = 20;
  cfg.packets = 120;
  cfg.runs = 2;
  cfg.seed = 11;
  cfg.attacks = {pnm::attack::AttackKind::kSourceOnly,
                 pnm::attack::AttackKind::kRemoval,
                 pnm::attack::AttackKind::kIdentitySwap};
  cfg.jobs = static_cast<std::size_t>(state.range(0));
  std::string digest;
  std::size_t rows = 0;
  for (auto _ : state) {
    pnm::core::SweepResult r = pnm::core::run_sweep(cfg);
    rows += r.rows.size();
    if (digest.empty()) digest = r.sweep_digest;
    if (digest != r.sweep_digest) {
      std::fprintf(stderr, "sweep digest drifted across jobs=%zu\n", cfg.jobs);
      std::abort();
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows));
  state.counters["jobs"] = static_cast<double>(cfg.jobs);
}
// UseRealTime: with --jobs > 1 the sweep's work happens on pool worker
// threads, so the default CPU-time accounting (main thread only) would both
// mis-size the iteration budget and report a nonsense items/s. Wall clock is
// the honest axis for a fan-out benchmark.
BENCHMARK(BM_CampaignSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
