// §4.2 sink-feasibility microbenchmarks (google-benchmark): the paper argues
// the anonymous-ID search is affordable because the sink can hash millions of
// times per second, so building a per-report table for a few-thousand-node
// network costs milliseconds and verification throughput far exceeds the
// ~50 pkt/s sensor radio ceiling. Measured here:
//
//   BM_HmacSha256        — one-off HMAC from a raw key: rebuilds the
//                          ipad/opad schedule on every call (4 compressions
//                          for a short message), so it is NOT the sink's rate;
//   BM_HmacSha256Keyed   — HMAC through a prebuilt HmacKey, as the sink MACs
//                          and PRFs through KeyStore::hmac_key (2 compressions
//                          for a short message): the rate to compare with the
//                          paper's 2.5 M/s figure (an Athlon 1.6 GHz);
//   BM_AnonTableBuild    — per-report table construction vs network size;
//   BM_VerifyPacketPnm   — full packet verification (table + backward pass);
//   BM_ScopedLookup      — the §7 O(d) topology-scoped alternative: one
//                          marked packet through scoped_verify_pnm;
//   BM_VerifyPacketNested— plaintext nested verification for contrast;
//   BM_BatchVerify       — the batch engine, serial (1 thread) vs N-thread
//                          sweep over one fixed workload (pkts_per_s is the
//                          scaling axis; threads=1 is the serial baseline);
//   BM_BatchVerifyScoped — same sweep through the §7 scoped search with the
//                          sharded PRF memo cache;
//   BM_CrossPacketVerify — a duplicate-heavy 64-flow batch through the
//                          exhaustive batch engine: flows re-deliver the same
//                          report, so each report group shares one lazily
//                          grown AnonIdTable. Two rows: 20 hops in a 1000-node
//                          key space (sparse markers, early exit after the
//                          first sweep chunks) and a 200-hop chain whose
//                          markers span every id (sweeps run near the end).
//
// After the benchmark run, the global metrics registry is scraped and dumped
// as one JSON line ("metrics: {...}") so CI and scripts can scrape PRF/MAC/
// cache totals, batch latency percentiles and the per-strategy packet
// histograms — everything util::Counters used to report plus the registry's
// newer instruments.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256_multi.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "net/topology.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "sink/anon_lookup.h"
#include "sink/batch_verifier.h"
#include "sink/scoped_verify.h"
#include "util/counters.h"
#include "util/rng.h"

namespace {

pnm::Bytes master() { return pnm::Bytes{0xaa, 0xbb, 0xcc}; }

void BM_HmacSha256(benchmark::State& state) {
  pnm::Bytes key(16, 0x5a);
  pnm::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pnm::crypto::hmac_sha256(key, msg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(128);

void BM_HmacSha256Keyed(benchmark::State& state) {
  const pnm::crypto::HmacKey key(pnm::Bytes(16, 0x5a));
  pnm::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.mac(msg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HmacSha256Keyed)->Arg(32)->Arg(128);

void BM_AnonTableBuild(benchmark::State& state) {
  std::size_t nodes = static_cast<std::size_t>(state.range(0));
  pnm::crypto::KeyStore keys(master(), nodes);
  pnm::Bytes report = pnm::net::Report{1, 2, 3, 4}.encode();
  for (auto _ : state) {
    pnm::sink::AnonIdTable table(keys, report, 2);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_AnonTableBuild)->Arg(100)->Arg(1000)->Arg(4000);

// Per-report table rebuild swept across the SHA-256 dispatch ladder. The
// second arg pins a backend (its Sha256Backend value: 0=scalar 1=sse2
// 2=avx2 3=shani 4=avx512) or leaves the runtime dispatch in charge
// (kAutoBackend); unsupported pins are skipped so the sweep is portable. The
// auto/scalar ratio is the dispatch ladder's speedup on this host; every rung
// is bit-identical, which the corpus digest checks pin.
constexpr int kAutoBackend = -1;

void BM_AnonTableRebuild(benchmark::State& state) {
  std::size_t nodes = static_cast<std::size_t>(state.range(0));
  int sel = static_cast<int>(state.range(1));
  const bool pinned = sel != kAutoBackend;
  auto backend = static_cast<pnm::crypto::Sha256Backend>(sel);
  if (pinned && !pnm::crypto::sha_backend_supported(backend)) {
    state.SkipWithError("backend unsupported on this CPU");
    return;
  }
  if (pinned) pnm::crypto::force_sha_backend(backend);
  pnm::crypto::KeyStore keys(master(), nodes);
  pnm::Bytes report = pnm::net::Report{7, 7, 7, 7}.encode();
  for (auto _ : state) {
    pnm::sink::AnonIdTable table(keys, report, 2);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetLabel(pnm::crypto::sha_backend_name(pnm::crypto::active_sha_backend()));
  if (pinned) pnm::crypto::force_sha_backend(std::nullopt);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (nodes - 1)));
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["prf_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * (nodes - 1)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnonTableRebuild)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 3})
    ->Args({1000, 4})
    ->Args({1000, kAutoBackend})
    ->Args({4000, kAutoBackend});

// Build one marked packet along a chain path for verification benchmarks.
pnm::net::Packet marked_packet(const pnm::marking::MarkingScheme& scheme,
                               const pnm::crypto::KeyStore& keys, std::size_t hops) {
  pnm::Rng rng(42);
  pnm::net::Packet p;
  p.report = pnm::net::Report{9, 9, 9, 9}.encode();
  for (std::size_t h = 1; h <= hops; ++h) {
    auto v = static_cast<pnm::NodeId>(h);
    scheme.mark(p, v, keys.key_unchecked(v), rng);
  }
  return p;
}

void BM_VerifyPacketPnm(benchmark::State& state) {
  std::size_t nodes = static_cast<std::size_t>(state.range(0));
  std::size_t hops = static_cast<std::size_t>(state.range(1));
  pnm::crypto::KeyStore keys(master(), nodes);
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = 3.0 / static_cast<double>(hops);
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);
  pnm::net::Packet p = marked_packet(*scheme, keys, hops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->verify(p, keys));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["pkts_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VerifyPacketPnm)
    ->Args({100, 20})
    ->Args({1000, 20})
    ->Args({4000, 20})
    ->Args({1000, 50});

void BM_VerifyPacketNested(benchmark::State& state) {
  std::size_t hops = static_cast<std::size_t>(state.range(0));
  pnm::crypto::KeyStore keys(master(), hops + 2);
  auto scheme =
      pnm::marking::make_scheme(pnm::marking::SchemeKind::kNested, {});
  pnm::net::Packet p = marked_packet(*scheme, keys, hops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->verify(p, keys));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VerifyPacketNested)->Arg(10)->Arg(20)->Arg(50);

void BM_ScopedLookup(benchmark::State& state) {
  // §7: scoped_verify_pnm on one packet whose one mark was written by a
  // neighbor of the delivering node. The search resolves it in ring 1, so
  // the cost is O(degree) PRFs instead of O(network). No PrfCache: every
  // iteration pays the ring's PRFs.
  pnm::net::Topology topo = pnm::net::Topology::grid(40, 40, 1.5);
  pnm::crypto::KeyStore keys(master(), topo.node_count());
  pnm::marking::SchemeConfig cfg;
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);
  pnm::NodeId previous = 820;  // interior node, degree 8
  pnm::NodeId marker = topo.neighbors(previous).front();
  pnm::Rng rng(7);
  pnm::net::Packet p;
  p.report = pnm::net::Report{5, 5, 5, 5}.encode();
  p.marks.push_back(scheme->make_mark(p, marker, keys.key_unchecked(marker), rng));
  p.delivered_by = previous;
  pnm::util::Counters counters;  // private: the exported totals stay the sweep's
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pnm::sink::scoped_verify_pnm(p, keys, topo, cfg, nullptr, nullptr, &counters));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedLookup);

// One fixed batch workload shared by the sweep: distinct-report packets
// marked along a chain, the shape the sink sees under an injection flood.
std::vector<pnm::net::Packet> batch_workload(const pnm::crypto::KeyStore& keys,
                                             const pnm::marking::MarkingScheme& scheme,
                                             std::size_t packets, std::size_t hops) {
  pnm::Rng rng(4242);
  std::vector<pnm::net::Packet> out;
  out.reserve(packets);
  for (std::size_t n = 0; n < packets; ++n) {
    pnm::net::Packet p;
    p.report = pnm::net::Report{static_cast<std::uint32_t>(n), 3, 3, n}.encode();
    for (std::size_t h = hops; h >= 1; --h) {
      auto v = static_cast<pnm::NodeId>(h);
      scheme.mark(p, v, keys.key_unchecked(v), rng);
    }
    p.delivered_by = 1;
    out.push_back(std::move(p));
  }
  return out;
}

void BM_BatchVerify(benchmark::State& state) {
  std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::size_t nodes = 1000, hops = 20, packets = 64;
  pnm::crypto::KeyStore keys(master(), nodes);
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = 3.0 / static_cast<double>(hops);
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);
  auto workload = batch_workload(keys, *scheme, packets, hops);

  pnm::sink::BatchVerifierConfig bcfg;
  bcfg.threads = threads;
  pnm::sink::BatchVerifier engine(*scheme, keys, bcfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.verify_batch(workload));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * workload.size()));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["pkts_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * workload.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchVerify)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BatchVerifyScoped(benchmark::State& state) {
  std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::size_t hops = 20, packets = 64;
  pnm::net::Topology topo = pnm::net::Topology::chain(hops);
  pnm::crypto::KeyStore keys(master(), topo.node_count());
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = 3.0 / static_cast<double>(hops);
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);
  auto workload = batch_workload(keys, *scheme, packets, hops);

  pnm::sink::BatchVerifierConfig bcfg;
  bcfg.threads = threads;
  bcfg.strategy = pnm::sink::BatchStrategy::kScoped;
  pnm::sink::BatchVerifier engine(*scheme, keys, bcfg, &topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.verify_batch(workload));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * workload.size()));
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["pkts_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * workload.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchVerifyScoped)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

// Duplicate-heavy flow traffic: `packets` deliveries spread over `flows`
// distinct reports. Re-delivered flows share one table per report group in
// the batch engine, while marks still differ per delivery (independent
// marking draws).
std::vector<pnm::net::Packet> flow_workload(const pnm::crypto::KeyStore& keys,
                                            const pnm::marking::MarkingScheme& scheme,
                                            std::size_t packets, std::size_t flows,
                                            std::size_t hops) {
  pnm::Rng rng(31337);
  std::vector<pnm::net::Packet> out;
  out.reserve(packets);
  for (std::size_t n = 0; n < packets; ++n) {
    auto flow = static_cast<std::uint32_t>(n % flows);
    pnm::net::Packet p;
    p.report = pnm::net::Report{flow, 3, 3, flow}.encode();
    for (std::size_t h = hops; h >= 1; --h) {
      auto v = static_cast<pnm::NodeId>(h);
      scheme.mark(p, v, keys.key_unchecked(v), rng);
    }
    p.delivered_by = 1;
    out.push_back(std::move(p));
  }
  return out;
}

// Single worker, so the timing isolates table sharing (not thread scaling).
// Args: hops, nodes (key-space size).
void BM_CrossPacketVerify(benchmark::State& state) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  const auto nodes = static_cast<std::size_t>(state.range(1));
  std::size_t packets = 256, flows = 64;
  pnm::crypto::KeyStore keys(master(), nodes);
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = 3.0 / static_cast<double>(hops);
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);
  auto workload = flow_workload(keys, *scheme, packets, flows, hops);

  pnm::sink::BatchVerifierConfig bcfg;
  bcfg.threads = 1;
  pnm::sink::BatchVerifier engine(*scheme, keys, bcfg);

  // Bracket the timed loop with lane-occupancy snapshots: mean jobs per
  // multi-buffer sweep.
  pnm::obs::Histogram& lanes =
      pnm::obs::MetricsRegistry::global().histogram("crypto_lanes_filled");
  auto lanes0 = lanes.snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.verify_batch(workload));
  }
  auto lanes1 = lanes.snapshot();
  const double sweeps = static_cast<double>(lanes1.count - lanes0.count);
  state.counters["lanes_mean"] =
      sweeps > 0.0 ? static_cast<double>(lanes1.sum - lanes0.sum) / sweeps : 0.0;
  // Sweeps per packet is where table sharing shows up: a duplicate report
  // sweeps only past the rows an earlier packet of its group already swept.
  state.counters["sweeps_per_pkt"] =
      sweeps / static_cast<double>(state.iterations() * workload.size());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * workload.size()));
  state.counters["flows"] = static_cast<double>(flows);
  state.counters["pkts_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * workload.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CrossPacketVerify)
    ->ArgNames({"hops", "nodes"})
    ->Args({20, 1000})
    ->Args({200, 201});

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "sha256_backend",
      pnm::crypto::sha_backend_name(pnm::crypto::active_sha_backend()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("metrics: %s\n",
              pnm::obs::to_json(pnm::obs::MetricsRegistry::global().scrape()).c_str());
  return 0;
}
