// Ingest-pipeline throughput: records-per-second from a trace stream through
// the bounded queue and BatchVerifier into the traceback fold, swept over
// verifier thread counts — the number the ROADMAP's streaming-ingest story
// lives or dies on (acceptance: ≥100k records/s on CI hardware).
//
//   BM_TraceRead       — raw reader rate: frame + CRC + record decode only;
//                        the format-overhead ceiling.
//   BM_TraceDecode     — reader + ingest::decode_record: the producer half.
//   BM_ReplayPipeline  — the full lane (decode → shard queues → per-lane
//                        verify → deterministic merge) on a multi-flow PNM
//                        chain workload, swept over flow-affine shard counts
//                        {1,2,4,8} (verifier threads pinned to 1 per lane, so
//                        the sweep isolates the sharded-ingest scaling the
//                        ROADMAP's 1M rec/s story rests on).
//   BM_ReplayPipelineNested — same lane, deterministic nested scheme: MAC
//                        checks only, no anon-ID table; isolates pipeline
//                        overhead from PNM's verification cost.
//   BM_MetricsOverhead — the replay lane with span capture live, the number
//                        the observability layer's <2% budget is judged on.
//                        Build twice (-DPNM_METRICS=ON/OFF) and compare the
//                        records_per_s pairs; `metrics_compiled` labels which
//                        build a result came from.
//   BM_ProvenanceOverhead — the single-shard replay lane with record-level
//                        provenance tracing at the default 1-in-64 sample
//                        rate (Arg 1) vs disabled (Arg 0); <2% budget.
//   BM_CounterAdd / BM_HistogramRecord — raw primitive cost, for context.
//
// The trace is built once in memory (a recorded campaign would do equally;
// the bytes are identical), replayed from a fresh istringstream per
// iteration. The registry is scraped as one JSON line at exit, like
// sink_throughput.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>

#include "crypto/keys.h"
#include "ingest/pipeline.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "net/topology.h"
#include "net/wire.h"
#include "obs/exposition.h"
#include "obs/provenance.h"
#include "obs/span.h"
#include "sink/batch_verifier.h"
#include "sink/traceback.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/rng.h"

namespace {

pnm::Bytes master() { return pnm::Bytes{0xaa, 0xbb, 0xcc}; }

// One in-memory trace per (scheme, hops, records) shape: distinct-report
// packets marked along a chain, the stream a recorded injection flood yields.
// Reports rotate through `flows` claimed origin locations — the many-moles /
// many-users shape the flow-affine shard router load-balances on (a single
// flow would pin every record to one shard lane by design).
std::string build_trace(const pnm::marking::MarkingScheme& scheme,
                        const pnm::crypto::KeyStore& keys, std::size_t hops,
                        std::size_t records, std::size_t flows = 64) {
  pnm::Rng rng(4242);
  std::ostringstream out;
  pnm::trace::TraceMeta meta;
  meta.set_u64(pnm::trace::kMetaSeed, 1);
  meta.set_u64(pnm::trace::kMetaForwarders, hops);
  pnm::trace::TraceWriter writer(out, meta);
  for (std::size_t n = 0; n < records; ++n) {
    pnm::net::Packet p;
    auto loc = static_cast<std::uint16_t>(3 + n % flows);
    p.report = pnm::net::Report{static_cast<std::uint32_t>(n), loc, 3, n}.encode();
    for (std::size_t h = hops; h >= 1; --h) {
      auto v = static_cast<pnm::NodeId>(h);
      scheme.mark(p, v, keys.key_unchecked(v), rng);
    }
    p.delivered_by = 1;
    writer.append(p, static_cast<double>(n) * 0.001);
  }
  return out.str();
}

void BM_TraceRead(benchmark::State& state) {
  std::size_t hops = 10, records = 4096;
  pnm::crypto::KeyStore keys(master(), hops + 2);
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = 3.0 / static_cast<double>(hops);
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);
  std::string blob = build_trace(*scheme, keys, hops, records);

  for (auto _ : state) {
    std::istringstream in(blob);
    pnm::trace::TraceReader reader(in);
    std::size_t n = 0;
    while (auto outcome = reader.next())
      if (outcome->status == pnm::trace::ReadStatus::kRecord) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records));
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceRead);

void BM_TraceDecode(benchmark::State& state) {
  std::size_t hops = 10, records = 4096;
  pnm::crypto::KeyStore keys(master(), hops + 2);
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = 3.0 / static_cast<double>(hops);
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);
  std::string blob = build_trace(*scheme, keys, hops, records);

  for (auto _ : state) {
    std::istringstream in(blob);
    pnm::trace::TraceReader reader(in);
    std::size_t marks = 0;
    while (auto outcome = reader.next()) {
      if (outcome->status != pnm::trace::ReadStatus::kRecord) continue;
      auto record = pnm::ingest::decode_record(outcome->record, nullptr);
      if (record) marks += record->packet.marks.size();
    }
    benchmark::DoNotOptimize(marks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records));
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceDecode);

void replay_pipeline_bench(benchmark::State& state, pnm::marking::SchemeKind kind,
                           pnm::sink::BatchStrategy strategy,
                           std::size_t shards_override = 0) {
  // By default range(0) is the shard count; a nonzero override frees
  // range(0) for benches that sweep something else (BM_ProvenanceOverhead
  // uses it as the tracing on/off toggle).
  std::size_t shards = shards_override ? shards_override
                                       : static_cast<std::size_t>(state.range(0));
  std::size_t hops = 10, records = 4096;
  pnm::net::Topology topo = pnm::net::Topology::chain(hops);
  pnm::crypto::KeyStore keys(master(), topo.node_count());
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = 3.0 / static_cast<double>(hops);
  auto scheme = pnm::marking::make_scheme(kind, cfg);
  std::string blob = build_trace(*scheme, keys, hops, records);

  std::size_t replayed = 0;
  for (auto _ : state) {
    std::istringstream in(blob);
    pnm::trace::TraceReader reader(in);
    pnm::sink::BatchVerifierConfig bcfg;
    bcfg.threads = 1;  // one inline verifier per lane; the sweep is shards
    bcfg.strategy = strategy;
    pnm::sink::VerifierBank bank(*scheme, keys, shards, bcfg, &topo);
    pnm::sink::TracebackEngine engine(*scheme, keys, topo);
    pnm::ingest::PipelineConfig pcfg;
    pcfg.shards = shards;
    pnm::ingest::Pipeline pipeline(bank, &engine, pcfg);
    auto stats = pipeline.run_from_trace(reader);
    replayed += stats.records;
    benchmark::DoNotOptimize(stats.records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["records_per_s"] =
      benchmark::Counter(static_cast<double>(replayed), benchmark::Counter::kIsRate);
}

void BM_ReplayPipeline(benchmark::State& state) {
  replay_pipeline_bench(state, pnm::marking::SchemeKind::kPnm,
                        pnm::sink::BatchStrategy::kExhaustive);
}
BENCHMARK(BM_ReplayPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The §7 production path: topology-scoped ring search, O(degree) per mark.
// This is the configuration the ≥100k records/s acceptance bar targets
// (`pnm replay --scoped 1`); exhaustive above is the all-schemes fallback.
// Swept over the same {1,2,4,8} arg set as BM_ReplayPipeline so the two
// series line up row by row.
void BM_ReplayPipelineScoped(benchmark::State& state) {
  replay_pipeline_bench(state, pnm::marking::SchemeKind::kPnm,
                        pnm::sink::BatchStrategy::kScoped);
}
BENCHMARK(BM_ReplayPipelineScoped)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ReplayPipelineNested(benchmark::State& state) {
  replay_pipeline_bench(state, pnm::marking::SchemeKind::kNested,
                        pnm::sink::BatchStrategy::kExhaustive);
}
BENCHMARK(BM_ReplayPipelineNested)->Arg(1)->Arg(4)->UseRealTime();

// The overhead-budget probe: the same replay lane as BM_ReplayPipeline but
// with span capture enabled, so every instrument in the hot path (counter
// adds, histogram records, gauge sets, span clock reads) is live. Run under
// both -DPNM_METRICS=ON and OFF; the acceptance bar is <2% throughput delta.
void BM_MetricsOverhead(benchmark::State& state) {
  pnm::obs::SpanCollector::global().enable();
  replay_pipeline_bench(state, pnm::marking::SchemeKind::kPnm,
                        pnm::sink::BatchStrategy::kExhaustive);
  pnm::obs::SpanCollector::global().disable();
  state.counters["metrics_compiled"] = pnm::obs::kMetricsEnabled ? 1 : 0;
}
BENCHMARK(BM_MetricsOverhead)->Arg(1)->Arg(4)->UseRealTime();

// Provenance-tracing overhead probe: the same single-shard replay lane with
// record-level tracing at the default 1-in-64 sample rate (Arg 1) vs fully
// disabled (Arg 0). Every record pays the trace-id hash + sampling branch;
// one in 64 additionally writes ~8 ring events. The Arg 1 / Arg 0 time ratio
// is the measured cost; no gate holds it to a target.
void BM_ProvenanceOverhead(benchmark::State& state) {
  auto& collector = pnm::obs::ProvenanceCollector::global();
  std::uint32_t prior = collector.sample_rate();
  collector.set_sample_rate(state.range(0) ? 64 : 0);
  replay_pipeline_bench(state, pnm::marking::SchemeKind::kPnm,
                        pnm::sink::BatchStrategy::kExhaustive, /*shards=*/1);
  state.counters["provenance_rate"] = state.range(0) ? 64 : 0;
  state.counters["provenance_recorded"] =
      static_cast<double>(collector.recorded());
  collector.set_sample_rate(prior);
  collector.clear();
}
BENCHMARK(BM_ProvenanceOverhead)->Arg(0)->Arg(1)->UseRealTime();

// Primitive costs, for context when reading the overhead numbers.
void BM_CounterAdd(benchmark::State& state) {
  pnm::obs::MetricsRegistry reg;
  pnm::obs::Counter& c = reg.counter("bench_counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  pnm::obs::MetricsRegistry reg;
  pnm::obs::Histogram& h = reg.histogram("bench_histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
    v &= 0xffff;
  }
  benchmark::DoNotOptimize(h.snapshot().count);
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("metrics: %s\n",
              pnm::obs::to_json(pnm::obs::MetricsRegistry::global().scrape()).c_str());
  return 0;
}
