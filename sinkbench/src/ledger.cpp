#include "ledger.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/campaign.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sink/traceback.h"
#include "trace/reader.h"
#include "util/counters.h"

namespace sinkbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

}  // namespace

std::optional<World> build_world(const pnm::trace::TraceMeta& meta) {
  using namespace pnm;
  auto seed = meta.get_u64(trace::kMetaSeed);
  auto forwarders = meta.get_u64(trace::kMetaForwarders);
  auto scheme_name = meta.get(trace::kMetaScheme);
  if (!seed || !forwarders || !scheme_name || *forwarders < 2) return std::nullopt;
  std::optional<marking::SchemeKind> kind;
  for (auto k : marking::all_scheme_kinds())
    if (*scheme_name == marking::scheme_kind_name(k)) kind = k;
  if (!kind) return std::nullopt;

  marking::SchemeConfig scfg;
  if (auto prob = meta.get(trace::kMetaMarkProbability))
    scfg.mark_probability = std::strtod(prob->c_str(), nullptr);
  if (auto mac = meta.get_u64(trace::kMetaMacLen)) scfg.mac_len = *mac;
  if (auto anon = meta.get_u64(trace::kMetaAnonLen)) scfg.anon_len = *anon;

  World w;
  w.topo = std::make_unique<net::Topology>(
      net::Topology::chain(static_cast<std::size_t>(*forwarders)));
  w.keys = std::make_unique<crypto::KeyStore>(core::campaign_master_secret(*seed),
                                              w.topo->node_count());
  w.scheme = marking::make_scheme(*kind, scfg);
  return w;
}

WorkCounts WorkCounts::now() {
  using pnm::util::Metric;
  auto& counters = pnm::util::Counters::global();
  auto& registry = pnm::obs::MetricsRegistry::global();
  WorkCounts w;
  w.prf_evals = counters.get(Metric::kPrfEvals);
  w.mac_checks = counters.get(Metric::kMacChecks);
  w.cache_hits = counters.get(Metric::kCacheHits);
  w.cache_misses = counters.get(Metric::kCacheMisses);
  w.packets_verified = counters.get(Metric::kPacketsVerified);
  w.reports_deduped = registry.counter("sink_reports_deduped").value();
  pnm::obs::HistogramSnapshot lanes = registry.histogram("crypto_lanes_filled").snapshot();
  w.lane_samples = lanes.count;
  w.lanes_filled = lanes.sum;
  return w;
}

WorkCounts WorkCounts::operator-(const WorkCounts& e) const {
  WorkCounts d;
  d.prf_evals = prf_evals - e.prf_evals;
  d.mac_checks = mac_checks - e.mac_checks;
  d.cache_hits = cache_hits - e.cache_hits;
  d.cache_misses = cache_misses - e.cache_misses;
  d.packets_verified = packets_verified - e.packets_verified;
  d.reports_deduped = reports_deduped - e.reports_deduped;
  d.lane_samples = lane_samples - e.lane_samples;
  d.lanes_filled = lanes_filled - e.lanes_filled;
  return d;
}

WorkCounts& WorkCounts::operator+=(const WorkCounts& m) {
  prf_evals += m.prf_evals;
  mac_checks += m.mac_checks;
  cache_hits += m.cache_hits;
  cache_misses += m.cache_misses;
  packets_verified += m.packets_verified;
  reports_deduped += m.reports_deduped;
  lane_samples += m.lane_samples;
  lanes_filled += m.lanes_filled;
  return *this;
}

std::unique_ptr<TracedSink> TracedSink::open(const std::string& trace_bytes,
                                             pnm::sink::BatchStrategy strategy) {
  using namespace pnm;
  std::istringstream in(trace_bytes);
  trace::TraceReader reader(in);
  if (!reader.valid()) return nullptr;
  std::optional<World> world = build_world(reader.meta());
  if (!world) return nullptr;
  std::unique_ptr<TracedSink> sink(new TracedSink());
  sink->world_ = std::move(*world);
  sink::BatchVerifierConfig bcfg;
  bcfg.threads = 1;
  bcfg.strategy = strategy;
  // Every verify path meters into the global counters here, so the work
  // counts are registry deltas around a pass.
  sink->bank_ = std::make_unique<sink::VerifierBank>(
      *sink->world_.scheme, *sink->world_.keys, 1, bcfg, sink->world_.topo.get(),
      &util::Counters::global());
  return sink;
}

TracedPass traced_pass(const std::string& trace_bytes, pnm::sink::BatchStrategy strategy,
                       std::size_t batch_size) {
  std::unique_ptr<TracedSink> sink = TracedSink::open(trace_bytes, strategy);
  return sink ? sink->pass(trace_bytes, batch_size) : TracedPass{};
}

TracedPass TracedSink::pass(const std::string& trace_bytes, std::size_t batch_size) {
  using namespace pnm;
  TracedPass pass;
  std::istringstream in(trace_bytes);
  trace::TraceReader reader(in);
  if (!reader.valid()) return pass;
  sink::TracebackEngine engine(*world_.scheme, *world_.keys, *world_.topo);
  sink::BatchVerifier& lane = bank_->lane(0);

  const WorkCounts before = WorkCounts::now();
  std::vector<trace::TraceRecord> records;
  std::vector<net::Packet> packets;
  bool more = true;
  while (more) {
    records.clear();
    auto t0 = Clock::now();
    while (records.size() < batch_size) {
      std::optional<trace::ReadOutcome> outcome = reader.next();
      if (!outcome) {
        more = false;
        break;
      }
      if (outcome->status == trace::ReadStatus::kRecord)
        records.push_back(std::move(outcome->record));
      else
        ++pass.rejected;
    }
    pass.read_ns += ns_since(t0);
    if (records.empty()) break;

    packets.clear();
    t0 = Clock::now();
    for (const trace::TraceRecord& r : records) {
      std::optional<net::Packet> p = net::decode_packet(r.wire);
      if (!p) {
        ++pass.rejected;
        continue;
      }
      p->delivered_by = r.delivered_by;
      packets.push_back(std::move(*p));
    }
    pass.decode_ns += ns_since(t0);

    t0 = Clock::now();
    std::vector<marking::VerifyResult> verdicts = lane.verify_batch(packets);
    double verify_ns = ns_since(t0);
    pass.verify_ns += verify_ns;
    pass.batch_us.push_back(verify_ns / 1e3);

    t0 = Clock::now();
    for (std::size_t i = 0; i < packets.size(); ++i) engine.fold(packets[i], verdicts[i]);
    pass.fold_ns += ns_since(t0);
    pass.records += packets.size();
  }
  pass.work = WorkCounts::now() - before;
  pass.marks_verified = engine.marks_verified();
  pass.identified = engine.analysis().identified;
  pass.stop_node = engine.analysis().stop_node;
  pass.ok = true;
  return pass;
}

Ledger close_ledger(std::vector<LedgerRow> rows, const std::string& residual_name,
                    double total_ns) {
  Ledger ledger;
  double named = 0.0;
  for (const LedgerRow& r : rows) named += r.ns_per_record;
  rows.push_back(LedgerRow{residual_name, total_ns - named});
  ledger.total_ns = total_ns;
  double largest = 0.0;
  for (const LedgerRow& r : rows) {
    if (r.ns_per_record > largest) {
      largest = r.ns_per_record;
      ledger.dominant = r.name;
    }
  }
  ledger.rows = std::move(rows);
  return ledger;
}

void print_ledger(const std::string& workload, const Ledger& ledger) {
  std::printf("ledger %s (ns per record; rows + residual = untraced total)\n",
              workload.c_str());
  for (const LedgerRow& r : ledger.rows) {
    double share = ledger.total_ns > 0.0 ? 100.0 * r.ns_per_record / ledger.total_ns : 0.0;
    std::printf("ledger   %-32s %14.1f ns %7.2f%%\n", r.name.c_str(), r.ns_per_record,
                share);
  }
  std::printf("ledger   %-32s %14.1f ns\n", "untraced.total", ledger.total_ns);
  std::printf("ledger   dominant layer: %s\n", ledger.dominant.c_str());
}

}  // namespace sinkbench
