#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>

#include "core/campaign.h"
#include "core/sweep.h"
#include "crypto/sha256.h"
#include "crypto/sha256_multi.h"
#include "gen.h"
#include "ingest/pipeline.h"
#include "ingest/replay.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "sink/traceback.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/bytes.h"
#include "util/counters.h"

namespace sinkbench {

namespace {

using namespace pnm;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload shapes. Batch size, shards and threads are passed explicitly
// everywhere: ReplayOptions/ServerConfig default to batch 64 while
// PipelineConfig and `pnm replay --batch` default to 256.

constexpr std::size_t kShards = 2;
constexpr std::size_t kQueueCapacity = 1024;

constexpr std::size_t kFloodRecords = 8192;
constexpr std::size_t kFloodBatch = 256;
constexpr std::size_t kFloodMinJobs = 16;
/// ~120 replays in 30 s: 4800 pings, so the calmest fifth of the windows
/// holds ~1000.
constexpr std::size_t kFloodPingsPerJob = 40;
constexpr std::size_t kFloodPingWindow = 20;

constexpr std::size_t kFlowsForwarders = 48;
constexpr std::size_t kFlowsBatch = 64;
constexpr std::uint32_t kCreditWindow = 256;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kPingEvery = 32;
/// Sessions per connection per burst, and the least number of bursts (at
/// ~55 Ping/Pong samples each, the calm fifth of 100 holds ~1100).
constexpr std::size_t kBurstSessions = 4;
constexpr std::size_t kMinBursts = 100;
/// One server set-up before every kSetupEvery-th burst.
constexpr std::size_t kSetupEvery = 2;

constexpr std::size_t kSweepRuns = 2;
constexpr std::size_t kSweepJobs = 2;
constexpr std::size_t kSweepMinJobs = 128;

GenSpec flood_spec(std::uint64_t seed) {
  GenSpec s;
  s.seed = seed;
  s.forwarders = 200;
  s.flows = 64;
  s.reports = kFloodRecords;
  s.deliveries = 1;
  s.strategy = "exhaustive";
  return s;
}

GenSpec flows_spec(std::uint64_t seed) {
  GenSpec s;
  s.seed = seed;
  s.forwarders = kFlowsForwarders;
  s.flows = 64;
  s.reports = 64;
  s.deliveries = 16;
  s.strategy = "scoped";
  return s;
}

core::SweepConfig sweep_config(std::uint64_t seed, std::size_t jobs) {
  core::SweepConfig cfg;
  cfg.forwarders = 20;
  cfg.packets = 120;
  cfg.runs = kSweepRuns;
  cfg.seed = seed;
  cfg.jobs = jobs;
  return cfg;
}

ingest::ReplayOptions replay_options(bool scoped, std::size_t batch, std::size_t shards,
                                     util::Counters* counters = nullptr) {
  ingest::ReplayOptions o;
  o.threads = 1;
  o.shards = shards;
  o.scoped = scoped;
  o.batch_size = batch;
  o.queue_capacity = kQueueCapacity;
  o.counters = counters;
  return o;
}

ingest::ReplayResult replay(const std::string& trace, const ingest::ReplayOptions& o) {
  std::istringstream in(trace);
  trace::TraceReader reader(in);
  return ingest::replay_trace(reader, o);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// What a job-based workload runs: the timed job, and the set-up and a
/// one-item round trip (a "ping") that are timed between jobs. `setup` and
/// `ping` return the seconds they timed.
struct JobLoop {
  std::function<void()> job;
  std::function<double()> setup = [] { return 0.0; };
  std::function<double()> ping;
  std::size_t pings_per_job = 0;
  std::size_t min_jobs = 1;
};

struct Timings {
  std::vector<double> job_s;    ///< each job's wall time
  std::vector<double> setup_s;  ///< one set-up before each job
  std::vector<double> ping_s;   ///< pings_per_job round trips before each job
  double peak_rss_mb = 0;       ///< after the first min_jobs jobs
};

/// Run jobs until `seconds` have passed and at least min_jobs ran.
/// Interleaving set-ups and pings with the jobs spreads their samples over
/// the whole run, so a slow spell on a shared host weighs on all alike. The
/// program keeps a provenance ring for every thread it ever started, so the
/// resident set grows with the job count; it is read after min_jobs jobs.
Timings time_jobs(double seconds, const JobLoop& loop) {
  Timings t;
  auto start = Clock::now();
  while (t.job_s.size() < loop.min_jobs || secs_since(start) < seconds) {
    t.setup_s.push_back(loop.setup());
    for (std::size_t i = 0; i < loop.pings_per_job; ++i) t.ping_s.push_back(loop.ping());
    auto t0 = Clock::now();
    loop.job();
    t.job_s.push_back(secs_since(t0));
    if (t.job_s.size() == loop.min_jobs) t.peak_rss_mb = peak_rss_mb();
  }
  return t;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Removes its file on scope exit.
struct TempFile {
  std::string path;
  ~TempFile() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

void check_pin(const Options& opts, const std::string& digest, Report& rep) {
  rep.attempt();
  if (opts.pin.empty()) {
    Report::line("pin", "none for seed " + std::to_string(opts.seed));
  } else if (opts.pin != digest) {
    rep.fail("pinned digest " + opts.pin + " != " + digest);
  } else {
    Report::line("pin", "ok " + digest);
  }
}

/// The highest percentile, at most p99, that leaves ten samples beyond it.
double tail_quantile(std::size_t samples) {
  double n = static_cast<double>(samples);
  return std::clamp((n - 10.0) / n, 0.5, 0.99);
}

/// The calm windows: the fifth (rounded up) of the windows whose slowest
/// sample was fastest, by index.
std::vector<std::size_t> calm_fifth(const std::vector<double>& slowest) {
  std::vector<std::size_t> order(slowest.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return slowest[a] < slowest[b]; });
  order.resize((order.size() + 4) / 5);
  return order;
}

/// The pings of the run's calmest windows. Pings are cut, in the order they
/// ran, into windows of `window` consecutive samples (a fraction of a second
/// each), and the fifth of the windows whose slowest ping was fastest is
/// pooled. A shared host's slow spells last seconds and its preemptions a
/// millisecond or two, and both only ever add time: over whole runs the
/// median spread by up to 36% over ten seeds, and ranking windows by their
/// median still left the pooled p99 50% higher on a loaded host than on a
/// quiet one. The price: a stall the program itself makes in fewer than four
/// windows in five is filtered out with the host's. Too few pings for one
/// window: all of them.
std::vector<double> calm_pings(const std::vector<double>& ping_s, std::size_t window) {
  std::vector<double> slowest;
  for (std::size_t i = 0; window && i + window <= ping_s.size(); i += window) {
    auto first = ping_s.begin() + static_cast<std::ptrdiff_t>(i);
    slowest.push_back(*std::max_element(first, first + static_cast<std::ptrdiff_t>(window)));
  }
  if (slowest.empty()) return ping_s;
  std::vector<double> pool;
  for (std::size_t w : calm_fifth(slowest)) {
    auto first = ping_s.begin() + static_cast<std::ptrdiff_t>(w * window);
    pool.insert(pool.end(), first, first + static_cast<std::ptrdiff_t>(window));
  }
  return pool;
}

/// Rates are taken at the 10th-percentile job time: a shared host's
/// interference only ever adds time, and on a 4-vCPU guest it moves the
/// median of a multi-threaded job by 10-35% from run to run while the fast
/// decile holds within 10%. The rtt_* metrics are the median and tail of
/// the calm windows' pings (calm_pings), the tail at tail_quantile.
void emit_end_to_end(Report& rep, const Timings& t, std::size_t ping_window,
                     double units_per_job, double records_per_job) {
  const double fast = percentile(t.job_s, 0.10);
  const std::vector<double> calm = calm_pings(t.ping_s, ping_window);
  const double tail = tail_quantile(calm.size());
  Report::line("samples", "jobs=" + std::to_string(t.job_s.size()) + " pings=" +
                              std::to_string(t.ping_s.size()) + " calm_pings=" +
                              std::to_string(calm.size()) + " (windows of " +
                              std::to_string(ping_window) +
                              ") rates at the p10 job, rtt_p99_ms at the p" +
                              fmt("%.1f", tail * 100.0) + " calm ping");
  rep.add("records_per_s", records_per_job / fast, "1/s");
  rep.add("runs_per_s", units_per_job / fast, "1/s");
  rep.add("rtt_p50_ms", median(calm) * 1e3, "ms");
  rep.add("rtt_p99_ms", percentile(calm, tail) * 1e3, "ms");
  rep.add("setup_s", median(t.setup_s), "s");
  rep.add("peak_rss_mb", t.peak_rss_mb, "MB");
}

// ---------------------------------------------------------------------------
// Per-layer profile shared by the traced runs.

/// Every per-layer metric BENCHMARK.json lists; each workload fills what its
/// layers do and leaves the rest at zero.
struct LayerMetrics {
  double read_ns = 0, decode_ns = 0, verify_ns = 0, fold_ns = 0;
  double batch_p50_us = 0, batch_p99_us = 0, residual_ns = 0;
  double prf_per_record = 0, mac_per_record = 0, lanes_mean = 0;
  double cache_hit_ratio = 0, dedup_ratio = 0;
  double queue_high_water = 0, merge_max_pending = 0, shard_skew = 0, merge_p99_us = 0;
  double serve_overhead_ns = 0, serve_bytes_per_record = 0;
  double cell_p50_ms = 0, cell_p99_ms = 0;
  double delivered_per_cell = 0, dropped_per_cell = 0, marks_verified_per_cell = 0;
};

void emit_layers(Report& rep, const LayerMetrics& m) {
  rep.add("trace.read_ns_per_record", m.read_ns, "ns");
  rep.add("net.decode_ns_per_record", m.decode_ns, "ns");
  rep.add("sink.verify_ns_per_record", m.verify_ns, "ns");
  rep.add("sink.verify_batch_p50_us", m.batch_p50_us, "us");
  rep.add("sink.verify_batch_p99_us", m.batch_p99_us, "us");
  rep.add("sink.fold_ns_per_record", m.fold_ns, "ns");
  rep.add("ingest.residual_ns_per_record", m.residual_ns, "ns");
  rep.add("sink.dedup_ratio", m.dedup_ratio, "ratio");
  rep.add("crypto.prf_evals_per_record", m.prf_per_record, "count");
  rep.add("crypto.mac_checks_per_record", m.mac_per_record, "count");
  rep.add("crypto.lanes_mean", m.lanes_mean, "count");
  rep.add("crypto.prf_cache_hit_ratio", m.cache_hit_ratio, "ratio");
  rep.add("ingest.queue_high_water", m.queue_high_water, "count");
  rep.add("ingest.merge_max_pending", m.merge_max_pending, "count");
  rep.add("ingest.shard_skew", m.shard_skew, "ratio");
  rep.add("ingest.merge_p99_us", m.merge_p99_us, "us");
  rep.add("serve.overhead_ns_per_record", m.serve_overhead_ns, "ns");
  rep.add("serve.bytes_per_record", m.serve_bytes_per_record, "B");
  rep.add("core.cell_p50_ms", m.cell_p50_ms, "ms");
  rep.add("core.cell_p99_ms", m.cell_p99_ms, "ms");
  rep.add("net.delivered_per_cell", m.delivered_per_cell, "count");
  rep.add("net.dropped_per_cell", m.dropped_per_cell, "count");
  rep.add("sink.marks_verified_per_cell", m.marks_verified_per_cell, "count");
}

/// What a traced pass over one trace must reproduce.
struct Expect {
  std::size_t records = 0;
  std::size_t marks_verified = 0;
  std::uint32_t stop_node = 0;
};

/// Traced passes over `traces` (one pass = every trace once) for about
/// `budget_s`: per-record layer times are medians over passes, batch
/// latencies pool every pass, work counts come from the first timed pass
/// and must repeat exactly in every later one.
struct Profile {
  double read_ns = 0, decode_ns = 0, verify_ns = 0, fold_ns = 0;
  std::vector<double> batch_us;
  WorkCounts work;
  std::size_t records = 0;  ///< per pass
  std::size_t passes = 0;
};

/// `warm`: keep one TracedSink per trace across passes (a daemon's warm
/// PrfCache) and run one untimed pass first; otherwise every pass is cold.
Profile profile_passes(const std::vector<std::string>& traces,
                       const std::vector<Expect>& expect, sink::BatchStrategy strategy,
                       std::size_t batch, bool warm, double budget_s, Report& rep) {
  Profile prof;
  std::vector<std::unique_ptr<TracedSink>> sinks(traces.size());
  auto run_pass = [&](std::size_t i) {
    if (!warm) return traced_pass(traces[i], strategy, batch);
    if (!sinks[i]) {
      sinks[i] = TracedSink::open(traces[i], strategy);
      if (sinks[i]) sinks[i]->pass(traces[i], batch);  // fills the cache
    }
    return sinks[i] ? sinks[i]->pass(traces[i], batch) : TracedPass{};
  };
  std::vector<double> read, decode, verify, fold;
  auto start = Clock::now();
  while (prof.passes < 2 || secs_since(start) < budget_s) {
    double r = 0, d = 0, v = 0, f = 0;
    std::size_t records = 0;
    WorkCounts work;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      TracedPass pass = run_pass(i);
      rep.attempt(expect[i].records + 1);
      if (!pass.ok) {
        rep.fail("traced pass could not open its trace", expect[i].records + 1);
        continue;
      }
      if (pass.rejected) rep.fail("traced pass rejected records", pass.rejected);
      if (pass.records != expect[i].records || pass.marks_verified != expect[i].marks_verified ||
          pass.stop_node != expect[i].stop_node)
        rep.fail("traced pass diverged from the pipeline: records " +
                 std::to_string(pass.records) + " marks_verified " +
                 std::to_string(pass.marks_verified) + " stop " +
                 std::to_string(pass.stop_node) + " (expected " +
                 std::to_string(expect[i].records) + " / " +
                 std::to_string(expect[i].marks_verified) + " / " +
                 std::to_string(expect[i].stop_node) + ")");
      r += pass.read_ns;
      d += pass.decode_ns;
      v += pass.verify_ns;
      f += pass.fold_ns;
      records += pass.records;
      prof.batch_us.insert(prof.batch_us.end(), pass.batch_us.begin(), pass.batch_us.end());
      work += pass.work;
    }
    if (records == 0) break;
    rep.attempt();
    if (prof.passes == 0) {
      prof.work = work;
      prof.records = records;
    } else if (!(work == prof.work)) {
      rep.fail("work counts differ between traced passes");
    }
    read.push_back(r / static_cast<double>(records));
    decode.push_back(d / static_cast<double>(records));
    verify.push_back(v / static_cast<double>(records));
    fold.push_back(f / static_cast<double>(records));
    ++prof.passes;
  }
  prof.read_ns = median(read);
  prof.decode_ns = median(decode);
  prof.verify_ns = median(verify);
  prof.fold_ns = median(fold);
  Report::line("traced", "passes=" + std::to_string(prof.passes) +
                             " records_per_pass=" + std::to_string(prof.records) +
                             " batches=" + std::to_string(prof.batch_us.size()));
  return prof;
}

void fill_work(LayerMetrics& m, const Profile& prof) {
  auto per = [&](std::uint64_t v) {
    return prof.records ? static_cast<double>(v) / static_cast<double>(prof.records) : 0.0;
  };
  const WorkCounts& w = prof.work;
  m.read_ns = prof.read_ns;
  m.decode_ns = prof.decode_ns;
  m.verify_ns = prof.verify_ns;
  m.fold_ns = prof.fold_ns;
  m.batch_p50_us = median(prof.batch_us);
  m.batch_p99_us = percentile(prof.batch_us, 0.99);
  m.prf_per_record = per(w.prf_evals);
  m.mac_per_record = per(w.mac_checks);
  m.dedup_ratio = per(w.reports_deduped);
  m.lanes_mean = w.lane_samples ? static_cast<double>(w.lanes_filled) /
                                      static_cast<double>(w.lane_samples)
                                : 0.0;
  std::uint64_t probes = w.cache_hits + w.cache_misses;
  m.cache_hit_ratio =
      probes ? static_cast<double>(w.cache_hits) / static_cast<double>(probes) : 0.0;
}

/// replay_trace's in-process ingest path over a long-lived sink world: the
/// verifier bank, and so every lane's PrfCache, persists across runs the
/// way a daemon's does.
class WarmIngest {
 public:
  WarmIngest(const std::string& trace, bool scoped, std::size_t batch,
             util::Counters& counters)
      : batch_(batch), counters_(counters) {
    std::istringstream in(trace);
    trace::TraceReader reader(in);
    if (std::optional<World> w = build_world(reader.meta())) world_ = std::move(*w);
    sink::BatchVerifierConfig bcfg;
    bcfg.threads = 1;
    if (scoped) bcfg.strategy = sink::BatchStrategy::kScoped;
    if (world_.scheme)
      bank_ = std::make_unique<sink::VerifierBank>(*world_.scheme, *world_.keys, kShards, bcfg,
                                                   world_.topo.get(), &counters_);
  }

  ingest::ReplayResult run(const std::string& trace) {
    ingest::ReplayResult r;
    if (!bank_) {
      r.error = "incomplete campaign header";
      return r;
    }
    std::istringstream in(trace);
    trace::TraceReader reader(in);
    sink::TracebackEngine engine(*world_.scheme, *world_.keys, *world_.topo);
    ingest::PipelineConfig pcfg;
    pcfg.batch_size = batch_;
    pcfg.queue_capacity = kQueueCapacity;
    pcfg.shards = kShards;
    ingest::Pipeline pipeline(*bank_, &engine, pcfg, &counters_);
    r.stats = pipeline.run_from_trace(reader);
    r.ok = true;
    r.verdict_digest = pipeline.verdict_digest();
    r.analysis = engine.analysis();
    r.marks_verified = engine.marks_verified();
    return r;
  }

 private:
  std::size_t batch_;
  util::Counters& counters_;
  World world_;
  std::unique_ptr<sink::VerifierBank> bank_;
};

/// Untraced in-process runs for about `budget_s`: the ns/record the ledger
/// closes against, plus the pipeline's own statistics. `run` replays the
/// trace once, metering into `counters`.
struct ReplayProfile {
  double ns_per_record = 0;
  double queue_high_water = 0, merge_max_pending = 0;
  double shard_skew = 0;      ///< busiest lane's records ÷ the mean
  double busiest_share = 1;   ///< busiest lane's records ÷ all records
  double merge_p99_us = 0;
};

ReplayProfile profile_replay(const std::function<ingest::ReplayResult()>& run,
                             util::Counters& counters, std::size_t n, const std::string& ref,
                             double budget_s, Report& rep) {
  std::vector<double> ns, high_water, pending, skew, share;
  auto start = Clock::now();
  while (ns.size() < 3 || secs_since(start) < budget_s) {
    auto t0 = Clock::now();
    ingest::ReplayResult r = run();
    double t = secs_since(t0);
    check_replay(r, n, ref, rep);
    ns.push_back(t * 1e9 / static_cast<double>(n));
    high_water.push_back(static_cast<double>(r.stats.queue_high_water));
    pending.push_back(static_cast<double>(r.stats.merge_max_pending));
    std::size_t busiest = 0, total = 0;
    for (std::size_t c : r.stats.shard_records) {
      busiest = std::max(busiest, c);
      total += c;
    }
    double lanes = static_cast<double>(r.stats.shard_records.size());
    skew.push_back(total ? static_cast<double>(busiest) * lanes / static_cast<double>(total)
                         : 0.0);
    share.push_back(total ? static_cast<double>(busiest) / static_cast<double>(total) : 1.0);
  }
  ReplayProfile p;
  p.ns_per_record = median(ns);
  p.queue_high_water = median(high_water);
  p.merge_max_pending = median(pending);
  p.shard_skew = median(skew);
  p.busiest_share = median(share);
  p.merge_p99_us =
      counters.registry().histogram("ingest_merge_us").snapshot().percentile(0.99);
  Report::line("untraced", "replays=" + std::to_string(ns.size()) + " ns_per_record=" +
                               fmt("%.1f", p.ns_per_record) +
                               " busiest_lane_share=" + fmt("%.4f", p.busiest_share) +
                               " ingest.merge_p99_us=" + fmt("%.1f", p.merge_p99_us));
  return p;
}

/// Ledger rows for the sink layers. Lanes verify in parallel, so the verify
/// row is the busiest lane's share of the serial verify time; read and
/// decode (producer thread) and fold (serial merge) count in full.
std::vector<LedgerRow> sink_rows(const Profile& prof, double busiest_share) {
  return {{"trace.read", prof.read_ns},
          {"net.decode", prof.decode_ns},
          {"sink.verify", prof.verify_ns * busiest_share},
          {"sink.fold", prof.fold_ns}};
}

void print_tracing_overhead(const Profile& prof, double untraced_ns) {
  double traced_ns = prof.read_ns + prof.decode_ns + prof.verify_ns + prof.fold_ns;
  Report::line("tracing", "traced_records_per_s=" + fmt("%.1f", 1e9 / traced_ns) +
                              " (one thread, layers in sequence) untraced_records_per_s=" +
                              fmt("%.1f", 1e9 / untraced_ns));
}

// ---------------------------------------------------------------------------
// replay-flood

/// Each record of `trace` as a trace of its own under the same header.
std::vector<std::string> split_records(const std::string& trace) {
  std::istringstream in(trace);
  trace::TraceReader reader(in);
  std::vector<std::string> out;
  while (std::optional<trace::ReadOutcome> o = reader.next()) {
    if (o->status != trace::ReadStatus::kRecord) break;
    std::ostringstream one;
    trace::TraceWriter writer(one, reader.meta());
    writer.append_raw(ByteView(o->record.wire.data(), o->record.wire.size()), o->record.time_us,
                      o->record.delivered_by);
    writer.flush();
    out.push_back(one.str());
  }
  return out;
}

void replay_flood(const Options& opts, Report& rep) {
  const GenSpec spec = flood_spec(opts.seed);
  const std::string trace = generate_trace(spec);
  const std::size_t n = trace_records(spec);

  // Reference: the single-lane pipeline. Verdicts are shard-count invariant.
  ingest::ReplayResult ref = replay(trace, replay_options(false, kFloodBatch, 1));
  check_replay(ref, n, ref.verdict_digest, rep);
  check_pin(opts, ref.verdict_digest, rep);
  Report::line("digest", "verdict=" + ref.verdict_digest +
                             " marks_verified=" + std::to_string(ref.marks_verified) +
                             " stop_node=" + std::to_string(ref.analysis.stop_node));

  if (opts.traced) {
    Profile prof = profile_passes(
        {trace}, {{n, ref.marks_verified, ref.analysis.stop_node}},
        sink::BatchStrategy::kExhaustive, kFloodBatch, false, opts.seconds * 0.55, rep);
    util::Counters counters;
    const ingest::ReplayOptions ro = replay_options(false, kFloodBatch, kShards, &counters);
    ReplayProfile rp = profile_replay([&] { return replay(trace, ro); }, counters, n,
                                      ref.verdict_digest, opts.seconds * 0.3, rep);
    Ledger ledger =
        close_ledger(sink_rows(prof, rp.busiest_share), "ingest.residual", rp.ns_per_record);
    print_ledger(opts.workload, ledger);
    print_tracing_overhead(prof, rp.ns_per_record);
    LayerMetrics m;
    fill_work(m, prof);
    m.residual_ns = ledger.rows.back().ns_per_record;
    m.queue_high_water = rp.queue_high_water;
    m.merge_max_pending = rp.merge_max_pending;
    m.shard_skew = rp.shard_skew;
    m.merge_p99_us = rp.merge_p99_us;
    emit_layers(rep, m);
    return;
  }

  // Set-up: what replay_trace builds before its first record — the header
  // read, topology, key store, verifier bank, traceback engine and pipeline.
  auto setup = [&] {
    std::istringstream in(trace);
    auto t0 = Clock::now();
    trace::TraceReader reader(in);
    std::optional<World> world = build_world(reader.meta());
    if (!world) return 0.0;
    util::Counters counters;
    sink::BatchVerifierConfig bcfg;
    bcfg.threads = 1;
    sink::VerifierBank bank(*world->scheme, *world->keys, kShards, bcfg, world->topo.get(),
                            &counters);
    sink::TracebackEngine engine(*world->scheme, *world->keys, *world->topo);
    engine.bind_metrics(counters.registry());
    ingest::PipelineConfig pcfg;
    pcfg.batch_size = kFloodBatch;
    pcfg.queue_capacity = kQueueCapacity;
    pcfg.shards = kShards;
    ingest::Pipeline pipeline(bank, &engine, pcfg, &counters);
    return secs_since(t0);
  };

  // Ping: one record of the same campaign read, decoded, verified and folded
  // on an idle lane of a long-lived sink. A one-record replay_trace would
  // time two thread start-ups, which swing by 20% on a shared host. The
  // pings cycle through one window's worth of records: a record's cost
  // follows its mark count, which a single record would tie to the seed.
  GenSpec few = spec;
  few.reports = kFloodPingWindow;
  const std::vector<std::string> ping_traces = split_records(generate_trace(few));
  std::vector<std::size_t> ping_marks;
  for (const std::string& t : ping_traces)
    ping_marks.push_back(replay(t, replay_options(false, kFloodBatch, 1)).marks_verified);
  std::unique_ptr<TracedSink> ping_sink =
      ping_traces.empty() ? nullptr
                          : TracedSink::open(ping_traces[0], sink::BatchStrategy::kExhaustive);
  rep.attempt();
  if (!ping_sink || ping_traces.size() != kFloodPingWindow) {
    rep.fail("cannot open the one-record traces");
    return;
  }

  const ingest::ReplayOptions ro = replay_options(false, kFloodBatch, kShards);
  check_replay(replay(trace, ro), n, ref.verdict_digest, rep);  // warm-up
  JobLoop loop;
  loop.job = [&] { check_replay(replay(trace, ro), n, ref.verdict_digest, rep); };
  loop.setup = setup;
  std::size_t next_ping = 0;
  loop.ping = [&] {
    const std::size_t i = next_ping++ % ping_traces.size();
    TracedPass p = ping_sink->pass(ping_traces[i], 1);
    rep.attempt();
    if (!p.ok || p.records != 1 || p.marks_verified != ping_marks[i])
      rep.fail("one-record verdict differs from its replay");
    return (p.read_ns + p.decode_ns + p.verify_ns + p.fold_ns) * 1e-9;
  };
  loop.pings_per_job = kFloodPingsPerJob;
  loop.min_jobs = kFloodMinJobs;
  emit_end_to_end(rep, time_jobs(opts.seconds, loop), kFloodPingWindow, 1.0,
                  static_cast<double>(n));
}

// ---------------------------------------------------------------------------
// serve-flows

serve::ServerConfig server_config(const std::string& trace_path) {
  serve::ServerConfig cfg;
  cfg.campaign_trace = trace_path;
  cfg.shards = kShards;
  cfg.threads = 1;
  cfg.batch_size = kFlowsBatch;
  cfg.queue_capacity = kQueueCapacity;
  cfg.credit_window = kCreditWindow;
  cfg.scoped = true;
  return cfg;
}

/// Closed-loop loadgen calls against one server, all over kConnections
/// connections: bursts of kBurstSessions sessions per connection (~55
/// Ping/Pong samples, ~0.1 s each), with server set-ups interleaved.
struct ServeBursts {
  std::vector<double> burst_s;      ///< each burst's elapsed time
  std::vector<double> rtt_p50_ms;   ///< each burst's Ping/Pong median
  std::vector<double> rtt_p99_ms;   ///< each burst's Ping/Pong p99 (~its slowest)
  std::vector<double> rtt_max_ms;   ///< each burst's slowest Ping/Pong
  std::vector<std::size_t> rtt_samples;
  std::vector<double> setup_s;      ///< server set-ups, interleaved with the bursts
  std::uint64_t records = 0;
  double bytes_per_record = 0;
  double merge_p99_us = 0;  ///< the server's ingest_merge_us histogram
  /// After the warm-up. Every session thread the server ever ran keeps a
  /// 4096-event provenance ring once it handled a sampled report (1 in 64
  /// by content), and 64 reports go unsampled for about a third of seeds:
  /// read after the bursts, the figure would swing 20-fold with the seed.
  double peak_rss_mb = 0;
};

void check_round(const serve::LoadgenStats& st, std::size_t n, const std::string& ref,
                 Report& rep) {
  for (const serve::SessionResult& s : st.session_results) {
    rep.attempt(n + 1);
    if (!s.ok) {
      rep.fail("session ended without a Digest receipt: " + s.error, n + 1);
    } else {
      if (s.records != n) rep.fail("session folded " + std::to_string(s.records) + " of " +
                                   std::to_string(n), n - std::min<std::size_t>(n, s.records));
      if (s.digest_hex != ref) rep.fail("session digest " + s.digest_hex + " != " + ref);
    }
  }
  if (st.session_results.empty()) {
    rep.attempt();
    rep.fail("loadgen ran no session: " + st.error);
  }
}

/// Server::create (campaign world, listeners bound) + start, timed; then a
/// drain, untimed.
double server_setup_s(const std::string& path) {
  std::string error;
  auto t0 = Clock::now();
  std::unique_ptr<serve::Server> server = serve::Server::create(server_config(path), &error);
  if (!server) return 0.0;
  server->start();
  double s = secs_since(t0);
  server->drain();
  return s;
}

/// Bursts until `seconds` have passed and at least `min_bursts` ran, one
/// server set-up before every `setup_every`-th burst (0: none).
ServeBursts serve_bursts(const std::string& path, std::size_t n, const std::string& ref,
                         double seconds, std::size_t min_bursts, std::size_t setup_every,
                         Report& rep) {
  ServeBursts out;
  std::string error;
  std::unique_ptr<serve::Server> server = serve::Server::create(server_config(path), &error);
  rep.attempt();
  if (!server) {
    rep.fail("Server::create: " + error);
    return out;
  }
  server->start();
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {path};
  lg.connections = kConnections;
  lg.ping_every = kPingEvery;
  lg.repeat = kBurstSessions;

  serve::LoadgenStats warm = serve::run_loadgen(lg);
  check_round(warm, n, ref, rep);
  out.peak_rss_mb = peak_rss_mb();
  std::uint64_t sent = warm.records;

  std::uint64_t bytes0 = server->counters()->registry().counter("serve_bytes_rx").value();
  std::uint64_t records0 = sent;
  auto start = Clock::now();
  while (out.burst_s.size() < min_bursts || secs_since(start) < seconds) {
    if (setup_every && out.burst_s.size() % setup_every == 0)
      out.setup_s.push_back(server_setup_s(path));
    serve::LoadgenStats st = serve::run_loadgen(lg);
    check_round(st, n, ref, rep);
    sent += st.records;
    if (!st.ok || st.elapsed_s <= 0) break;
    out.burst_s.push_back(st.elapsed_s);
    if (st.rtt_samples) {
      out.rtt_p50_ms.push_back(st.rtt_p50_ms);
      out.rtt_p99_ms.push_back(st.rtt_p99_ms);
      out.rtt_max_ms.push_back(st.rtt_max_ms);
      out.rtt_samples.push_back(st.rtt_samples);
    }
  }
  out.records = sent - records0;
  obs::MetricsRegistry& registry = server->counters()->registry();
  std::uint64_t bytes = registry.counter("serve_bytes_rx").value() - bytes0;
  out.bytes_per_record =
      out.records ? static_cast<double>(bytes) / static_cast<double>(out.records) : 0.0;
  out.merge_p99_us = registry.histogram("ingest_merge_us").snapshot().percentile(0.99);

  serve::DrainReport report = server->drain();
  rep.attempt();
  if (!report.error.empty()) rep.fail("drain: " + report.error);
  if (report.records != sent)
    rep.fail("drain counted " + std::to_string(report.records) + " records, sent " +
             std::to_string(sent));
  return out;
}

void serve_flows(const Options& opts, Report& rep) {
  const GenSpec spec = flows_spec(opts.seed);
  const std::string trace = generate_trace(spec);
  const std::size_t n = trace_records(spec);
  TempFile file{opts.tmp_dir + "/serve-flows-" + std::to_string(opts.seed) + "-" +
                std::to_string(::getpid()) + ".pnmtrace"};
  rep.attempt();
  if (!write_file(file.path, trace)) {
    rep.fail("cannot write " + file.path);
    return;
  }

  // Reference: replay_trace on the same trace and strategy, one lane and two.
  ingest::ReplayResult ref = replay(trace, replay_options(true, kFlowsBatch, 1));
  check_replay(ref, n, ref.verdict_digest, rep);
  check_replay(replay(trace, replay_options(true, kFlowsBatch, kShards)), n,
               ref.verdict_digest, rep);
  check_pin(opts, ref.verdict_digest, rep);
  Report::line("digest", "verdict=" + ref.verdict_digest +
                             " marks_verified=" + std::to_string(ref.marks_verified) +
                             " stop_node=" + std::to_string(ref.analysis.stop_node));

  const auto burst_records = static_cast<double>(kBurstSessions * kConnections * n);
  if (opts.traced) {
    // The daemon serves the same campaign session after session, so its
    // lanes' PrfCaches are warm: the traced passes and the in-process
    // reference keep a long-lived verifier too.
    Profile prof = profile_passes({trace}, {{n, ref.marks_verified, ref.analysis.stop_node}},
                                  sink::BatchStrategy::kScoped, kFlowsBatch, true,
                                  opts.seconds * 0.4, rep);
    util::Counters counters;
    WarmIngest warm(trace, true, kFlowsBatch, counters);
    ReplayProfile rp = profile_replay([&] { return warm.run(trace); }, counters, n,
                                      ref.verdict_digest, opts.seconds * 0.2, rep);
    ServeBursts sr = serve_bursts(file.path, n, ref.verdict_digest, 0, kMinBursts, 0, rep);
    // Two connections feed one long-lived server pipeline, overlapping each
    // session's ramp-up and drain, which a lone in-process replay cannot:
    // the overhead row can read below zero.
    double serve_ns = median(sr.burst_s) * 1e9 / burst_records;
    std::vector<LedgerRow> rows = sink_rows(prof, rp.busiest_share);
    rows.push_back({"serve.overhead", serve_ns - rp.ns_per_record});
    Ledger ledger = close_ledger(rows, "ingest.residual", serve_ns);
    print_ledger(opts.workload, ledger);
    print_tracing_overhead(prof, serve_ns);
    LayerMetrics m;
    fill_work(m, prof);
    m.residual_ns = ledger.rows.back().ns_per_record;
    m.queue_high_water = rp.queue_high_water;
    m.merge_max_pending = rp.merge_max_pending;
    m.shard_skew = rp.shard_skew;
    m.merge_p99_us = sr.merge_p99_us;
    m.serve_overhead_ns = serve_ns - rp.ns_per_record;
    m.serve_bytes_per_record = sr.bytes_per_record;
    emit_layers(rep, m);
    return;
  }

  ServeBursts sr = serve_bursts(file.path, n, ref.verdict_digest, opts.seconds, kMinBursts,
                                kSetupEvery, rep);
  // Bursts are the windows, ranked by their slowest Ping as the job
  // workloads' pings are (calm_pings).
  const std::vector<std::size_t> calm = calm_fifth(sr.rtt_max_ms);
  std::vector<double> calm_p50, calm_p99;
  std::size_t calm_samples = 0;
  for (std::size_t i : calm) {
    calm_p50.push_back(sr.rtt_p50_ms[i]);
    calm_p99.push_back(sr.rtt_p99_ms[i]);
    calm_samples += sr.rtt_samples[i];
  }
  const double fast = percentile(sr.burst_s, 0.10);
  Report::line("samples", "bursts=" + std::to_string(sr.burst_s.size()) +
                              " sessions_per_burst=" +
                              std::to_string(kBurstSessions * kConnections) +
                              " calm_bursts=" + std::to_string(calm.size()) +
                              " calm_rtt_samples=" + std::to_string(calm_samples) +
                              " setups=" + std::to_string(sr.setup_s.size()) +
                              " rates at the p10 burst, rtt_* the calm bursts' median p50 and p99");
  rep.add("records_per_s", burst_records / fast, "1/s");
  rep.add("runs_per_s", static_cast<double>(kBurstSessions * kConnections) / fast, "1/s");
  rep.add("rtt_p50_ms", median(calm_p50), "ms");
  rep.add("rtt_p99_ms", median(calm_p99), "ms");
  rep.add("setup_s", median(sr.setup_s), "s");
  rep.add("peak_rss_mb", sr.peak_rss_mb, "MB");
}

// ---------------------------------------------------------------------------
// campaign-sweep

/// The sweep digest run_sweep chains over its rows, rebuilt from cells run
/// one at a time.
std::string chain_digest(const std::vector<core::SweepRow>& rows) {
  ByteWriter chain;
  for (const core::SweepRow& row : rows) {
    chain.u8(static_cast<std::uint8_t>(row.attack));
    chain.u64(row.seed);
    chain.raw(ByteView(reinterpret_cast<const std::uint8_t*>(row.digest.data()),
                       row.digest.size()));
  }
  Bytes buf = std::move(chain).take();
  crypto::Sha256Digest d = crypto::Sha256::hash(ByteView(buf.data(), buf.size()));
  return to_hex(ByteView(d.data(), d.size()));
}

core::ChainExperimentConfig cell_config(const core::SweepConfig& cfg, std::size_t a,
                                        std::size_t r) {
  core::ChainExperimentConfig e;
  e.forwarders = cfg.forwarders;
  e.protocol = cfg.protocol;
  e.attack = attack::all_attack_kinds()[a];
  e.packets = cfg.packets;
  e.injection_interval_s = cfg.injection_interval_s;
  e.link_loss = cfg.link_loss;
  e.seed = core::sweep_cell_seed(cfg.seed, a, r);
  return e;
}

void check_sweep(const core::SweepResult& got, const core::SweepResult& ref, Report& rep) {
  rep.attempt(got.rows.size() + 1);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.rows.size(); ++i)
    if (i >= ref.rows.size() || got.rows[i].digest != ref.rows[i].digest) ++bad;
  if (bad) rep.fail(std::to_string(bad) + " sweep cells differ from the reference", bad);
  if (got.sweep_digest != ref.sweep_digest)
    rep.fail("sweep digest " + got.sweep_digest + " != " + ref.sweep_digest);
}

void campaign_sweep(const Options& opts, Report& rep) {
  const core::SweepConfig cfg = sweep_config(opts.seed, kSweepJobs);
  const std::size_t kinds = attack::all_attack_kinds().size();
  const std::size_t cells = kinds * cfg.runs;

  core::SweepConfig serial = cfg;
  serial.jobs = 1;
  const core::SweepResult ref = core::run_sweep(serial);
  check_pin(opts, ref.sweep_digest, rep);
  std::size_t delivered = 0;
  for (const core::SweepRow& row : ref.rows) delivered += row.result.packets_delivered;
  Report::line("digest", "sweep=" + ref.sweep_digest + " cells=" + std::to_string(cells) +
                             " delivered=" + std::to_string(delivered));

  if (opts.traced) {
    // Cells one at a time: each run_chain_experiment timed alone.
    std::vector<double> cell_ms, pass_ms;
    LayerMetrics m;
    auto start = Clock::now();
    std::size_t passes = 0;
    WorkCounts first_pass;
    while (passes < 2 || secs_since(start) < opts.seconds * 0.5) {
      std::vector<core::SweepRow> rows;
      WorkCounts w0 = WorkCounts::now();
      const std::size_t first_cell = cell_ms.size();
      for (std::size_t a = 0; a < kinds; ++a) {
        for (std::size_t r = 0; r < cfg.runs; ++r) {
          core::SweepRow row;
          core::ChainExperimentConfig e = cell_config(cfg, a, r);
          row.attack = e.attack;
          row.seed = e.seed;
          auto t0 = Clock::now();
          row.result = core::run_chain_experiment(e);
          cell_ms.push_back(secs_since(t0) * 1e3);
          row.digest = core::digest_result(row.result);
          rows.push_back(std::move(row));
        }
      }
      WorkCounts work = WorkCounts::now() - w0;
      double total_ms = 0;
      for (std::size_t i = first_cell; i < cell_ms.size(); ++i) total_ms += cell_ms[i];
      pass_ms.push_back(total_ms);
      rep.attempt();
      if (chain_digest(rows) != ref.sweep_digest)
        rep.fail("cells run one at a time do not chain to the sweep digest");
      if (passes == 0) {
        first_pass = work;
      } else if (!(work == first_pass)) {
        rep.fail("work counts differ between traced sweep passes");
      }
      ++passes;
    }
    double per = static_cast<double>(delivered);
    std::size_t dropped = 0, marks = 0;
    for (const core::SweepRow& row : ref.rows) {
      const core::ChainExperimentResult& res = row.result;
      dropped += res.packets_dropped_links + res.packets_dropped_nodes +
                 res.packets_dropped_queues + res.packets_dropped_isolated;
      marks += res.marks_verified;
    }
    m.delivered_per_cell = per / static_cast<double>(cells);
    m.dropped_per_cell = static_cast<double>(dropped) / static_cast<double>(cells);
    m.marks_verified_per_cell = static_cast<double>(marks) / static_cast<double>(cells);

    // The sink side of every cell: record its deliveries through the
    // experiment's own recorder and send them through the sink layers.
    std::vector<std::string> recorded;
    std::vector<Expect> expect;
    for (std::size_t a = 0; a < kinds; ++a) {
      for (std::size_t r = 0; r < cfg.runs; ++r) {
        TempFile file{opts.tmp_dir + "/campaign-sweep-" + std::to_string(::getpid()) + "-" +
                      std::to_string(a) + "-" + std::to_string(r) + ".pnmtrace"};
        core::ChainExperimentConfig e = cell_config(cfg, a, r);
        e.record_path = file.path;
        core::ChainExperimentResult res = core::run_chain_experiment(e);
        std::ifstream in(file.path, std::ios::binary);
        recorded.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
        expect.push_back({res.packets_delivered, res.marks_verified, res.final_analysis.stop_node});
      }
    }
    Profile prof = profile_passes(recorded, expect, sink::BatchStrategy::kExhaustive,
                                  kFloodBatch, false, opts.seconds * 0.2, rep);

    // Untraced sweeps, for the ledger's total.
    JobLoop sweeps;
    sweeps.job = [&] { check_sweep(core::run_sweep(cfg), ref, rep); };
    sweeps.min_jobs = 3;
    double untraced_ns = median(time_jobs(opts.seconds * 0.2, sweeps).job_s) * 1e9 / per;
    // Cells run serially in the traced pass and `jobs` at a time untraced,
    // so each serial row counts 1/jobs towards the untraced total.
    double cell_ns = median(pass_ms) * 1e6 / per;
    double jobs = static_cast<double>(std::min(cfg.jobs, cells));
    double sink_ns = prof.verify_ns + prof.fold_ns;
    Ledger ledger = close_ledger({{"sink.verify", prof.verify_ns / jobs},
                                  {"sink.fold", prof.fold_ns / jobs},
                                  {"net.simulate", (cell_ns - sink_ns) / jobs}},
                                 "core.sweep_residual", untraced_ns);
    print_ledger(opts.workload, ledger);
    Report::line("samples", "cells=" + std::to_string(cell_ms.size()));
    fill_work(m, prof);
    m.cell_p50_ms = median(cell_ms);
    m.cell_p99_ms = percentile(cell_ms, 0.99);
    // Crypto counts are the whole cell's (marking and in-sim verify), not
    // the recorded replay's.
    m.prf_per_record = static_cast<double>(first_pass.prf_evals) / per;
    m.mac_per_record = static_cast<double>(first_pass.mac_checks) / per;
    m.lanes_mean = first_pass.lane_samples ? static_cast<double>(first_pass.lanes_filled) /
                                                 static_cast<double>(first_pass.lane_samples)
                                           : 0.0;
    emit_layers(rep, m);
    return;
  }

  // Set-up: the sink world one cell builds — topology, key store, scheme
  // and traceback engine. Timed in blocks; too small to time one at a time.
  constexpr std::size_t kBlock = 32;
  auto setup = [&] {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBlock; ++i) {
      net::Topology topo = net::Topology::chain(cfg.forwarders);
      crypto::KeyStore keys(core::campaign_master_secret(core::sweep_cell_seed(cfg.seed, i, 0)),
                            topo.node_count());
      auto scheme = marking::make_scheme(cfg.protocol.scheme,
                                         cfg.protocol.scheme_config(cfg.forwarders));
      sink::TracebackEngine engine(*scheme, keys, topo);
    }
    return secs_since(t0) / static_cast<double>(kBlock);
  };

  check_sweep(core::run_sweep(cfg), ref, rep);  // warm-up
  JobLoop loop;
  loop.job = [&] { check_sweep(core::run_sweep(cfg), ref, rep); };
  loop.setup = setup;
  // Ping: one of the sweep's cells alone, through run_chain_experiment, each
  // cell in turn. A cell's cost depends on its seed; a window of one ping
  // per cell holds the whole sweep's mix, which a single cell's seed does not.
  std::size_t next_cell = 0;
  loop.ping = [&] {
    const std::size_t c = next_cell++ % cells;
    auto t0 = Clock::now();
    core::ChainExperimentResult r =
        core::run_chain_experiment(cell_config(cfg, c / cfg.runs, c % cfg.runs));
    double s = secs_since(t0);
    rep.attempt();
    if (core::digest_result(r) != ref.rows[c].digest) rep.fail("lone cell differs from the sweep's");
    return s;
  };
  loop.pings_per_job = 4;
  loop.min_jobs = kSweepMinJobs;
  emit_end_to_end(rep, time_jobs(opts.seconds, loop), cells, static_cast<double>(cells),
                  static_cast<double>(delivered));
}

}  // namespace

void check_replay(const ingest::ReplayResult& r, std::size_t n, const std::string& ref,
                  Report& rep) {
  rep.attempt(n + 1);
  if (!r.ok) {
    rep.fail("replay failed: " + r.error, n + 1);
    return;
  }
  std::size_t rejected = r.stats.crc_failures + r.stats.decode_failures + r.stats.bad_records;
  if (rejected) rep.fail(std::to_string(rejected) + " records rejected by CRC or decode", rejected);
  if (r.stats.records + rejected != n)
    rep.fail("replay folded " + std::to_string(r.stats.records) + " of " + std::to_string(n));
  if (r.verdict_digest != ref) rep.fail("verdict digest " + r.verdict_digest + " != " + ref);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"replay-flood", "serve-flows",
                                                 "campaign-sweep"};
  return names;
}

bool run_workload(const Options& opts, Report& report) {
  if (opts.workload == "replay-flood") {
    replay_flood(opts, report);
  } else if (opts.workload == "serve-flows") {
    serve_flows(opts, report);
  } else if (opts.workload == "campaign-sweep") {
    campaign_sweep(opts, report);
  } else {
    return false;
  }
  return true;
}

void print_context(const Options& opts) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  crypto::Sha256Backend backend = crypto::active_sha_backend();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  const obs::MetricSample* gauge = snap.find("sha256_backend");
  std::string shape;
  if (opts.workload == "replay-flood") {
    shape = "batch=" + std::to_string(kFloodBatch) + " shards=" + std::to_string(kShards) +
            " threads=1 strategy=exhaustive records=" + std::to_string(kFloodRecords);
  } else if (opts.workload == "serve-flows") {
    shape = "batch=" + std::to_string(kFlowsBatch) + " shards=" + std::to_string(kShards) +
            " threads=1 strategy=scoped connections=" + std::to_string(kConnections) +
            " credit_window=" + std::to_string(kCreditWindow) +
            " records=" + std::to_string(trace_records(flows_spec(opts.seed)));
  } else {
    shape = "jobs=" + std::to_string(kSweepJobs) + " runs=" + std::to_string(kSweepRuns) +
            " forwarders=20 packets=120 strategy=in-sim";
  }
  Report::line("context",
               "workload=" + opts.workload + " seed=" + std::to_string(opts.seed) +
                   " nproc=" + std::to_string(cpus) + " sha256_backend=" +
                   crypto::sha_backend_name(backend) + "(" +
                   std::to_string(gauge ? gauge->gauge : -1) + ") " + shape +
                   " traced=" + (opts.traced ? "1" : "0"));
}

}  // namespace sinkbench
