// pnm — command-line driver for ad-hoc experiments.
//
//   pnm experiment [--scheme S] [--attack A] [--forwarders N] [--packets P]
//                  [--offset K] [--loss F] [--seed X]
//       One chain experiment; prints the traceback verdict and ground truth.
//
//   pnm campaign   [--attack A] [--grid WxH | --forwarders N] [--budget P]
//                  [--seed X]
//       Full catch-isolate-repeat campaign; prints each phase.
//
//   pnm model      [--forwarders N] [--marks M]
//       Closed-form answers: packets for 90/99% mark collection, failure
//       rates, expected identification cost.
//
//   pnm matrix     [--packets P] [--forwarders N] [--seed X] [--jobs J]
//       The full scheme-vs-attack security matrix (CAUGHT/MISLED/...).
//       --jobs J runs the independent cells on J worker threads; the table
//       is byte-identical for any J.
//
//   pnm sweep      [--attacks A,B,...] [--runs R] [--jobs J] [--scheme S]
//                  [--forwarders N] [--packets P] [--loss F] [--seed X]
//       Deterministic campaign sweep: attacks × R seeds, fanned across J
//       workers (net::CampaignRunner). Prints one CSV row per run with its
//       scenario digest plus a sweep digest chaining them; output is
//       byte-identical for any --jobs value.
//
//   pnm verify     [--packets P] [--forwarders N] [--threads T] [--scoped 1]
//                  [--marks M] [--seed X]
//       Sink batch-verification throughput: generate P marked packets and
//       run them through the batch engine serially and with T threads;
//       prints rates, speedup and the verification counters as JSON.
//
//   pnm record    --out FILE.pnmtrace [experiment flags]
//       Run a chain experiment and record every delivered packet (wire
//       bytes + delivery time + previous hop) into a replayable trace.
//
//   pnm replay    --in FILE.pnmtrace [--shards N] [--threads T] [--batch B]
//                 [--scoped 1]
//       Rebuild the sink from the trace header and stream the records
//       through the ingest pipeline; prints the accusation set, the verdict
//       digest (the determinism fingerprint) and the ingest counters JSON.
//       --shards N fans ingest across N flow-affine lanes with a
//       deterministic traceback merge — the digest and accusations are
//       shard-count invariant; --threads is verifier workers per lane.
//
//   pnm trace-stat --in FILE.pnmtrace
//       Header metadata plus a record/error census of the file.
//
//   pnm serve     --campaign FILE.pnmtrace [--port P] [--unix PATH]
//                 [--admin-port P] [--shards N] [--threads T] [--batch B]
//                 [--credit-window W] [--port-file FILE] [--scoped 1]
//       Long-running sink daemon: accepts concurrent client sessions over
//       TCP (loopback) and an optional unix socket, streams their
//       `.pnmtrace` frames through one sharded ingest pipeline, and exposes
//       an admin plane on a second port: GET /metrics /healthz /spans
//       /provenance /flight, POST /drain /rekey (any other method on those
//       two answers 405). Runs until something POSTs /drain; then prints the
//       final record count and global verdict digest. --port-file writes the
//       resolved tcp/admin ports (ephemeral binds) for scripts.
//
//   pnm loadgen   --traces A[,B,...] (--port P | --unix PATH) [--host H]
//                 [--connections M] [--repeat N] [--ping-every K]
//                 [--pace-us U] [--json FILE]
//       Protocol client: replays the traces over M concurrent sessions
//       against a running daemon; prints records/s and Ping/Pong RTT tail
//       latency, plus each session's digest receipt (these must equal
//       `pnm replay` digests of the same traces).
//
//   pnm flight-dump --admin-port P [--host H] [--out FILE]
//       Fetch a running daemon's flight-recorder dump (GET /flight) and
//       print it (or write it to --out as a .pnmflight file).
//
//   pnm list
//       Available schemes and attacks.
//
// `pnm experiment --render text|dot` additionally dumps the reconstructed
// order graph.
//
// Observability flags, valid on every command:
//   --metrics-out FILE         write a scrape of the global metrics registry
//                              on exit (every counter/gauge/histogram the
//                              run touched)
//   --metrics-format json|prom exposition format for --metrics-out
//                              (default json; prom = Prometheus text)
//   --span-trace FILE          enable scoped-span collection and write the
//                              run's spans as Chrome trace-event JSON
//                              (loadable in Perfetto / chrome://tracing)
//   --metrics-every-ms N       also report a JSON metrics line to stderr
//                              every N ms while the command runs
//   --sha-backend B            pin the SHA-256 engine to one dispatch rung
//                              (scalar|sse2|avx2|shani|avx512); same as
//                              PNM_FORCE_SHA_BACKEND, flag wins. Verdicts
//                              and digests are backend-independent — this
//                              only changes speed.
//   --provenance-rate N        sample 1-in-N records for provenance tracing
//                              (0 = off, default 64). Sampling is a
//                              deterministic content hash, so replays at any
//                              shard/thread count trace the same records.
//
// `pnm replay --provenance-out FILE` writes the canonical provenance JSONL
// (deterministic stages/fields, byte-identical across shard/thread configs);
// `pnm serve --flight-dump FILE [--watchdog-ms N]` arms the anomaly watchdog
// and fatal-signal flight dumps.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/models.h"
#include "core/campaign.h"
#include "core/sweep.h"
#include "net/campaign_runner.h"
#include "crypto/sha256_multi.h"
#include "ingest/replay.h"
#include "obs/exposition.h"
#include "obs/flight.h"
#include "obs/provenance.h"
#include "obs/span.h"
#include "serve/loadgen.h"
#include "serve/socket.h"
#include "serve/server.h"
#include "sink/batch_verifier.h"
#include "sink/route_render.h"
#include "trace/reader.h"
#include "util/counters.h"
#include "util/table.h"

namespace {

using pnm::Table;

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) != 0; }
  std::string str(const std::string& k, const std::string& dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  std::size_t num(const std::string& k, std::size_t dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt
                          : static_cast<std::size_t>(std::strtoull(it->second.c_str(),
                                                                   nullptr, 10));
  }
  double real(const std::string& k, double dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
};

Args parse(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const char* a = argv[i];
    if (a[0] == '-' && a[1] == '-' && i + 1 < argc) {
      args.kv[a + 2] = argv[++i];
    }
  }
  return args;
}

bool write_file(const std::string& path, const std::string& content,
                const char* what);

pnm::marking::SchemeKind scheme_by_name(const std::string& name) {
  if (auto kind = pnm::marking::scheme_kind_by_name(name)) return *kind;
  std::fprintf(stderr, "unknown scheme '%s' (try: pnm list)\n", name.c_str());
  std::exit(2);
}

pnm::attack::AttackKind attack_by_name(const std::string& name) {
  for (auto kind : pnm::attack::all_attack_kinds())
    if (name == pnm::attack::attack_kind_name(kind)) return kind;
  std::fprintf(stderr, "unknown attack '%s' (try: pnm list)\n", name.c_str());
  std::exit(2);
}

int cmd_list() {
  std::printf("schemes:\n");
  for (auto kind : pnm::marking::all_scheme_kinds())
    std::printf("  %s\n", std::string(pnm::marking::scheme_kind_name(kind)).c_str());
  std::printf("attacks:\n");
  for (auto kind : pnm::attack::all_attack_kinds())
    std::printf("  %s\n", std::string(pnm::attack::attack_kind_name(kind)).c_str());
  return 0;
}

pnm::core::ChainExperimentConfig chain_config_from(const Args& args) {
  pnm::core::ChainExperimentConfig cfg;
  cfg.forwarders = args.num("forwarders", 10);
  cfg.packets = args.num("packets", 200);
  cfg.forwarder_offset = args.num("offset", 0);
  cfg.link_loss = args.real("loss", 0.0);
  cfg.seed = args.num("seed", 1);
  cfg.protocol.scheme = scheme_by_name(args.str("scheme", "pnm"));
  cfg.protocol.target_marks_per_packet = args.real("marks", 3.0);
  cfg.attack = attack_by_name(args.str("attack", "source-only"));
  return cfg;
}

int cmd_experiment(const Args& args) {
  pnm::core::ChainExperimentConfig cfg = chain_config_from(args);

  // --render text|dot : dump the reconstructed order graph afterwards.
  std::string render_mode = args.str("render", "");
  std::string rendered;
  pnm::core::PacketObserver observer;
  if (render_mode == "text" || render_mode == "dot") {
    observer = [&](std::size_t, const pnm::sink::TracebackEngine& engine) {
      rendered = render_mode == "dot"
                     ? pnm::sink::render_route_dot(engine.graph(), engine.analysis())
                     : pnm::sink::render_route_text(engine.graph(), engine.analysis());
    };
  }

  auto r = pnm::core::run_chain_experiment(cfg, observer);

  Table t({"metric", "value"});
  t.set_title("chain experiment");
  t.add_row({"scheme", std::string(pnm::marking::scheme_kind_name(cfg.protocol.scheme))});
  t.add_row({"attack", std::string(pnm::attack::attack_kind_name(cfg.attack))});
  t.add_row({"forwarders", Table::num(cfg.forwarders)});
  t.add_row({"bogus injected / delivered",
             Table::num(r.packets_injected) + " / " + Table::num(r.packets_delivered)});
  t.add_row({"marks verified", Table::num(r.marks_verified)});
  t.add_row({"identified", r.final_analysis.identified ? "yes" : "no"});
  if (r.final_analysis.identified) {
    t.add_row({"packets to identify", Table::num(r.packets_to_identify.value_or(0))});
    t.add_row({"stop node", Table::num(static_cast<std::size_t>(r.final_analysis.stop_node))});
    std::string suspects;
    for (auto s : r.final_analysis.suspects)
      suspects += (suspects.empty() ? "" : " ") + Table::num(static_cast<std::size_t>(s));
    t.add_row({"suspects", suspects});
    t.add_row({"via loop", r.final_analysis.via_loop ? "yes" : "no"});
    t.add_row({"mole in suspects (ground truth)", r.mole_in_suspects ? "YES" : "NO"});
  }
  std::string moles;
  for (auto m : r.moles)
    moles += (moles.empty() ? "" : " ") + Table::num(static_cast<std::size_t>(m));
  t.add_row({"actual moles", moles});
  t.add_row({"sim time (s)", Table::num(r.sim_duration_s, 2)});
  t.add_row({"energy (mJ)", Table::num(r.total_energy_uj / 1000.0, 1)});
  std::fputs(t.render().c_str(), stdout);
  if (!rendered.empty()) {
    std::fputs("\n", stdout);
    std::fputs(rendered.c_str(), stdout);
  }
  return 0;
}

int cmd_campaign(const Args& args) {
  pnm::core::CatchCampaignConfig cfg;
  std::string grid = args.str("grid", "");
  if (!grid.empty()) {
    cfg.field = pnm::core::FieldKind::kGrid;
    std::size_t x = grid.find('x');
    cfg.grid_width = static_cast<std::size_t>(std::strtoull(grid.c_str(), nullptr, 10));
    cfg.grid_height = x == std::string::npos
                          ? cfg.grid_width
                          : static_cast<std::size_t>(
                                std::strtoull(grid.c_str() + x + 1, nullptr, 10));
  } else {
    cfg.field = pnm::core::FieldKind::kChain;
    cfg.forwarders = args.num("forwarders", 20);
  }
  cfg.attack = attack_by_name(args.str("attack", "removal-blind"));
  cfg.max_packets = args.num("budget", 5000);
  cfg.seed = args.num("seed", 1);

  auto r = pnm::core::run_catch_campaign(cfg);
  Table t({"phase", "caught", "inspections", "wasted", "bogus absorbed", "time (s)",
           "energy (mJ)"});
  t.set_title("catch campaign");
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const auto& phase = r.phases[i];
    t.add_row({Table::num(i + 1), Table::num(static_cast<std::size_t>(phase.caught)),
               Table::num(phase.inspections), Table::num(phase.wasted_inspections),
               Table::num(phase.bogus_delivered), Table::num(phase.duration_s, 1),
               Table::num(phase.energy_uj / 1000.0, 1)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("result: %s (injected %zu, delivered %zu, %.1f mJ, %.1f s)\n",
              r.all_moles_caught      ? "all moles caught"
              : r.attack_neutralized  ? "attack neutralized"
                                      : "budget exhausted, attack alive",
              r.total_bogus_injected, r.total_bogus_delivered,
              r.total_energy_uj / 1000.0, r.total_time_s);
  return r.attack_neutralized ? 0 : 1;
}

int cmd_matrix(const Args& args) {
  std::size_t n = args.num("forwarders", 10);
  std::size_t packets = args.num("packets", 400);
  std::vector<std::string> header{"attack \\ scheme"};
  for (auto kind : pnm::marking::all_scheme_kinds())
    header.emplace_back(pnm::marking::scheme_kind_name(kind));
  Table t(std::move(header));
  t.set_title("scheme vs attack (n=" + Table::num(n) + ", " + Table::num(packets) +
              " packets)");
  // Cells are independent experiments: fan them out over --jobs workers and
  // render in index order, so the table is identical for any jobs value.
  std::vector<pnm::attack::AttackKind> attacks = pnm::attack::all_attack_kinds();
  std::vector<pnm::marking::SchemeKind> schemes = pnm::marking::all_scheme_kinds();
  pnm::net::CampaignRunner runner(args.num("jobs", 1));
  std::function<std::string(std::size_t)> cell_fn = [&](std::size_t i) {
    auto attack = attacks[i / schemes.size()];
    auto scheme = schemes[i % schemes.size()];
    pnm::core::ChainExperimentConfig cfg;
    cfg.forwarders = n;
    cfg.packets = packets;
    cfg.protocol.scheme = scheme;
    cfg.attack = attack;
    cfg.seed = args.num("seed", 1) * 31 + static_cast<std::uint64_t>(attack) * 7 +
               static_cast<std::uint64_t>(scheme);
    auto r = pnm::core::run_chain_experiment(cfg);
    std::string cell;
    if (r.packets_delivered == 0) cell = "STARVED";
    else if (!r.final_analysis.identified) cell = "BLIND";
    else cell = r.mole_in_suspects ? "CAUGHT" : "MISLED";
    if (r.final_analysis.via_loop) cell += "*";
    return cell;
  };
  std::vector<std::string> cells =
      runner.run_all<std::string>(attacks.size() * schemes.size(), cell_fn);
  for (std::size_t a = 0; a < attacks.size(); ++a) {
    std::vector<std::string> row{std::string(pnm::attack::attack_kind_name(attacks[a]))};
    for (std::size_t s = 0; s < schemes.size(); ++s)
      row.push_back(std::move(cells[a * schemes.size() + s]));
    t.add_row(std::move(row));
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("(* = via loop analysis; see bench/table_attack_matrix for the "
              "annotated version)\n");
  return 0;
}

int cmd_sweep(const Args& args) {
  pnm::core::SweepConfig cfg;
  cfg.forwarders = args.num("forwarders", 10);
  cfg.packets = args.num("packets", 200);
  cfg.runs = args.num("runs", 3);
  cfg.seed = args.num("seed", 1);
  cfg.link_loss = args.real("loss", 0.0);
  cfg.protocol.scheme = scheme_by_name(args.str("scheme", "pnm"));
  cfg.protocol.target_marks_per_packet = args.real("marks", 3.0);
  cfg.jobs = args.num("jobs", 1);
  std::string list = args.str("attacks", "");
  for (std::size_t pos = 0; pos < list.size();) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    cfg.attacks.push_back(attack_by_name(list.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  pnm::core::SweepResult result = pnm::core::run_sweep(cfg);
  std::fputs(pnm::core::format_sweep(cfg, result).c_str(), stdout);
  return 0;
}

int cmd_verify(const Args& args) {
  std::size_t packets = args.num("packets", 256);
  std::size_t forwarders = args.num("forwarders", 20);
  std::size_t threads = args.num("threads", 0);
  bool scoped = args.num("scoped", 0) != 0;
  double marks = args.real("marks", 3.0);
  pnm::Rng rng(args.num("seed", 1));

  pnm::net::Topology topo = pnm::net::Topology::chain(forwarders);
  pnm::crypto::KeyStore keys(pnm::Bytes{0xaa, 0xbb, 0xcc}, topo.node_count());
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = std::min(1.0, marks / static_cast<double>(forwarders));
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);

  std::vector<pnm::net::Packet> batch;
  batch.reserve(packets);
  for (std::size_t n = 0; n < packets; ++n) {
    pnm::net::Packet p;
    p.report = pnm::net::Report{static_cast<std::uint32_t>(n), 1, 1, n}.encode();
    for (std::size_t h = forwarders; h >= 1; --h) {
      auto v = static_cast<pnm::NodeId>(h);
      scheme->mark(p, v, keys.key_unchecked(v), rng);
    }
    p.delivered_by = 1;
    batch.push_back(std::move(p));
  }

  pnm::sink::BatchVerifierConfig bcfg;
  bcfg.strategy = scoped ? pnm::sink::BatchStrategy::kScoped
                         : pnm::sink::BatchStrategy::kExhaustive;
  auto run = [&](std::size_t nthreads) {
    bcfg.threads = nthreads;
    pnm::sink::BatchVerifier engine(*scheme, keys, bcfg, scoped ? &topo : nullptr);
    auto t0 = std::chrono::steady_clock::now();
    auto results = engine.verify_batch(batch);
    auto t1 = std::chrono::steady_clock::now();
    std::size_t verified = 0;
    for (const auto& r : results) verified += r.chain.size();
    return std::pair<double, std::size_t>(
        std::chrono::duration<double>(t1 - t0).count(), verified);
  };

  auto [serial_s, serial_marks] = run(1);
  auto [par_s, par_marks] = run(threads);
  if (serial_marks != par_marks) {
    std::fprintf(stderr, "verify: parallel/serial mark-count mismatch\n");
    return 1;
  }

  Table t({"path", "threads", "elapsed (ms)", "pkts/s"});
  t.set_title("batch verification, " + Table::num(packets) + " packets, " +
              Table::num(forwarders) + " forwarders, " +
              std::string(scoped ? "scoped" : "exhaustive"));
  double n_pkts = static_cast<double>(packets);
  t.add_row({"serial", "1", Table::num(serial_s * 1000.0, 1),
             Table::num(n_pkts / serial_s, 0)});
  t.add_row({"parallel", threads ? Table::num(threads) : "auto",
             Table::num(par_s * 1000.0, 1), Table::num(n_pkts / par_s, 0)});
  std::fputs(t.render().c_str(), stdout);
  std::printf("speedup: %.2fx, verified marks: %zu\n", serial_s / par_s, serial_marks);
  std::printf("counters: %s\n", pnm::util::Counters::global().to_json().c_str());
  return 0;
}

std::string node_list(const std::vector<pnm::NodeId>& nodes) {
  std::string out;
  for (auto v : nodes)
    out += (out.empty() ? "" : " ") + Table::num(static_cast<std::size_t>(v));
  return out;
}

int cmd_record(const Args& args) {
  std::string out_path = args.str("out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "record: --out FILE.pnmtrace is required\n");
    return 2;
  }
  pnm::core::ChainExperimentConfig cfg = chain_config_from(args);
  cfg.record_path = out_path;
  auto r = pnm::core::run_chain_experiment(cfg);

  Table t({"metric", "value"});
  t.set_title("trace capture");
  t.add_row({"trace", out_path});
  t.add_row({"scheme", std::string(pnm::marking::scheme_kind_name(cfg.protocol.scheme))});
  t.add_row({"attack", std::string(pnm::attack::attack_kind_name(cfg.attack))});
  t.add_row({"seed", Table::num(cfg.seed)});
  t.add_row({"bogus injected / delivered",
             Table::num(r.packets_injected) + " / " + Table::num(r.packets_delivered)});
  t.add_row({"records written", Table::num(r.records_recorded)});
  t.add_row({"identified (live)", r.final_analysis.identified ? "yes" : "no"});
  if (r.final_analysis.identified) {
    t.add_row({"stop node (live)",
               Table::num(static_cast<std::size_t>(r.final_analysis.stop_node))});
    t.add_row({"suspects (live)", node_list(r.final_analysis.suspects)});
  }
  std::fputs(t.render().c_str(), stdout);
  return r.records_recorded == r.packets_delivered ? 0 : 1;
}

int cmd_replay(const Args& args) {
  std::string in_path = args.str("in", "");
  if (in_path.empty()) {
    std::fprintf(stderr, "replay: --in FILE.pnmtrace is required\n");
    return 2;
  }
  pnm::ingest::ReplayOptions opts;
  opts.threads = args.num("threads", 1);
  opts.shards = args.num("shards", 1);
  opts.scoped = args.num("scoped", 0) != 0;
  opts.batch_size = args.num("batch", 256);
  opts.counters = &pnm::util::Counters::global();
  auto r = pnm::ingest::replay_file(in_path, opts);
  if (!r.ok) {
    std::fprintf(stderr, "replay: %s\n", r.error.c_str());
    return 1;
  }

  Table t({"metric", "value"});
  t.set_title("trace replay");
  t.add_row({"trace", in_path});
  t.add_row({"scheme", r.meta.get(pnm::trace::kMetaScheme).value_or("?")});
  t.add_row({"attack", r.meta.get(pnm::trace::kMetaAttack).value_or("?")});
  t.add_row({"records replayed", Table::num(r.stats.records)});
  t.add_row({"decode failures", Table::num(r.stats.decode_failures)});
  t.add_row({"crc failures", Table::num(r.stats.crc_failures + r.stats.bad_records)});
  t.add_row({"stream cut short",
             r.stats.truncated ? "truncated" : (r.stats.oversized ? "oversized" : "no")});
  t.add_row({"marks verified", Table::num(r.marks_verified)});
  t.add_row({"records/s", Table::num(r.stats.records_per_s, 0)});
  t.add_row({"queue high water", Table::num(r.stats.queue_high_water)});
  if (r.stats.shards > 1) {
    t.add_row({"shards", Table::num(r.stats.shards)});
    std::string per_shard;
    for (std::size_t n : r.stats.shard_records)
      per_shard += (per_shard.empty() ? "" : " ") + Table::num(n);
    t.add_row({"records per shard", per_shard});
    t.add_row({"merge buffer high water", Table::num(r.stats.merge_max_pending)});
  }
  t.add_row({"identified", r.analysis.identified ? "yes" : "no"});
  if (r.analysis.identified) {
    t.add_row({"stop node", Table::num(static_cast<std::size_t>(r.analysis.stop_node))});
    t.add_row({"suspects", node_list(r.analysis.suspects)});
    t.add_row({"via loop", r.analysis.via_loop ? "yes" : "no"});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("verdict digest: %s\n", r.verdict_digest.c_str());
  std::printf("counters: %s\n", pnm::util::Counters::global().to_json().c_str());

  std::string prov_path = args.str("provenance-out", "");
  if (!prov_path.empty()) {
    // Canonical JSONL: the deterministic view (CI byte-compares it across
    // shard/thread matrices), not the timestamped runtime stream.
    if (!write_file(prov_path, pnm::obs::provenance_jsonl_canonical(),
                    "provenance JSONL"))
      return 1;
  }
  return 0;
}

int cmd_trace_stat(const Args& args) {
  std::string in_path = args.str("in", "");
  if (in_path.empty()) {
    std::fprintf(stderr, "trace-stat: --in FILE.pnmtrace is required\n");
    return 2;
  }
  pnm::trace::TraceReader reader(in_path);
  if (!reader.valid()) {
    std::fprintf(stderr, "trace-stat: %s\n", reader.header_error().c_str());
    return 1;
  }
  reader.meter_into(&pnm::util::Counters::global());
  auto stat = reader.stat();

  Table t({"field", "value"});
  t.set_title("trace file " + in_path);
  t.add_row({"format version", Table::num(static_cast<std::size_t>(reader.version()))});
  for (const auto& [key, value] : reader.meta().entries())
    t.add_row({"meta." + key, value});
  t.add_row({"records", Table::num(stat.records)});
  t.add_row({"bad crc / bad record",
             Table::num(stat.bad_crc) + " / " + Table::num(stat.bad_record)});
  t.add_row({"stream cut short",
             stat.truncated ? "truncated" : (stat.oversized ? "oversized" : "no")});
  t.add_row({"wire bytes", Table::num(stat.wire_bytes)});
  if (stat.records > 0) {
    t.add_row({"time span (s)",
               Table::num(static_cast<double>(stat.last_time_us - stat.first_time_us) /
                              1e6, 2)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_model(const Args& args) {
  std::size_t n = args.num("forwarders", 20);
  double marks = args.real("marks", 3.0);
  double p = std::min(1.0, marks / static_cast<double>(n));
  Table t({"quantity", "value"});
  t.set_title("closed-form model, n=" + Table::num(n) + ", np=" + Table::num(marks, 1));
  t.add_row({"marking probability p", Table::num(p, 4)});
  t.add_row({"packets for 90% full mark collection",
             Table::num(pnm::analysis::packets_for_confidence(n, p, 0.90))});
  t.add_row({"packets for 99% full mark collection",
             Table::num(pnm::analysis::packets_for_confidence(n, p, 0.99))});
  t.add_row({"E[packets] to order the critical V1-V2 pair",
             Table::num(pnm::analysis::expected_packets_to_order_first_pair(p), 1)});
  t.add_row({"identification failure prob @200 pkts",
             Table::num(pnm::analysis::prob_identification_failure(p, 200), 4)});
  t.add_row({"identification failure prob @800 pkts",
             Table::num(pnm::analysis::prob_identification_failure(p, 800), 4)});
  t.add_row({"expected mark bytes per packet",
             Table::num(pnm::analysis::expected_mark_bytes(n, p, 2, 4), 1)});
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_serve(const Args& args) {
  std::string campaign = args.str("campaign", "");
  if (campaign.empty()) {
    std::fprintf(stderr, "serve: --campaign FILE.pnmtrace is required\n");
    return 2;
  }
  pnm::serve::ServerConfig cfg;
  cfg.campaign_trace = campaign;
  cfg.tcp_port = static_cast<std::uint16_t>(args.num("port", 0));
  cfg.unix_socket_path = args.str("unix", "");
  cfg.admin_port = static_cast<std::uint16_t>(args.num("admin-port", 0));
  cfg.shards = args.num("shards", 1);
  cfg.threads = args.num("threads", 1);
  cfg.batch_size = args.num("batch", 64);
  cfg.queue_capacity = args.num("queue", 1024);
  cfg.credit_window = static_cast<std::uint32_t>(args.num("credit-window", 256));
  cfg.scoped = args.num("scoped", 0) != 0;
  cfg.counters = &pnm::util::Counters::global();
  cfg.flight_dump_path = args.str("flight-dump", "");
  cfg.watchdog_ms = args.num("watchdog-ms", 500);

  std::string error;
  auto server = pnm::serve::Server::create(cfg, &error);
  if (!server) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  server->start();

  std::string port_file = args.str("port-file", "");
  if (!port_file.empty()) {
    std::string body = "tcp=" + std::to_string(server->tcp_port()) +
                       "\nadmin=" + std::to_string(server->admin_port()) +
                       "\nunix=" + server->unix_socket_path() + "\n";
    std::ofstream out(port_file, std::ios::binary | std::ios::trunc);
    out << body;
    if (!out) {
      std::fprintf(stderr, "serve: cannot write port file '%s'\n", port_file.c_str());
      return 1;
    }
  }
  std::printf("pnm serve: sessions on 127.0.0.1:%u%s%s, admin on 127.0.0.1:%u\n",
              server->tcp_port(),
              server->unix_socket_path().empty() ? "" : " and unix ",
              server->unix_socket_path().c_str(), server->admin_port());
  std::fflush(stdout);

  pnm::serve::DrainReport report = server->wait();
  Table t({"metric", "value"});
  t.set_title("serve drained");
  t.add_row({"sessions served", Table::num(report.sessions)});
  t.add_row({"records verified", Table::num(report.records)});
  t.add_row({"key epoch", Table::num(report.key_epoch)});
  std::fputs(t.render().c_str(), stdout);
  std::printf("verdict digest: %s\n", report.verdict_digest.c_str());
  if (!report.error.empty()) {
    std::fprintf(stderr, "serve: pipeline error: %s\n", report.error.c_str());
    return 1;
  }
  return 0;
}

int cmd_loadgen(const Args& args) {
  pnm::serve::LoadgenConfig cfg;
  cfg.host = args.str("host", "127.0.0.1");
  cfg.port = static_cast<std::uint16_t>(args.num("port", 0));
  cfg.unix_socket_path = args.str("unix", "");
  cfg.connections = args.num("connections", 1);
  cfg.repeat = args.num("repeat", 1);
  cfg.ping_every = args.num("ping-every", 32);
  cfg.pace_us = args.num("pace-us", 0);
  std::string traces = args.str("traces", "");
  for (std::size_t pos = 0; pos < traces.size();) {
    std::size_t comma = traces.find(',', pos);
    if (comma == std::string::npos) comma = traces.size();
    if (comma > pos) cfg.traces.push_back(traces.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (cfg.traces.empty()) {
    std::fprintf(stderr, "loadgen: --traces A[,B,...] is required\n");
    return 2;
  }
  if (cfg.port == 0 && cfg.unix_socket_path.empty()) {
    std::fprintf(stderr, "loadgen: --port P or --unix PATH is required\n");
    return 2;
  }

  pnm::serve::LoadgenStats stats = pnm::serve::run_loadgen(cfg);

  Table t({"metric", "value"});
  t.set_title("loadgen");
  t.add_row({"sessions", Table::num(stats.sessions)});
  t.add_row({"records acknowledged", Table::num(stats.records)});
  t.add_row({"elapsed (s)", Table::num(stats.elapsed_s, 3)});
  t.add_row({"records/s", Table::num(stats.records_per_s, 0)});
  t.add_row({"rtt samples", Table::num(stats.rtt_samples)});
  t.add_row({"rtt p50/p95/p99 (ms)", Table::num(stats.rtt_p50_ms, 3) + " / " +
                                         Table::num(stats.rtt_p95_ms, 3) + " / " +
                                         Table::num(stats.rtt_p99_ms, 3)});
  t.add_row({"rtt max (ms)", Table::num(stats.rtt_max_ms, 3)});
  std::fputs(t.render().c_str(), stdout);
  for (const auto& s : stats.session_results) {
    if (s.ok)
      std::printf("stream digest: %s %s\n", s.trace.c_str(), s.digest_hex.c_str());
    else
      std::printf("stream failed: %s %s\n", s.trace.c_str(), s.error.c_str());
  }
  if (!stats.error.empty())
    std::fprintf(stderr, "loadgen: %s\n", stats.error.c_str());

  std::string json_path = args.str("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << stats.to_json() << "\n";
    if (!out) {
      std::fprintf(stderr, "loadgen: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
  }
  return stats.ok ? 0 : 1;
}

int cmd_flight_dump(const Args& args) {
  std::uint16_t admin_port = static_cast<std::uint16_t>(args.num("admin-port", 0));
  if (admin_port == 0) {
    std::fprintf(stderr, "flight-dump: --admin-port P is required\n");
    return 2;
  }
  std::string host = args.str("host", "127.0.0.1");
  std::string error;
  pnm::serve::Socket sock = pnm::serve::Socket::connect_tcp(host, admin_port, &error);
  if (!sock.valid()) {
    std::fprintf(stderr, "flight-dump: %s\n", error.c_str());
    return 1;
  }
  std::string request = "GET /flight HTTP/1.0\r\n\r\n";
  if (!sock.send_all(pnm::ByteView(
          reinterpret_cast<const std::uint8_t*>(request.data()), request.size()))) {
    std::fprintf(stderr, "flight-dump: send failed\n");
    return 1;
  }
  std::string response;
  char buf[4096];
  long n;
  while ((n = sock.recv_some(buf, sizeof(buf))) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos || response.rfind("HTTP/1.0 200", 0) != 0) {
    std::fprintf(stderr, "flight-dump: bad admin response\n");
    return 1;
  }
  std::string body = response.substr(body_at + 4);
  std::string out_path = args.str("out", "");
  if (!out_path.empty()) {
    if (!write_file(out_path, body, "flight dump")) return 1;
    std::printf("flight dump written to %s (%zu bytes)\n", out_path.c_str(),
                body.size());
  } else {
    std::fputs(body.c_str(), stdout);
    std::fputs("\n", stdout);
  }
  return 0;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "list") return cmd_list();
  if (cmd == "experiment") return cmd_experiment(args);
  if (cmd == "campaign") return cmd_campaign(args);
  if (cmd == "matrix") return cmd_matrix(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "model") return cmd_model(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "record") return cmd_record(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "trace-stat") return cmd_trace_stat(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "loadgen") return cmd_loadgen(args);
  if (cmd == "flight-dump") return cmd_flight_dump(args);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}

bool write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    std::fprintf(stderr, "failed to write %s to '%s'\n", what, path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <experiment|campaign|matrix|sweep|model|verify|record|"
                 "replay|trace-stat|serve|loadgen|flight-dump|list> "
                 "[--flag value ...]\n"
                 "       [--metrics-out FILE] [--metrics-format json|prom]\n"
                 "       [--sha-backend scalar|sse2|avx2|shani|avx512]\n"
                 "       [--span-trace FILE] [--metrics-every-ms N]\n"
                 "       [--provenance-rate N]\n",
                 argv[0]);
    return 2;
  }
  std::string cmd = argv[1];
  Args args = parse(argc, argv, 2);

  std::string backend_name = args.str("sha-backend", "");
  if (!backend_name.empty()) {
    auto parsed = pnm::crypto::parse_sha_backend(backend_name);
    if (!parsed) {
      std::fprintf(stderr, "unknown --sha-backend '%s' (scalar|sse2|avx2|shani|avx512)\n",
                   backend_name.c_str());
      return 2;
    }
    if (!pnm::crypto::sha_backend_supported(*parsed)) {
      std::fprintf(stderr,
                   "--sha-backend %s not supported on this CPU; using %s\n",
                   backend_name.c_str(),
                   pnm::crypto::sha_backend_name(pnm::crypto::active_sha_backend()));
    } else {
      pnm::crypto::force_sha_backend(*parsed);
    }
  }

  std::string span_path = args.str("span-trace", "");
  if (!span_path.empty()) pnm::obs::SpanCollector::global().enable();

  if (args.has("provenance-rate")) {
    pnm::obs::ProvenanceCollector::global().set_sample_rate(
        static_cast<std::uint32_t>(args.num("provenance-rate", 64)));
  }

  std::unique_ptr<pnm::obs::Reporter> reporter;
  if (std::size_t every_ms = args.num("metrics-every-ms", 0)) {
    reporter = std::make_unique<pnm::obs::Reporter>(
        pnm::obs::MetricsRegistry::global(), std::chrono::milliseconds(every_ms),
        [](const pnm::obs::MetricsSnapshot& snap) {
          std::fprintf(stderr, "metrics: %s\n", pnm::obs::to_json(snap).c_str());
        });
  }

  int rc = dispatch(cmd, args);
  reporter.reset();  // final scrape before the file exports below

  std::string metrics_path = args.str("metrics-out", "");
  if (!metrics_path.empty()) {
    std::string format = args.str("metrics-format", "json");
    if (format != "json" && format != "prom") {
      std::fprintf(stderr, "unknown --metrics-format '%s' (json|prom)\n",
                   format.c_str());
      return 2;
    }
    auto snap = pnm::obs::MetricsRegistry::global().scrape();
    std::string body = format == "prom" ? pnm::obs::to_prometheus(snap)
                                        : pnm::obs::to_json(snap) + "\n";
    if (!write_file(metrics_path, body, "metrics")) return 1;
  }
  if (!span_path.empty()) {
    // Same serializer the admin /spans endpoint uses: spans plus any sampled
    // provenance instants in one Chrome trace stream.
    if (!write_file(span_path, pnm::obs::export_chrome_trace(), "span trace"))
      return 1;
  }
  return rc;
}
