#include "core/campaign.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/protocol.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/simulator.h"
#include "obs/provenance.h"
#include "sink/catcher.h"
#include "trace/writer.h"

namespace pnm::core {

namespace {

bool any_mole_in(const std::vector<NodeId>& suspects, const std::vector<NodeId>& moles) {
  return std::any_of(suspects.begin(), suspects.end(), [&](NodeId s) {
    return std::find(moles.begin(), moles.end(), s) != moles.end();
  });
}

/// Campaign parameters as trace-header metadata, plus a digest binding them:
/// a replay refuses nothing (metadata is advisory) but can detect drift.
trace::TraceMeta campaign_trace_meta(const ChainExperimentConfig& cfg) {
  trace::TraceMeta meta;
  meta.set_u64(trace::kMetaSeed, cfg.seed);
  meta.set_u64(trace::kMetaForwarders, cfg.forwarders);
  meta.set(trace::kMetaScheme, std::string(marking::scheme_kind_name(cfg.protocol.scheme)));
  meta.set(trace::kMetaAttack, std::string(attack::attack_kind_name(cfg.attack)));
  char prob[32];
  std::snprintf(prob, sizeof(prob), "%.17g",
                cfg.protocol.probability_for_path(cfg.forwarders));
  meta.set(trace::kMetaMarkProbability, prob);
  meta.set_u64(trace::kMetaMacLen, cfg.protocol.mac_len);
  meta.set_u64(trace::kMetaAnonLen, cfg.protocol.anon_len);
  crypto::Sha256Digest d = crypto::Sha256::hash(meta.encode());
  meta.set(trace::kMetaConfigDigest, to_hex(ByteView(d.data(), d.size())));
  return meta;
}

}  // namespace

Bytes campaign_master_secret(std::uint64_t seed) {
  ByteWriter w;
  w.raw(ByteView(reinterpret_cast<const std::uint8_t*>("pnm-master"), 10));
  w.u64(seed);
  return std::move(w).take();
}

std::optional<CampaignWorld> decode_campaign(const trace::TraceMeta& meta,
                                             std::string* error) {
  auto fail = [&](std::string why) -> std::optional<CampaignWorld> {
    if (error) *error = std::move(why);
    return std::nullopt;
  };
  auto seed = meta.get_u64(trace::kMetaSeed);
  auto forwarders = meta.get_u64(trace::kMetaForwarders);
  auto scheme_name = meta.get(trace::kMetaScheme);
  if (!seed || !forwarders || !scheme_name)
    return fail("trace header missing campaign metadata (seed/forwarders/scheme)");
  if (*forwarders < 2 || *forwarders > 60000)
    return fail("implausible forwarder count in trace header");
  auto kind = marking::scheme_kind_by_name(*scheme_name);
  if (!kind) return fail("unknown scheme '" + *scheme_name + "' in trace header");

  marking::SchemeConfig scfg;
  if (auto prob = meta.get(trace::kMetaMarkProbability)) {
    char* end = nullptr;
    scfg.mark_probability = std::strtod(prob->c_str(), &end);
    if (prob->empty() || end != prob->c_str() + prob->size() ||
        !(scfg.mark_probability >= 0.0 && scfg.mark_probability <= 1.0))
      return fail("malformed mark probability in trace header");
  }
  // Both widths are truncations of one HMAC-SHA256 output.
  auto width = [&](const char* key, std::size_t& out) {
    if (!meta.get(key)) return true;
    auto v = meta.get_u64(key);
    if (!v || *v < 1 || *v > crypto::kSha256DigestSize) return false;
    out = static_cast<std::size_t>(*v);
    return true;
  };
  if (!width(trace::kMetaMacLen, scfg.mac_len))
    return fail("malformed MAC length in trace header");
  if (!width(trace::kMetaAnonLen, scfg.anon_len))
    return fail("malformed anonymous-ID length in trace header");

  net::Topology topo = net::Topology::chain(static_cast<std::size_t>(*forwarders));
  crypto::KeyStore keys(campaign_master_secret(*seed), topo.node_count());
  return CampaignWorld{*seed, *kind, std::move(topo), std::move(keys),
                       marking::make_scheme(*kind, scfg)};
}

std::string campaign_id_from_meta(const trace::TraceMeta& meta) {
  // Only the keys decode_campaign reads participate; recorder provenance
  // keys (attack, config_digest, ...) differ across traces of the same
  // campaign and must not.
  std::string id;
  auto add = [&](const char* key) {
    id += key;
    id += '=';
    id += meta.get(key).value_or("?");
    id += ';';
  };
  add(trace::kMetaSeed);
  add(trace::kMetaForwarders);
  add(trace::kMetaScheme);
  add(trace::kMetaMarkProbability);
  add(trace::kMetaMacLen);
  add(trace::kMetaAnonLen);
  return id;
}

ChainExperimentResult run_chain_experiment(const ChainExperimentConfig& cfg,
                                           const PacketObserver& observer) {
  assert(cfg.forwarders >= 2);
  net::Topology topo = net::Topology::chain(cfg.forwarders);
  net::RoutingTable routing(topo, net::RoutingStrategy::kTree);
  NodeId source = static_cast<NodeId>(cfg.forwarders + 1);

  crypto::KeyStore keys(campaign_master_secret(cfg.seed), topo.node_count());
  auto scheme = marking::make_scheme(cfg.protocol.scheme,
                                     cfg.protocol.scheme_config(cfg.forwarders));

  std::size_t offset =
      cfg.forwarder_offset ? cfg.forwarder_offset : (cfg.forwarders / 2 + 1);
  attack::Scenario scenario =
      attack::make_scenario(cfg.attack, topo, routing, source, offset);

  net::LinkModel link;
  link.loss_probability = cfg.link_loss;
  net::Simulator sim(topo, routing, link, net::EnergyModel{}, cfg.seed ^ 0x51517171ULL);

  Deployment deployment(sim, *scheme, keys, scenario, cfg.seed ^ 0xDEAD10CCULL);
  deployment.install();

  sink::TracebackEngine engine(*scheme, keys, topo);
  sim.set_sink_handler([&](net::Packet&& p, double) {
    // Simulator delivery is a record's first provenance stage: the same
    // content hash replays/serves compute, so a traced record here is the
    // traced record everywhere downstream.
    obs::prov_emit(
        obs::ProvenanceCollector::global().admit(p.report, p.delivered_by),
        engine.packets_ingested(), obs::ProvStage::kDeliver, 0, p.marks.size());
    engine.ingest(p);
    if (observer) observer(engine.packets_ingested(), engine);
  });

  std::unique_ptr<trace::TraceWriter> recorder;
  if (!cfg.record_path.empty()) {
    recorder =
        std::make_unique<trace::TraceWriter>(cfg.record_path, campaign_trace_meta(cfg));
    sim.set_delivery_tap(
        [&recorder](const net::Packet& p, double t) { recorder->append(p, t); });
  }

  // Paced injection: one bogus packet every injection_interval_s.
  std::function<void()> pump = [&]() {
    if (deployment.injected() >= cfg.packets) return;
    deployment.inject_bogus();
    sim.schedule(cfg.injection_interval_s, pump);
  };
  sim.schedule(0.0, pump);
  bool drained = sim.run();
  assert(drained);
  (void)drained;

  ChainExperimentResult out;
  out.packets_injected = deployment.injected();
  out.packets_delivered = engine.packets_ingested();
  out.final_analysis = engine.analysis();
  out.packets_to_identify = engine.packets_to_identification();
  out.markers_seen = engine.markers_seen();
  out.marks_verified = engine.marks_verified();
  out.v1 = routing.path_to_sink(source).at(1);
  out.moles = scenario.moles;
  out.mole_in_suspects =
      out.final_analysis.identified && any_mole_in(out.final_analysis.suspects, out.moles);
  out.correct_source_neighborhood =
      out.final_analysis.identified && out.final_analysis.stop_node == out.v1;
  out.sim_duration_s = sim.now();
  out.total_energy_uj = sim.energy().total_energy_uj();
  out.packets_dropped_links = sim.packets_dropped_by_links();
  out.packets_dropped_nodes = sim.packets_dropped_by_nodes();
  out.packets_dropped_queues = sim.packets_dropped_by_queues();
  out.packets_dropped_isolated = sim.packets_dropped_isolated();
  if (recorder) {
    recorder->flush();
    out.records_recorded = recorder->records_written();
  }
  return out;
}

CatchCampaignResult run_catch_campaign(const CatchCampaignConfig& cfg) {
  net::Topology topo = cfg.field == FieldKind::kChain
                           ? net::Topology::chain(cfg.forwarders)
                           : net::Topology::grid(cfg.grid_width, cfg.grid_height,
                                                 cfg.grid_range);
  NodeId source = static_cast<NodeId>(topo.node_count() - 1);

  crypto::KeyStore keys(campaign_master_secret(cfg.seed), topo.node_count());

  CatchCampaignResult result;
  std::vector<bool> isolated(topo.node_count(), false);
  std::vector<NodeId> remaining_moles;  // filled from the first scenario
  bool first_phase = true;
  attack::AttackKind attack = cfg.attack;
  std::size_t budget = cfg.max_packets;
  std::uint64_t phase_seed = cfg.seed;

  while (budget > 0) {
    net::RoutingTable routing(topo, net::RoutingStrategy::kTree, isolated);
    if (!routing.has_route(source)) {
      result.attack_neutralized = true;
      break;
    }
    std::vector<NodeId> path = routing.path_to_sink(source);
    std::size_t hops = path.size() - 2;  // forwarders between source and sink
    if (hops < 2) {
      // Source adjacent to the sink: its neighborhood is trivially known.
      result.attack_neutralized = true;
      break;
    }

    auto scheme =
        marking::make_scheme(cfg.protocol.scheme, cfg.protocol.scheme_config(hops));
    std::size_t offset = cfg.forwarder_offset ? cfg.forwarder_offset : (hops / 2 + 1);
    attack::Scenario scenario =
        attack::make_scenario(attack, topo, routing, source, offset);
    if (first_phase) {
      remaining_moles = scenario.moles;
      first_phase = false;
    } else {
      scenario.moles = remaining_moles;  // ground truth persists across phases
    }

    net::Simulator sim(topo, routing, net::LinkModel{}, net::EnergyModel{},
                       phase_seed ^ 0x5151ULL);
    for (NodeId v = 0; v < topo.node_count(); ++v)
      if (isolated[v]) sim.isolate(v);

    Deployment deployment(sim, *scheme, keys, scenario, phase_seed ^ 0xD0D0ULL);
    deployment.install();

    sink::TracebackEngine engine(*scheme, keys, topo);
    bool stop_injection = false;
    std::optional<sink::CatchOutcome> catch_outcome;
    std::size_t wasted = 0;
    std::set<NodeId> attempted_stops;
    NodeId stable_stop = kInvalidNode;
    std::size_t stable_for = 0;

    sim.set_sink_handler([&](net::Packet&& p, double) {
      engine.ingest(p);
      const sink::RouteAnalysis& analysis = engine.analysis();
      if (!analysis.identified || stop_injection) {
        stable_stop = kInvalidNode;
        stable_for = 0;
        return;
      }
      if (analysis.stop_node == stable_stop) {
        ++stable_for;
      } else {
        stable_stop = analysis.stop_node;
        stable_for = 1;
      }
      if (stable_for < cfg.stability_window) return;
      if (attempted_stops.count(analysis.stop_node)) return;
      attempted_stops.insert(analysis.stop_node);
      auto outcome = sink::resolve_catch(analysis, remaining_moles);
      if (outcome) {
        catch_outcome = outcome;
        stop_injection = true;
      } else {
        // Innocent neighborhood inspected: cost paid, keep listening.
        wasted += analysis.suspects.size();
      }
    });

    std::function<void()> pump = [&]() {
      if (stop_injection || deployment.injected() >= budget) return;
      deployment.inject_bogus();
      sim.schedule(cfg.injection_interval_s, pump);
    };
    sim.schedule(0.0, pump);
    sim.run();

    budget -= std::min(budget, deployment.injected());
    result.total_bogus_injected += deployment.injected();
    result.total_bogus_delivered += engine.packets_ingested();
    result.total_energy_uj += sim.energy().total_energy_uj();
    result.total_time_s += sim.now();

    if (!catch_outcome) break;  // budget exhausted without identification

    CatchPhase phase;
    phase.caught = catch_outcome->mole;
    phase.inspections = catch_outcome->inspections;
    phase.wasted_inspections = wasted;
    phase.bogus_delivered = engine.packets_ingested();
    phase.duration_s = sim.now();
    phase.energy_uj = sim.energy().total_energy_uj();
    phase.via_loop = engine.analysis().via_loop;
    result.phases.push_back(phase);

    isolated[catch_outcome->mole] = true;
    std::erase(remaining_moles, catch_outcome->mole);
    phase_seed = phase_seed * 0x9e3779b97f4a7c15ULL + 1;

    if (remaining_moles.empty()) {
      result.all_moles_caught = true;
      result.attack_neutralized = true;
      break;
    }
    if (std::find(remaining_moles.begin(), remaining_moles.end(), source) ==
        remaining_moles.end()) {
      // Only forwarding moles remain but the injection source is gone:
      // nothing left to trace.
      result.attack_neutralized = true;
      break;
    }
    // A forwarding mole was caught; the source keeps injecting. If the
    // forwarder is gone the collusion degrades to source-only.
    if (catch_outcome->mole != source) attack = attack::AttackKind::kSourceOnly;
  }
  return result;
}

}  // namespace pnm::core
