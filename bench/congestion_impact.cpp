// Bandwidth-waste quantification (§1, §2.2: injected traffic "wastes energy
// and bandwidth resources along the forwarding path").
//
// A grid field carries periodic legitimate reports from every node while a
// corner mole floods bogus traffic through finite radio queues. Three
// postures:
//   quiet      — no attack: baseline delivery and latency;
//   attacked   — mole floods for the whole window, no defense;
//   pnm        — same flood, but the sink traces and isolates the mole as
//                soon as the PNM identification stabilizes.
// Reported: legitimate delivery ratio, mean legitimate latency, bogus load
// carried, and energy — the service-restoration story behind the paper's
// "fight back" framing.
#include <cstdio>

#include "bench_util.h"
#include "core/protocol.h"
#include "crypto/keys.h"
#include "net/simulator.h"
#include "sink/catcher.h"
#include "sink/traceback.h"
#include "util/stats.h"

namespace {

struct Outcome {
  double legit_delivery_ratio = 0;
  double legit_latency_ms = 0;
  std::size_t bogus_delivered = 0;
  std::size_t queue_drops = 0;
  double energy_mj = 0;
  double mole_caught_at_s = -1.0;
};

Outcome run(bool attack, bool defend, std::uint64_t seed) {
  namespace net = pnm::net;
  net::Topology topo = net::Topology::grid(8, 8, 1.5);
  net::RoutingTable routing(topo, net::RoutingStrategy::kTree);
  pnm::crypto::KeyStore keys(pnm::Bytes{0xC0}, topo.node_count());

  
  pnm::NodeId mole = static_cast<pnm::NodeId>(topo.node_count() - 1);
  std::size_t hops = routing.hops_to_sink(mole) - 1;
  pnm::marking::SchemeConfig cfg;
  cfg.mark_probability = std::min(1.0, 3.0 / static_cast<double>(hops));
  auto scheme = pnm::marking::make_scheme(pnm::marking::SchemeKind::kPnm, cfg);

  net::Simulator sim(topo, routing, net::LinkModel{}, net::EnergyModel{}, seed);
  sim.set_queue_capacity(6);

  for (pnm::NodeId v = 1; v < topo.node_count(); ++v) {
    if (v == mole) continue;
    pnm::Rng node_rng(5000 + v);
    sim.set_node_handler(v, [&, node_rng](net::Packet& p, pnm::NodeId self) mutable {
      scheme->mark(p, self, keys.key_unchecked(self), node_rng);
      return true;
    });
  }

  pnm::sink::TracebackEngine engine(*scheme, keys, topo);
  std::size_t legit_sent = 0, legit_ok = 0, bogus_ok = 0;
  pnm::Accumulator latency;
  Outcome out;
  bool isolated = false;
  pnm::NodeId stable_stop = pnm::kInvalidNode;
  std::size_t stable_for = 0;
  sim.set_sink_handler([&](net::Packet&& p, double t) {
    if (!p.bogus) {
      ++legit_ok;
      auto report = net::Report::decode(p.report);
      if (report)
        latency.add(t - static_cast<double>(report->timestamp) * 1e-6);
      return;
    }
    ++bogus_ok;
    if (!defend || isolated) return;
    engine.ingest(p);
    // Dispatch the task force only once the identification has been stable
    // for 10 suspicious packets (as in the catch campaign driver).
    if (!engine.analysis().identified) {
      stable_for = 0;
      return;
    }
    if (engine.analysis().stop_node == stable_stop) {
      ++stable_for;
    } else {
      stable_stop = engine.analysis().stop_node;
      stable_for = 1;
    }
    if (stable_for < 10) return;
    auto outcome = pnm::sink::resolve_catch(engine.analysis(), {mole});
    if (outcome) {
      sim.isolate(outcome->mole);
      isolated = true;
      out.mole_caught_at_s = t;
    }
  });

  // 30 seconds of operation. Every honest node reports once per 4 s
  // (staggered); the mole floods ~90 bogus packets per second.
  const double window_s = 30.0;
  pnm::Rng jitter(seed ^ 0x77);
  for (pnm::NodeId v = 1; v < topo.node_count(); ++v) {
    if (v == mole) continue;
    double phase = jitter.next_double() * 4.0;
    for (double t = phase; t < window_s; t += 4.0) {
      sim.schedule(t, [&, v, t] {
        net::Packet p;
        net::Report r;
        r.event = 1000 + v;
        r.loc_x = static_cast<std::uint16_t>(topo.position(v).x);
        r.loc_y = static_cast<std::uint16_t>(topo.position(v).y);
        r.timestamp = static_cast<std::uint64_t>(sim.now() * 1e6);
        p.report = r.encode();
        p.true_source = v;
        ++legit_sent;
        sim.inject(v, std::move(p));
      });
    }
  }
  if (attack) {
    net::BogusReportFactory factory(7, 7);
    for (double t = 0.0; t < window_s; t += 0.011) {  // ~90 pkt/s flood
      sim.schedule(t, [&, t] {
        net::Packet p;
        p.report = factory.next().encode();
        p.true_source = mole;
        p.bogus = true;
        sim.inject(mole, std::move(p));
      });
    }
  }
  sim.run();

  out.legit_delivery_ratio =
      legit_sent ? static_cast<double>(legit_ok) / static_cast<double>(legit_sent) : 0.0;
  out.legit_latency_ms = latency.mean() * 1000.0;
  out.bogus_delivered = bogus_ok;
  out.queue_drops = sim.packets_dropped_by_queues();
  out.energy_mj = sim.energy().total_energy_uj() / 1000.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using pnm::Table;
  auto args = pnm::bench::parse_args(argc, argv);

  Table t({"posture", "legit delivery", "legit latency (ms)", "bogus delivered",
           "queue drops", "energy (mJ)", "mole caught at (s)"});
  t.set_title("Congestion impact: 8x8 grid, finite radio queues, 30 s window, "
              "mole flooding ~90 pkt/s");

  struct Case {
    const char* name;
    bool attack, defend;
  };
  for (const Case& c : {Case{"quiet", false, false}, Case{"attacked", true, false},
                        Case{"pnm", true, true}}) {
    Outcome o = run(c.attack, c.defend, args.seed);
    t.add_row({c.name, Table::num(100.0 * o.legit_delivery_ratio, 1) + "%",
               Table::num(o.legit_latency_ms, 1), Table::num(o.bogus_delivered),
               Table::num(o.queue_drops), Table::num(o.energy_mj, 1),
               o.mole_caught_at_s < 0 ? "-" : Table::num(o.mole_caught_at_s, 1)});
  }
  pnm::bench::emit(t, args);
  std::printf("shape: the flood congests the sink-side funnel (drops + latency for "
              "legitimate reports);\nPNM ends it within seconds and service returns "
              "to the quiet baseline for the rest of the window\n");
  return 0;
}
