#include "core/protocol.h"

namespace pnm::core {

Deployment::Deployment(net::Simulator& sim, const marking::MarkingScheme& scheme,
                       const crypto::KeyStore& keys, attack::Scenario& scenario,
                       std::uint64_t seed)
    : sim_(sim),
      scheme_(scheme),
      keys_(keys),
      scenario_(scenario),
      ring_(keys, scenario.moles),
      master_rng_(seed),
      source_rng_(master_rng_.fork(0xD00D)),
      mole_rng_(master_rng_.fork(0xBADD)) {}

void Deployment::install() {
  const net::Topology& topo = sim_.topology();
  for (NodeId v = 1; v < topo.node_count(); ++v) {
    attack::MoleBehavior* extra = nullptr;
    for (auto& [node, behavior] : scenario_.extra_forwarders)
      if (node == v) extra = behavior.get();
    if (extra) {
      sim_.set_node_handler(v, [this, extra](net::Packet& p, NodeId self) {
        attack::MoleContext ctx{self, &scheme_, &ring_, &mole_rng_};
        return extra->on_forward(p, ctx) != attack::ForwardAction::kDrop;
      });
      continue;
    }
    if (v == scenario_.forwarder && scenario_.forwarder_mole) {
      sim_.set_node_handler(v, [this](net::Packet& p, NodeId self) {
        attack::MoleContext ctx{self, &scheme_, &ring_, &mole_rng_};
        return scenario_.forwarder_mole->on_forward(p, ctx) != attack::ForwardAction::kDrop;
      });
      continue;
    }
    if (v == scenario_.source) {
      // The source mole relays other traffic without marking: leaving honest
      // marks would hand the sink its identity. No handler forwards as is.
      sim_.clear_node_handler(v);
      continue;
    }
    // Legitimate forwarder: mark with own key and an independent stream;
    // each mark's hashing is charged to the node's CPU energy budget.
    Rng node_rng = master_rng_.fork(0x1000u + v);
    sim_.set_node_handler(v, [this, node_rng](net::Packet& p, NodeId self) mutable {
      std::size_t before = p.marks.size();
      scheme_.mark(p, self, keys_.key_unchecked(self), node_rng);
      std::size_t added = p.marks.size() - before;
      if (added) sim_.energy().on_compute(self, added * scheme_.hashes_per_mark());
      return true;
    });
  }
}

void Deployment::inject_bogus() {
  attack::MoleContext ctx{scenario_.source, &scheme_, &ring_, &source_rng_};
  net::Packet p = scenario_.source_mole->make_packet(ctx);
  ++injected_;
  sim_.inject(scenario_.source, std::move(p));
}

void Deployment::inject_legit(NodeId origin, const net::Report& report) {
  net::Packet p;
  p.report = report.encode();
  p.true_source = origin;
  p.bogus = false;
  ++injected_;
  sim_.inject(origin, std::move(p));
}

}  // namespace pnm::core
