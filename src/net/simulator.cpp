#include "net/simulator.h"

#include <cassert>

#include "obs/metrics.h"
#include "util/log.h"

namespace pnm::net {

namespace {
// Radio-layer delivery telemetry on the global registry. Cached references:
// the registry lookup happens once, the per-packet cost is one relaxed add.
obs::Counter& sim_delivered_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("sim_packets_delivered");
  return c;
}
obs::Counter& sim_lost_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("sim_packets_lost");
  return c;
}
}  // namespace

Simulator::Simulator(const Topology& topo, const RoutingTable& routing, LinkModel link,
                     EnergyModel energy, std::uint64_t seed)
    : topo_(topo),
      routing_(&routing),
      link_(link),
      energy_(topo.node_count(), energy),
      rng_(seed),
      handlers_(topo.node_count()),
      isolated_(topo.node_count(), false),
      txq_(topo.node_count()),
      busy_until_(topo.node_count(), 0.0) {}

void Simulator::set_node_handler(NodeId id, NodeHandler handler) {
  handlers_.at(id) = std::move(handler);
}

void Simulator::clear_node_handler(NodeId id) { handlers_.at(id) = nullptr; }

void Simulator::isolate(NodeId id) {
  isolated_.at(id) = true;
  // The node's radio goes silent immediately: whatever it had queued for
  // transmission is discarded (and counted), never sent. Without this the
  // backlog of a just-isolated mole would still leak onto the air.
  std::queue<PendingTx>& q = txq_[id];
  packets_isolated_dropped_ += q.size();
  while (!q.empty()) q.pop();
}

void Simulator::schedule(double delay_s, std::function<void()> fn) {
  assert(delay_s >= 0.0);
  std::uint32_t slot = arena_.alloc();
  SimEventNode& node = arena_[slot];
  node.kind = SimEventKind::kCall;
  node.fn = std::move(fn);
  calq_.push(now_ + delay_s, next_order_++, slot);
}

void Simulator::schedule_pump(double delay_s, NodeId from) {
  std::uint32_t slot = arena_.alloc();
  SimEventNode& node = arena_[slot];
  node.kind = SimEventKind::kPumpTx;
  node.a = from;
  calq_.push(now_ + delay_s, next_order_++, slot);
}

void Simulator::schedule_arrive(double delay_s, NodeId at, NodeId from,
                                Packet packet) {
  std::uint32_t slot = arena_.alloc();
  SimEventNode& node = arena_[slot];
  node.kind = SimEventKind::kArrive;
  node.a = at;
  node.b = from;
  node.packet = std::move(packet);
  calq_.push(now_ + delay_s, next_order_++, slot);
}

void Simulator::inject(NodeId origin, Packet packet) {
  if (isolated_.at(origin)) return;
  NodeId next = routing_->next_hop(origin);
  if (next == kInvalidNode) {
    PNM_WARN << "inject: node " << origin << " has no route to the sink";
    return;
  }
  transmit(origin, next, std::move(packet));
}

void Simulator::transmit(NodeId from, NodeId to, Packet packet) {
  assert(topo_.are_neighbors(from, to));
  if (txq_[from].size() >= queue_capacity_) {
    ++packets_queue_dropped_;
    return;
  }
  txq_[from].push(PendingTx{to, std::move(packet)});
  pump_tx(from);
}

void Simulator::pump_tx(NodeId from) {
  // The radio serializes: one transmission at a time per node. An isolated
  // node's queue was drained at isolate() time; stay silent regardless.
  if (isolated_[from] || txq_[from].empty() || now_ < busy_until_[from]) return;

  PendingTx tx = std::move(txq_[from].front());
  txq_[from].pop();
  std::size_t bytes = tx.packet.wire_size();
  energy_.on_transmit(from, bytes);
  double tx_time = link_.tx_time_s(bytes);
  double latency = link_.hop_latency_s(bytes);
  busy_until_[from] = now_ + tx_time;
  schedule_pump(tx_time, from);

  if (!link_.delivers(rng_)) {
    ++packets_lost_;
    sim_lost_counter().add();
    return;
  }
  schedule_arrive(latency, tx.to, from, std::move(tx.packet));
}

void Simulator::arrive(NodeId at, NodeId from, Packet packet) {
  if (isolated_.at(at)) {
    ++packets_isolated_dropped_;
    return;
  }
  energy_.on_receive(at, packet.wire_size());
  packet.arrived_from = from;

  if (at == kSinkId) {
    ++packets_delivered_;
    sim_delivered_counter().add();
    if (delivery_tap_) delivery_tap_(packet, now_);
    if (sink_handler_) sink_handler_(std::move(packet), now_);
    return;
  }

  std::optional<Packet> out;
  if (handlers_[at]) {
    out = handlers_[at](std::move(packet), at);
  } else {
    out = std::move(packet);
  }
  if (!out) {
    ++packets_node_dropped_;
    return;
  }

  NodeId next = routing_->next_hop(at);
  if (next == kInvalidNode) {
    ++packets_node_dropped_;
    return;
  }
  // The sink learns its radio-layer previous hop for free: it can observe
  // who transmitted the final hop. Record it before the last transmission.
  if (next == kSinkId) out->delivered_by = at;
  transmit(at, next, std::move(*out));
}

bool Simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (!calq_.empty()) {
    if (processed++ >= max_events) {
      PNM_ERROR << "simulator: event budget exhausted (" << max_events << ")";
      return false;
    }
    EventRef ref = calq_.pop();
    assert(ref.time + 1e-12 >= now_);
    now_ = ref.time;
    ++events_processed_;
    // Move the payload out and recycle the slot BEFORE dispatching: the
    // handler will schedule new events, which may grow the arena slab and
    // invalidate `node`.
    SimEventNode& node = arena_[ref.slot];
    SimEventKind kind = node.kind;
    NodeId a = node.a;
    NodeId b = node.b;
    Packet packet;
    std::function<void()> fn;
    if (kind == SimEventKind::kArrive) {
      packet = std::move(node.packet);
    } else if (kind == SimEventKind::kCall) {
      fn = std::move(node.fn);
    }
    arena_.release(ref.slot);
    switch (kind) {
      case SimEventKind::kPumpTx:
        pump_tx(a);
        break;
      case SimEventKind::kArrive:
        arrive(a, b, std::move(packet));
        break;
      case SimEventKind::kCall:
        fn();
        break;
    }
  }
  return true;
}

}  // namespace pnm::net
