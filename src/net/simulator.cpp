#include "net/simulator.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

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
      radios_(topo.node_count()) {}

void Simulator::set_node_handler(NodeId id, NodeHandler handler) {
  handlers_.at(id) = std::move(handler);
}

void Simulator::clear_node_handler(NodeId id) { handlers_.at(id) = nullptr; }

void Simulator::isolate(NodeId id) {
  isolated_.at(id) = true;
  // The node's radio goes silent immediately: whatever it had queued for
  // transmission is discarded (and counted), never sent. Without this the
  // backlog of a just-isolated mole would still leak onto the air.
  Radio& r = radios_[id];
  for (std::uint32_t h = r.head; h != kNoSlot;) {
    std::uint32_t next = packets_[h].next;
    drop(h, packets_isolated_dropped_);
    h = next;
  }
  r.head = r.tail = kNoSlot;
  r.queued = 0;
}

void Simulator::schedule(double delay_s, std::function<void()> fn) {
  assert(delay_s >= 0.0);
  std::uint32_t slot = calls_.alloc();
  calls_[slot] = std::move(fn);
  calq_.push({now_ + delay_s, next_order_++, slot, SimEventKind::kCall});
}

void Simulator::inject(NodeId origin, Packet packet) {
  if (isolated_.at(origin)) return;
  NodeId next = routing_->next_hop(origin);
  if (next == kInvalidNode) {
    ++packets_unroutable_;
    return;
  }
  std::uint32_t h = packets_.alloc();
  packets_[h].packet = std::move(packet);
  transmit(origin, next, h);
}

void Simulator::transmit(NodeId from, NodeId to, std::uint32_t h) {
  assert(topo_.are_neighbors(from, to));
  Radio& r = radios_[from];
  // A node that isolated itself from inside its own handler has no radio.
  if (isolated_[from]) return drop(h, packets_isolated_dropped_);
  if (r.queued >= queue_capacity_) return drop(h, packets_queue_dropped_);
  InFlight& f = packets_[h];
  f.to = to;
  f.next = kNoSlot;
  if (r.tail == kNoSlot) {
    r.head = h;
  } else {
    packets_[r.tail].next = h;
  }
  r.tail = h;
  ++r.queued;
  if (now_ < r.busy_until) {
    push_radio_free(from);  // the packet waits: the radio-free event is due
    return;
  }
  pump_tx(from);
}

void Simulator::push_radio_free(NodeId node) {
  Radio& r = radios_[node];
  if (r.free_pushed) return;
  r.free_pushed = true;
  calq_.push({r.busy_until, r.free_order, node, SimEventKind::kRadioFree});
}

void Simulator::pump_tx(NodeId from) {
  // The radio serializes: one transmission at a time per node. An isolated
  // node's queue was emptied at isolate() time.
  Radio& r = radios_[from];
  if (r.head == kNoSlot || now_ < r.busy_until) return;

  const std::uint32_t h = r.head;
  InFlight& f = packets_[h];
  r.head = f.next;
  if (r.head == kNoSlot) r.tail = kNoSlot;
  --r.queued;

  const std::size_t bytes = f.packet.wire_size();
  f.wire_bytes = static_cast<std::uint32_t>(bytes);
  f.from = from;
  energy_.on_transmit(from, bytes);
  const double tx_time = link_.tx_time_s(bytes);
  const double latency = link_.hop_latency_s(bytes);
  // Reserve the radio-free event's (time, order) now, in the schedule
  // sequence where an eager push would have taken it; push it only if a
  // packet is already waiting (otherwise transmit() pushes it on demand).
  r.busy_until = now_ + tx_time;
  r.free_order = next_order_++;
  r.free_pushed = false;
  last_radio_free_ = std::max(last_radio_free_, r.busy_until);
  if (r.head != kNoSlot) push_radio_free(from);

  if (!link_.delivers(rng_)) {
    sim_lost_counter().add();
    return drop(h, packets_lost_);
  }
  calq_.push({now_ + latency, next_order_++, h, SimEventKind::kArrive});
}

void Simulator::arrive(std::uint32_t h) {
  InFlight& f = packets_[h];
  const NodeId at = f.to;
  if (isolated_[at]) return drop(h, packets_isolated_dropped_);
  energy_.on_receive(at, f.wire_bytes);
  Packet& packet = f.packet;
  packet.arrived_from = f.from;

  if (at == kSinkId) {
    ++packets_delivered_;
    sim_delivered_counter().add();
    if (delivery_tap_) delivery_tap_(packet, now_);
    if (sink_handler_) sink_handler_(std::move(packet), now_);
    packets_.release(h);
    return;
  }

  // The slab is address-stable: `packet` survives the handler injecting.
  if (handlers_[at] && !handlers_[at](packet, at)) return drop(h, packets_node_dropped_);

  NodeId next = routing_->next_hop(at);
  if (next == kInvalidNode) return drop(h, packets_node_dropped_);
  // The sink learns its radio-layer previous hop for free: it can observe
  // who transmitted the final hop. Record it before the last transmission.
  if (next == kSinkId) packet.delivered_by = at;
  transmit(at, next, h);
}

bool Simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (!calq_.empty()) {
    if (processed++ >= max_events) return false;
    const EventRef ev = calq_.pop();
    assert(ev.time + 1e-12 >= now_);
    now_ = ev.time;
    ++events_processed_;
    switch (ev.kind) {
      case SimEventKind::kRadioFree:
        pump_tx(static_cast<NodeId>(ev.id));
        break;
      case SimEventKind::kArrive:
        arrive(ev.id);
        break;
      case SimEventKind::kCall: {
        // Run in place (the slab does not move it if the callback schedules
        // more), then free the closure's captures with the slot.
        std::function<void()>& fn = calls_[ev.id];
        fn();
        fn = nullptr;
        calls_.release(ev.id);
        break;
      }
    }
  }
  // Radio-free events nobody waited for were never pushed; the clock still
  // ends where dispatching them would have left it.
  now_ = std::max(now_, last_radio_free_);
  // Every packet is delivered or dropped once no event is left: a queued
  // packet always has its radio-free event pending.
  assert(packets_.live() == 0 && calls_.live() == 0);
  return true;
}

}  // namespace pnm::net
