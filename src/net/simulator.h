// Deterministic discrete-event simulator for the sensor field.
//
// A packet injected at a node hops along the routing table toward the sink.
// At every intermediate node a NodeHandler (installed by the protocol layer)
// transforms the packet in place — a legitimate node runs the marking scheme,
// a mole runs its attack behavior, and either may drop it. Per-hop latency
// follows the link model (serialization at 19.2 kbps + processing), links
// may lose packets, and every transmission/reception is charged to the
// energy ledger. All randomness comes from one seeded stream, so runs are
// reproducible.
//
// An in-flight packet lives in one slot of an address-stable slab from
// inject() until it is delivered or dropped; events and the per-node
// transmit FIFOs (intrusive lists through the slots) carry the slot's u32
// handle. Every drop path releases the slot.
//
// Radio-free events are lazy. Starting a transmission reserves the
// radio-free event's (time, order) — order is taken from the schedule
// counter right then — but pushes it only once a packet waits behind the
// busy radio. An event that would find the queue empty is never pushed, and
// the pop order of the events that are pushed is unchanged, so handler
// order, RNG draws and every result are bit-identical to pushing them all.
// The one thing an unpushed event did was advance the clock, so when the
// event queue drains, now() moves to the latest radio-free time.
#pragma once

#include <cstdint>
#include <functional>

#include "net/energy.h"
#include "net/event_queue.h"
#include "net/link.h"
#include "net/report.h"
#include "net/routing.h"
#include "net/topology.h"
#include "util/rng.h"

namespace pnm::net {

/// Node-side packet transform: modify the packet in place and return true to
/// forward it to the next hop, or false to drop it. The reference stays
/// valid for the whole call, even if the handler injects new packets.
using NodeHandler = std::function<bool(Packet&, NodeId self)>;

/// Invoked when a packet reaches the sink (delivered_by already filled in).
using SinkHandler = std::function<void(Packet&&, double time_s)>;

/// Read-only observer of every sink delivery, invoked before the sink
/// handler consumes the packet. The recording tap for trace capture.
using DeliveryTap = std::function<void(const Packet&, double time_s)>;

class Simulator {
 public:
  Simulator(const Topology& topo, const RoutingTable& routing, LinkModel link,
            EnergyModel energy, std::uint64_t seed);

  /// Installs a per-node transform; nodes without one forward unchanged.
  void set_node_handler(NodeId id, NodeHandler handler);
  void clear_node_handler(NodeId id);
  void set_sink_handler(SinkHandler handler) { sink_handler_ = std::move(handler); }

  /// Optional recording tap: sees every delivered packet (const) just before
  /// the sink handler runs. Used by the trace capture layer; null to disable.
  void set_delivery_tap(DeliveryTap tap) { delivery_tap_ = std::move(tap); }

  /// Administratively cuts a node off: it no longer receives or forwards
  /// anything. Models the "network isolation" punishment of caught moles.
  void isolate(NodeId id);
  bool is_isolated(NodeId id) const { return isolated_.at(id); }

  /// Queues a packet for transmission from `origin` at the current time.
  void inject(NodeId origin, Packet packet);

  /// Per-node transmit buffer depth. A node's radio serializes packets (one
  /// transmission at a time); packets arriving while it is busy queue up and
  /// overflow is dropped — how injection floods actually starve legitimate
  /// traffic. Default is effectively unbounded.
  void set_queue_capacity(std::size_t capacity) { queue_capacity_ = capacity; }
  std::size_t queue_capacity() const { return queue_capacity_; }

  /// Runs an arbitrary callback at now()+delay (e.g., periodic injection).
  void schedule(double delay_s, std::function<void()> fn);

  /// Drains the event queue. Returns false if max_events was hit (runaway
  /// protection), true when the queue emptied naturally; then now() is the
  /// later of the last event and the last radio going idle.
  bool run(std::size_t max_events = 10'000'000);

  /// Swap the routing table mid-run (§7 "Impact of Routing Dynamics"): the
  /// paper assumes stable routes during a traceback but notes PNM tolerates
  /// changes as long as relative upstream order is preserved. The new table
  /// must belong to the same topology and outlive the simulator.
  void set_routing(const RoutingTable& routing) { routing_ = &routing; }

  double now() const { return now_; }
  EnergyLedger& energy() { return energy_; }
  const EnergyLedger& energy() const { return energy_; }
  Rng& rng() { return rng_; }
  const Topology& topology() const { return topo_; }
  const RoutingTable& routing() const { return *routing_; }

  std::size_t packets_delivered() const { return packets_delivered_; }
  std::size_t packets_dropped_by_links() const { return packets_lost_; }
  std::size_t packets_dropped_by_nodes() const { return packets_node_dropped_; }
  std::size_t packets_dropped_by_queues() const { return packets_queue_dropped_; }
  /// Packets discarded because a node was administratively isolated: its
  /// queued transmissions drained at isolate() time plus receptions that
  /// arrived at it afterwards (and any packet a handler forwards after
  /// isolating its own node).
  std::size_t packets_dropped_isolated() const { return packets_isolated_dropped_; }
  /// inject() calls refused because the origin had no route to the sink;
  /// such a packet never enters the network.
  std::size_t packets_unroutable() const { return packets_unroutable_; }
  /// Total events dispatched across all run() calls. Radio-free events
  /// count only when a packet was waiting, so this is roughly one event
  /// per hop plus one per callback, not two per hop.
  std::size_t events_processed() const { return events_processed_; }

 private:
  /// One in-flight packet and the hop it is queued for or travelling on.
  struct InFlight {
    Packet packet;
    NodeId from = kInvalidNode;       ///< transmitter of the current hop
    NodeId to = kInvalidNode;         ///< receiver of the current hop
    std::uint32_t wire_bytes = 0;     ///< measured at tx start, charged to rx
    std::uint32_t next = kNoSlot;     ///< tx FIFO link
  };
  /// A node's radio: its transmit FIFO and the reserved radio-free event.
  struct Radio {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    std::size_t queued = 0;
    double busy_until = 0.0;
    std::uint64_t free_order = 0;  ///< order reserved at the last tx start
    bool free_pushed = false;      ///< that reservation is in the queue
  };
  /// Queues slot `h` at `from`'s radio for the hop to `to`.
  void transmit(NodeId from, NodeId to, std::uint32_t h);
  /// Starts the next queued transmission if the radio is idle.
  void pump_tx(NodeId from);
  void arrive(std::uint32_t h);
  /// Pushes the radio-free event reserved at the last tx start, once.
  void push_radio_free(NodeId node);
  void drop(std::uint32_t h, std::size_t& counter) {
    ++counter;
    packets_.release(h);
  }

  const Topology& topo_;
  const RoutingTable* routing_;
  LinkModel link_;
  EnergyLedger energy_;
  Rng rng_;
  double now_ = 0.0;
  double last_radio_free_ = 0.0;  ///< latest busy_until over all radios
  std::uint64_t next_order_ = 0;  // FIFO tiebreaker for simultaneous events
  Slab<InFlight> packets_;
  Slab<std::function<void()>> calls_;
  CalendarQueue calq_;
  std::vector<NodeHandler> handlers_;
  std::vector<bool> isolated_;
  SinkHandler sink_handler_;
  DeliveryTap delivery_tap_;
  std::size_t queue_capacity_ = SIZE_MAX;
  std::vector<Radio> radios_;
  std::size_t packets_delivered_ = 0;
  std::size_t packets_lost_ = 0;
  std::size_t packets_node_dropped_ = 0;
  std::size_t packets_queue_dropped_ = 0;
  std::size_t packets_isolated_dropped_ = 0;
  std::size_t packets_unroutable_ = 0;
  std::size_t events_processed_ = 0;
};

}  // namespace pnm::net
