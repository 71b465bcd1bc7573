// Deterministic discrete-event simulator for the sensor field.
//
// A packet injected at a node hops along the routing table toward the sink.
// At every intermediate node a NodeHandler (installed by the protocol layer)
// transforms the packet — a legitimate node runs the marking scheme, a mole
// runs its attack behavior, and either may drop it. Per-hop latency follows
// the link model (serialization at 19.2 kbps + processing), links may lose
// packets, and every transmission/reception is charged to the energy ledger.
// All randomness comes from one seeded stream, so runs are reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>

#include "net/energy.h"
#include "net/event_queue.h"
#include "net/link.h"
#include "net/report.h"
#include "net/routing.h"
#include "net/topology.h"
#include "util/rng.h"

namespace pnm::net {

/// Node-side packet transform: return the (possibly modified) packet to
/// forward it to the next hop, or nullopt to drop it.
using NodeHandler = std::function<std::optional<Packet>(Packet&&, NodeId self)>;

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
  /// protection), true when the queue emptied naturally.
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
  /// arrived at it afterwards.
  std::size_t packets_dropped_isolated() const { return packets_isolated_dropped_; }
  /// Total events dispatched across all run() calls (the benchmark axis).
  std::size_t events_processed() const { return events_processed_; }

 private:
  void transmit(NodeId from, NodeId to, Packet packet);
  void pump_tx(NodeId from);
  void arrive(NodeId at, NodeId from, Packet packet);
  void schedule_pump(double delay_s, NodeId from);
  void schedule_arrive(double delay_s, NodeId at, NodeId from, Packet packet);

  const Topology& topo_;
  const RoutingTable* routing_;
  LinkModel link_;
  EnergyLedger energy_;
  Rng rng_;
  double now_ = 0.0;
  std::uint64_t next_order_ = 0;  // FIFO tiebreaker for simultaneous events
  EventArena arena_;
  CalendarQueue calq_;
  std::vector<NodeHandler> handlers_;
  std::vector<bool> isolated_;
  SinkHandler sink_handler_;
  DeliveryTap delivery_tap_;
  struct PendingTx {
    NodeId to;
    Packet packet;
  };
  std::size_t queue_capacity_ = SIZE_MAX;
  std::vector<std::queue<PendingTx>> txq_;
  std::vector<double> busy_until_;
  std::size_t packets_delivered_ = 0;
  std::size_t packets_lost_ = 0;
  std::size_t packets_node_dropped_ = 0;
  std::size_t packets_queue_dropped_ = 0;
  std::size_t packets_isolated_dropped_ = 0;
  std::size_t events_processed_ = 0;
};

}  // namespace pnm::net
