#include "sink/traceback.h"

namespace pnm::sink {

TracebackEngine::TracebackEngine(const marking::MarkingScheme& scheme,
                                 const crypto::KeyStore& keys, const net::Topology& topo)
    : scheme_(scheme), keys_(keys), topo_(topo) {}

marking::VerifyResult TracebackEngine::ingest(const net::Packet& p) {
  marking::VerifyResult vr = scheme_.verify(p, keys_);
  fold(p, vr);
  return vr;
}

void TracebackEngine::fold(const net::Packet& p, const marking::VerifyResult& vr) {
  fold(p.delivered_by, vr);
}

void TracebackEngine::fold(NodeId delivered_by, const marking::VerifyResult& vr) {
  ++packets_;
  if (delivered_by != kInvalidNode) last_delivered_by_ = delivered_by;

  const std::size_t nodes_before = graph_.observed_count();
  const std::uint64_t closure_before = graph_.closure_version();

  for (std::size_t i = 0; i < vr.chain.size(); ++i) {
    graph_.observe(vr.chain[i].node);
    markers_seen_.insert(vr.chain[i].node);
    if (i > 0) graph_.add_order(vr.chain[i - 1].node, vr.chain[i].node);
  }
  marks_verified_ += vr.chain.size();

  // Re-analyze only when the packet taught the analysis something new: a
  // node, or a reachability pair. Most new direct edges on a long route are
  // already implied by the closure and change nothing analyze_route reads.
  if (graph_.observed_count() != nodes_before ||
      graph_.closure_version() != closure_before) {
    RouteAnalysis next = analyze_route(graph_, topo_);
    bool changed = next.identified != current_.identified ||
                   next.stop_node != current_.stop_node ||
                   next.via_loop != current_.via_loop;
    if (changed) {
      last_status_change_packet_ = packets_;
      if (next.identified && packets_to_accusation_) {
        packets_to_accusation_->record(packets_);
        accusations_->add();
      }
    }
    current_ = std::move(next);
  }
}

void TracebackEngine::bind_metrics(obs::MetricsRegistry& registry) {
  packets_to_accusation_ = &registry.histogram("traceback_packets_to_accusation");
  accusations_ = &registry.counter("traceback_accusations");
}

std::optional<std::size_t> TracebackEngine::packets_to_identification() const {
  if (!current_.identified) return std::nullopt;
  return last_status_change_packet_;
}

NodeId TracebackEngine::single_packet_stop(const marking::VerifyResult& vr,
                                           const net::Packet& p) {
  if (!vr.chain.empty()) return vr.chain.front().node;
  return p.delivered_by;
}

}  // namespace pnm::sink
