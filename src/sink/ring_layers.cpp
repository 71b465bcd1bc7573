#include "sink/ring_layers.h"

#include <algorithm>

namespace pnm::sink {

void RingLayers::start(const net::Topology& topo, NodeId anchor) {
  topo_ = &topo;
  radius_ = 1;
  // Slots past the old size start at 0, which no live generation uses.
  if (stamps_.size() < topo.node_count()) stamps_.resize(topo.node_count(), 0);
  if (++generation_ == 0) {
    std::fill(stamps_.begin(), stamps_.end(), 0);
    generation_ = 1;
  }
  ring_.clear();
  if (reach(anchor)) ring_.push_back(anchor);
  for (NodeId v : topo.neighbors(anchor))
    if (reach(v)) ring_.push_back(v);
  std::sort(ring_.begin(), ring_.end());
}

void RingLayers::next() {
  // Every node of an earlier ring is stamped, so ring r + 1 is exactly the
  // unstamped neighbors of ring r.
  next_.clear();
  for (NodeId v : ring_)
    for (NodeId u : topo_->neighbors(v))
      if (reach(u)) next_.push_back(u);
  std::sort(next_.begin(), next_.end());
  ring_.swap(next_);
  ++radius_;
}

}  // namespace pnm::sink
