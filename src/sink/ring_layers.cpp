#include "sink/ring_layers.h"

#include <algorithm>

namespace pnm::sink {

namespace {

void sort_unique(std::vector<NodeId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

void RingLayers::start(const net::Topology& topo, NodeId anchor) {
  topo_ = &topo;
  radius_ = 1;
  prev_.clear();
  const std::vector<NodeId>& adjacent = topo.neighbors(anchor);
  ring_.assign(adjacent.begin(), adjacent.end());
  ring_.push_back(anchor);
  sort_unique(ring_);
}

void RingLayers::next() {
  // Ring 1 holds hop distances 0 and 1, so for every ring the nodes one hop
  // further in are all in ring_ or prev_.
  next_.clear();
  for (NodeId v : ring_) {
    for (NodeId u : topo_->neighbors(v)) {
      if (std::binary_search(ring_.begin(), ring_.end(), u) ||
          std::binary_search(prev_.begin(), prev_.end(), u))
        continue;
      next_.push_back(u);
    }
  }
  sort_unique(next_);
  prev_.swap(ring_);
  ring_.swap(next_);
  ++radius_;
}

}  // namespace pnm::sink
