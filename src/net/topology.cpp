#include "net/topology.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <queue>

namespace pnm::net {

namespace {
double dist2(const NodePosition& a, const NodePosition& b) {
  double dx = a.x - b.x, dy = a.y - b.y;
  return dx * dx + dy * dy;
}

std::atomic<std::uint64_t> g_next_topology_id{1};
}  // namespace

Topology::Topology(std::vector<NodePosition> positions, double radio_range)
    : positions_(std::move(positions)),
      radio_range_(radio_range),
      id_(g_next_topology_id.fetch_add(1, std::memory_order_relaxed)) {
  assert(!positions_.empty());
  adjacency_.resize(positions_.size());
  double r2 = radio_range_ * radio_range_;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    for (std::size_t j = i + 1; j < positions_.size(); ++j) {
      if (dist2(positions_[i], positions_[j]) <= r2) {
        adjacency_[i].push_back(static_cast<NodeId>(j));
        adjacency_[j].push_back(static_cast<NodeId>(i));
      }
    }
  }
}

bool Topology::are_neighbors(NodeId a, NodeId b) const {
  const auto& adj = adjacency_.at(a);
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

bool Topology::connected() const {
  std::vector<bool> seen(node_count(), false);
  std::queue<NodeId> frontier;
  frontier.push(kSinkId);
  seen[kSinkId] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    NodeId v = frontier.front();
    frontier.pop();
    for (NodeId u : adjacency_[v]) {
      if (!seen[u]) {
        seen[u] = true;
        ++reached;
        frontier.push(u);
      }
    }
  }
  return reached == node_count();
}

std::vector<NodeId> Topology::closed_neighborhood(NodeId id) const {
  std::vector<NodeId> out = adjacency_.at(id);
  out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Topology::k_hop_neighborhood(NodeId id, std::size_t k) const {
  std::vector<std::size_t> dist(node_count(), SIZE_MAX);
  std::queue<NodeId> frontier;
  dist[id] = 0;
  frontier.push(id);
  std::vector<NodeId> out{id};
  while (!frontier.empty()) {
    NodeId v = frontier.front();
    frontier.pop();
    if (dist[v] == k) continue;
    for (NodeId u : adjacency_[v]) {
      if (dist[u] != SIZE_MAX) continue;
      dist[u] = dist[v] + 1;
      out.push_back(u);
      frontier.push(u);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Topology Topology::chain(std::size_t forwarders) {
  std::vector<NodePosition> pos;
  pos.reserve(forwarders + 2);
  // 0 = sink, 1..n = forwarders V1..Vn (V1 nearest the sink), n+1 = source.
  for (std::size_t i = 0; i < forwarders + 2; ++i)
    pos.push_back({static_cast<double>(i), 0.0});
  return Topology(std::move(pos), 1.25);
}

Topology Topology::grid(std::size_t width, std::size_t height, double radio_range) {
  assert(width > 0 && height > 0);
  std::vector<NodePosition> pos;
  pos.reserve(width * height);
  for (std::size_t y = 0; y < height; ++y)
    for (std::size_t x = 0; x < width; ++x)
      pos.push_back({static_cast<double>(x), static_cast<double>(y)});
  return Topology(std::move(pos), radio_range);
}

Topology Topology::random_geometric(std::size_t count, double side, double radio_range,
                                    Rng& rng) {
  assert(count >= 2);
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<NodePosition> pos;
    pos.reserve(count);
    pos.push_back({side / 2.0, side / 2.0});  // sink at field center
    for (std::size_t i = 1; i < count; ++i)
      pos.push_back({rng.next_double() * side, rng.next_double() * side});
    Topology topo(std::move(pos), radio_range);
    if (topo.connected()) return topo;
  }
  assert(false && "random_geometric: could not draw a connected deployment; "
                  "increase radio_range or density");
  return chain(1);  // unreachable
}

}  // namespace pnm::net
