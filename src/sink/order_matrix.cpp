#include "sink/order_matrix.h"

namespace pnm::sink {

void NodeBitset::set(std::size_t i) {
  std::size_t word = i / 64;
  if (word >= words_.size()) words_.resize(word + 1, 0);
  words_[word] |= (1ULL << (i % 64));
}

bool NodeBitset::test(std::size_t i) const {
  std::size_t word = i / 64;
  if (word >= words_.size()) return false;
  return (words_[word] >> (i % 64)) & 1ULL;
}

void NodeBitset::or_with(const NodeBitset& other) {
  if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
  for (std::size_t w = 0; w < other.words_.size(); ++w) words_[w] |= other.words_[w];
}

bool NodeBitset::intersects(const NodeBitset& other) const {
  std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t w = 0; w < n; ++w)
    if (words_[w] & other.words_[w]) return true;
  return false;
}

std::size_t NodeBitset::count() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(__builtin_popcountll(w));
  return total;
}

std::size_t OrderGraph::index_of(NodeId node) {
  auto [it, inserted] = index_.try_emplace(node, nodes_.size());
  if (inserted) {
    nodes_.push_back(node);
    reach_.emplace_back();
    direct_.emplace_back();
  }
  return it->second;
}

void OrderGraph::observe(NodeId node) { index_of(node); }

void OrderGraph::add_order(NodeId up, NodeId down) {
  if (up == down) return;
  std::size_t iu = index_of(up);
  std::size_t iv = index_of(down);
  if (!direct_[iu].test(iv)) {
    direct_[iu].set(iv);
    ++order_count_;
  }
  if (reach_[iu].test(iv)) return;  // closure already contains it
  ++closure_version_;

  // Incremental transitive closure: everything that reaches `up` (plus `up`
  // itself) now also reaches `down` and everything `down` reaches.
  NodeBitset addition = reach_[iv];
  addition.set(iv);
  for (std::size_t x = 0; x < reach_.size(); ++x) {
    if (x == iu || reach_[x].test(iu)) reach_[x].or_with(addition);
  }
}

void OrderGraph::merge(const OrderGraph& other) {
  for (NodeId node : other.nodes_) observe(node);
  for (std::size_t i = 0; i < other.nodes_.size(); ++i) {
    for (std::size_t j = 0; j < other.nodes_.size(); ++j) {
      if (other.direct_[i].test(j)) add_order(other.nodes_[i], other.nodes_[j]);
    }
  }
}

bool OrderGraph::reaches(NodeId from, NodeId to) const {
  auto fi = index_.find(from);
  auto ti = index_.find(to);
  if (fi == index_.end() || ti == index_.end()) return false;
  return reach_[fi->second].test(ti->second);
}

std::vector<NodeId> OrderGraph::direct_successors(NodeId node) const {
  std::vector<NodeId> out;
  auto it = index_.find(node);
  if (it == index_.end()) return out;
  for (std::size_t j = 0; j < nodes_.size(); ++j)
    if (direct_[it->second].test(j)) out.push_back(nodes_[j]);
  return out;
}

bool OrderGraph::has_loop() const {
  for (std::size_t i = 0; i < reach_.size(); ++i)
    if (on_cycle(i)) return true;
  return false;
}

std::vector<NodeId> OrderGraph::loop_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < reach_.size(); ++i)
    if (on_cycle(i)) out.push_back(nodes_[i]);
  return out;
}

std::vector<NodeId> OrderGraph::minimal_candidates() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    bool has_outside_predecessor = false;
    for (std::size_t j = 0; j < nodes_.size() && !has_outside_predecessor; ++j) {
      if (j == i || !reach_[j].test(i)) continue;
      // Mutual reachability = same cycle; that is not an "outside" edge.
      if (!reach_[i].test(j)) has_outside_predecessor = true;
    }
    if (has_outside_predecessor) continue;
    // One representative per cycle: skip if a lower-indexed co-cyclic member
    // already qualified.
    bool duplicate_of_cycle = false;
    if (on_cycle(i)) {
      for (std::size_t j = 0; j < i; ++j) {
        if (reach_[i].test(j) && reach_[j].test(i)) {
          duplicate_of_cycle = true;
          break;
        }
      }
    }
    if (!duplicate_of_cycle) out.push_back(nodes_[i]);
  }
  return out;
}

bool OrderGraph::reaches_all(NodeId node) const {
  auto it = index_.find(node);
  if (it == index_.end()) return false;
  std::size_t i = it->second;
  for (std::size_t j = 0; j < nodes_.size(); ++j)
    if (j != i && !reach_[i].test(j)) return false;
  return true;
}

}  // namespace pnm::sink
