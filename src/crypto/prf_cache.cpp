#include "crypto/prf_cache.h"

#include <cstring>

#include "crypto/sha256.h"

namespace pnm::crypto {

namespace {

/// splitmix64 finalizer: full-avalanche mix so shard selection and map
/// hashing see well-distributed keys.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t row_key(std::uint64_t report_key, std::size_t anon_len) {
  return mix64(report_key ^ static_cast<std::uint64_t>(anon_len));
}

constexpr std::size_t kRowMinSlots = 16;

/// Home slot of `node` in a power-of-two table: Fibonacci hashing spreads
/// the runs of adjacent ids a ring walk inserts.
std::size_t home_slot(NodeId node, std::size_t mask) {
  return (static_cast<std::size_t>(node) * 0x9e3779b97f4a7c15ULL >> 32) & mask;
}

}  // namespace

PrfCache::Row::Row(std::uint64_t key, std::size_t anon_len)
    : key_(key), anon_len_(anon_len), stride_(anon_len ? anon_len : 1) {
  reset();
}

const std::uint8_t* PrfCache::Row::find(NodeId node) const {
  const std::size_t mask = nodes_.size() - 1;
  for (std::size_t s = home_slot(node, mask);; s = (s + 1) & mask) {
    if (nodes_[s] == node) return values_.data() + s * stride_;
    if (nodes_[s] == kInvalidNode) return nullptr;
  }
}

bool PrfCache::Row::put(NodeId node, const std::uint8_t* value) {
  if (node == kInvalidNode) return false;  // the empty-slot sentinel
  // Load factor at most 3/4 keeps probe runs short and an empty slot ahead.
  if ((size_ + 1) * 4 > nodes_.size() * 3) grow();
  const std::size_t mask = nodes_.size() - 1;
  std::size_t s = home_slot(node, mask);
  for (; nodes_[s] != kInvalidNode; s = (s + 1) & mask) {
    if (nodes_[s] == node) return false;
  }
  nodes_[s] = node;
  if (anon_len_ != 0) std::memcpy(values_.data() + s * stride_, value, anon_len_);
  ++size_;
  return true;
}

void PrfCache::Row::grow() {
  std::vector<NodeId> old_nodes(nodes_.size() * 2, kInvalidNode);
  std::vector<std::uint8_t> old_values(old_nodes.size() * stride_);
  old_nodes.swap(nodes_);
  old_values.swap(values_);
  const std::size_t mask = nodes_.size() - 1;
  for (std::size_t i = 0; i < old_nodes.size(); ++i) {
    if (old_nodes[i] == kInvalidNode) continue;
    std::size_t s = home_slot(old_nodes[i], mask);
    while (nodes_[s] != kInvalidNode) s = (s + 1) & mask;
    nodes_[s] = old_nodes[i];
    std::memcpy(values_.data() + s * stride_, old_values.data() + i * stride_, stride_);
  }
}

void PrfCache::Row::reset() {
  size_ = 0;
  nodes_.assign(kRowMinSlots, kInvalidNode);
  values_.assign(kRowMinSlots * stride_, 0);
}

PrfCache::PrfCache(std::size_t shards, std::size_t max_entries)
    : max_entries_(max_entries ? max_entries : 1) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

std::uint64_t PrfCache::report_key(ByteView report) {
  Sha256Digest d = Sha256::hash(report);
  std::uint64_t k = 0;
  std::memcpy(&k, d.data(), sizeof(k));
  return k;
}

PrfCache::Shard& PrfCache::shard_of(std::uint64_t key) const {
  return *shards_[key % shards_.size()];
}

PrfCache::RowRef PrfCache::row(std::uint64_t report_key, std::size_t anon_len) {
  const std::uint64_t key = row_key(report_key, anon_len);
  Shard& shard = shard_of(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.rows.find(key);
    if (it != shard.rows.end()) return it->second;
  }
  // A row holds entries once its first search inserts; rows that never do
  // (no candidate anywhere) are bounded by the same total cap.
  if (rows_.load(std::memory_order_relaxed) >= max_entries_) clear();
  auto fresh = std::make_shared<Row>(key, anon_len);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.rows.try_emplace(key, std::move(fresh));
  if (inserted) {
    it->second->epoch_ = epoch_;
    rows_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

void PrfCache::insert(const RowRef& row, std::span<const NodeId> nodes,
                      const std::uint8_t* values) {
  const bool flush = entries_.load(std::memory_order_relaxed) + nodes.size() > max_entries_;
  if (flush) {
    clear();
    row->reset();
  }
  std::size_t added = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    added += row->put(nodes[i], values + i * row->anon_len_);

  Shard& shard = shard_of(row->key_);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (row->epoch_ != epoch_) {
    // Dropped by a flush. This insert's own flush emptied the row first, so
    // it is mapped again holding just the new entries (unless a concurrent
    // row() mapped a newer row of this report); after another thread's
    // flush it stays private to its holder and uncounted.
    if (!flush || !shard.rows.try_emplace(row->key_, row).second) return;
    row->epoch_ = epoch_;
    rows_.fetch_add(1, std::memory_order_relaxed);
    added = row->size_;
  }
  if (added == 0) return;
  entries_.fetch_add(added, std::memory_order_relaxed);
  if (entries_gauge_) entries_gauge_->add(static_cast<std::int64_t>(added));
}

std::size_t PrfCache::size() const { return entries_.load(std::memory_order_relaxed); }

void PrfCache::clear() {
  // Every shard locked at once, in index order, so no row() or insert() can
  // map a row or count an entry between the epoch bump and the resets.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  ++epoch_;
  for (auto& shard : shards_) shard->rows.clear();
  rows_.store(0, std::memory_order_relaxed);
  const std::size_t dropped = entries_.exchange(0, std::memory_order_relaxed);
  if (entries_gauge_ && dropped) entries_gauge_->add(-static_cast<std::int64_t>(dropped));
}

}  // namespace pnm::crypto
