#include "crypto/prf_cache.h"

#include <cstring>

#include "crypto/sha256.h"

namespace pnm::crypto {

namespace {

/// splitmix64 finalizer: full-avalanche mix so shard selection and map
/// hashing see well-distributed keys even for adjacent node IDs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t entry_key(std::uint64_t report_key, NodeId node, std::size_t anon_len) {
  return mix64(report_key ^ (static_cast<std::uint64_t>(node) << 32) ^
               static_cast<std::uint64_t>(anon_len));
}

}  // namespace

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

PrfCache::Shard& PrfCache::shard_of(std::uint64_t report_key) const {
  return *shards_[mix64(report_key) % shards_.size()];
}

void PrfCache::lookup(std::uint64_t report_key, std::span<const NodeId> nodes,
                      std::size_t anon_len, std::uint8_t* out, std::uint8_t* hit) const {
  const Shard& shard = shard_of(report_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto it = shard.map.find(entry_key(report_key, nodes[i], anon_len));
    hit[i] = it != shard.map.end() ? 1 : 0;
    if (hit[i] && anon_len != 0)
      std::memcpy(out + i * anon_len, it->second.data(), anon_len);
  }
}

void PrfCache::insert(std::uint64_t report_key, std::span<const NodeId> nodes,
                      std::size_t anon_len, const std::uint8_t* values) {
  if (entries_.load(std::memory_order_relaxed) + nodes.size() > max_entries_) clear();
  Shard& shard = shard_of(report_key);
  std::size_t added = 0;
  std::lock_guard<std::mutex> lock(shard.mu);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint8_t* v = values + i * anon_len;
    if (shard.map.try_emplace(entry_key(report_key, nodes[i], anon_len), v, v + anon_len)
            .second)
      ++added;
  }
  entries_.fetch_add(added, std::memory_order_relaxed);
  if (entries_gauge_ && added) entries_gauge_->add(static_cast<std::int64_t>(added));
}

std::size_t PrfCache::size() const { return entries_.load(std::memory_order_relaxed); }

void PrfCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    entries_.fetch_sub(shard->map.size(), std::memory_order_relaxed);
    if (entries_gauge_)
      entries_gauge_->add(-static_cast<std::int64_t>(shard->map.size()));
    shard->map.clear();
  }
}

}  // namespace pnm::crypto
