#include "sink/anon_lookup.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace pnm::sink {

namespace {

/// Pack a short anon ID into a comparison key. Only equality matters, so
/// byte order is irrelevant as long as it is length-fixed; unused high bytes
/// stay zero.
std::uint64_t pack_key(const std::uint8_t* p, std::size_t len) {
  std::uint64_t k = 0;
  std::memcpy(&k, p, len);
  return k;
}

/// Candidate sweep through the multi-buffer PRF engine: all ids' anonymous
/// IDs for `report` land packed in the returned arena (stride anon_len).
/// Thread-local so per-packet sweeps never touch the heap once warm.
ByteView batched_anon_ids(const crypto::KeyStore& keys, ByteView report,
                          std::span<const NodeId> ids, std::size_t anon_len) {
  thread_local Bytes arena;
  arena.resize(ids.size() * anon_len);
  crypto::anon_id_batch(keys, report, ids, anon_len, arena.data());
  return ByteView(arena.data(), arena.size());
}

}  // namespace

AnonIdTable::AnonIdTable(const crypto::KeyStore& keys, ByteView report,
                         std::size_t anon_len)
    : anon_len_(anon_len) {
  // Node 0 is the sink itself and never marks; extend() starts from 1.
  extend(keys, report, keys.size());
}

void AnonIdTable::clear(std::size_t anon_len) {
  anon_len_ = anon_len;
  rows_ = 0;
  keys_.clear();
  wide_.clear();
}

std::size_t AnonIdTable::extend(const crypto::KeyStore& keys, ByteView report,
                                std::size_t count) {
  const std::size_t nodes = keys.size() > 1 ? keys.size() - 1 : 0;
  count = std::min(count, nodes - std::min(nodes, rows_));
  if (count == 0 || anon_len_ == 0) return 0;
  thread_local std::vector<NodeId> ids;
  ids.resize(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = static_cast<NodeId>(rows_ + 1 + i);
  append(batched_anon_ids(keys, report, ids, anon_len_).data(), count);
  return count;
}

void AnonIdTable::append(const std::uint8_t* anons, std::size_t count) {
  if (anon_len_ <= sizeof(std::uint64_t)) {
    keys_.reserve(rows_ + count);
    for (std::size_t i = 0; i < count; ++i)
      keys_.push_back(pack_key(anons + i * anon_len_, anon_len_));
  } else {
    wide_.insert(wide_.end(), anons, anons + count * anon_len_);
  }
  rows_ += count;
}

void AnonIdTable::collect(ByteView anon, std::size_t from,
                          std::vector<NodeId>& out) const {
  if (anon.size() != anon_len_) return;
  // Row r holds node r + 1, so a forward scan yields ascending ids.
  if (anon_len_ <= sizeof(std::uint64_t)) {
    const std::uint64_t k = pack_key(anon.data(), anon_len_);
    for (std::size_t r = from; r < rows_; ++r) {
      if (keys_[r] == k) out.push_back(static_cast<NodeId>(r + 1));
    }
    return;
  }
  for (std::size_t r = from; r < rows_; ++r) {
    if (std::memcmp(wide_.data() + r * anon_len_, anon.data(), anon_len_) == 0)
      out.push_back(static_cast<NodeId>(r + 1));
  }
}

std::vector<NodeId> AnonIdTable::candidates(ByteView anon) const {
  std::vector<NodeId> out;
  collect(anon, 0, out);
  return out;
}

}  // namespace pnm::sink
