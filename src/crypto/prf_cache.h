// Sharded memo cache for anonymous-ID PRF evaluations.
//
// Scoped verification (§7) probes candidate nodes ring by ring; the same
// (node, report) pair is probed once per *mark*, so a packet with m marks
// recomputes up to m identical PRFs per candidate — and a batch re-verifying
// replayed or duplicate-report traffic recomputes whole tables. This cache
// memoizes i' = H'_{k_i}(M | i) keyed by (node, message-digest). Shards are
// chosen by report, so every entry of one report lives in one shard and a
// whole ring of candidates resolves under one lock; distinct reports spread
// over independently locked shards so verifier threads rarely contend. The
// entry cap is one total across shards: an insert that would pass it first
// flushes the whole cache (epoch eviction), bounding memory without LRU
// bookkeeping on the hot path. A per-shard cap would instead flush a report's
// own earlier rings once its search outgrew one shard's share.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/ids.h"

namespace pnm::crypto {

class PrfCache {
 public:
  explicit PrfCache(std::size_t shards = 16, std::size_t max_entries = 1 << 19);

  /// Keep `gauge` equal to the live entry count (+1 per new entry, bulk
  /// subtract on epoch flush / clear). Hit *ratio* is derived downstream
  /// from the kCacheHits / kCacheMisses counters the verifiers meter.
  void bind_entries_gauge(obs::Gauge* gauge) { entries_gauge_ = gauge; }

  /// Stable 64-bit digest of a report; compute once per packet and pass to
  /// every lookup/insert for that packet.
  static std::uint64_t report_key(ByteView report);

  /// Resolve one report's candidates under one shard lock. For each i, a hit
  /// copies the anon ID into out[i * anon_len, (i + 1) * anon_len) and sets
  /// hit[i] = 1; a miss sets hit[i] = 0 and leaves its slot untouched.
  /// Lookup only — no compute, no counter accounting: the scoped paths probe
  /// before lane packing so hits never occupy a lane, then meter hits and
  /// misses per candidate actually walked.
  void lookup(std::uint64_t report_key, std::span<const NodeId> nodes, std::size_t anon_len,
              std::uint8_t* out, std::uint8_t* hit) const;

  /// Store one report's anon IDs computed outside the cache (a multi-lane
  /// sweep): nodes[i] gets values[i * anon_len, (i + 1) * anon_len), all
  /// under one shard lock; idempotent per key. When the new entries would
  /// take the cache past its cap, the whole cache is flushed first.
  void insert(std::uint64_t report_key, std::span<const NodeId> nodes,
              std::size_t anon_len, const std::uint8_t* values);

  /// Total entries across shards (approximate under concurrent use).
  std::size_t size() const;
  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Bytes> map;
  };

  Shard& shard_of(std::uint64_t report_key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t max_entries_;
  std::atomic<std::size_t> entries_{0};  ///< live entries, all shards
  obs::Gauge* entries_gauge_ = nullptr;
};

}  // namespace pnm::crypto
