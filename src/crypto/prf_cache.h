// Sharded memo cache for anonymous-ID PRF evaluations.
//
// Scoped verification (§7) probes candidate nodes ring by ring; the same
// (node, report) pair is probed once per *mark*, so a packet with m marks
// recomputes up to m identical PRFs per candidate — and a batch re-verifying
// replayed or duplicate-report traffic recomputes whole tables. This cache
// memoizes i' = H'_{k_i}(M | i) keyed by (report digest, anon_len, node).
//
// The memo is organised by report. Each (report, anon_len) owns one Row: an
// open-addressed table of node id -> inline anon-ID bytes that starts at 16
// slots and doubles as it fills, so a report costs memory in proportion to
// the nodes its searches reached, never to the network size. The shards map
// a report to its row under a shard mutex; a verifier resolves the row once
// per packet and then probes it under the row's own mutex, one lock for a
// whole mark's ring walk. Distinct reports spread over independently locked
// shards and rows, so verifier threads rarely contend.
//
// The entry cap is one total across all rows: an insert that would pass it
// first flushes the whole cache (epoch eviction), bounding memory without
// LRU bookkeeping on the hot path; the number of rows is capped by the same
// total. Rows are shared_ptr-owned: a flush drops the cache's references,
// and a row a verifier still holds stays valid (and private to that
// verifier) until it lets go. Lock order is row, then shard; no path takes a
// row lock while holding a shard lock.
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
  /// One report's memoized anon IDs at one anon_len. Every member but
  /// mutex() needs mutex() held.
  class Row {
   public:
    Row(std::uint64_t key, std::size_t anon_len);

    std::mutex& mutex() const { return mu_; }
    /// Entries held.
    std::size_t size() const { return size_; }
    /// Slots allocated (a power of two, at least 16).
    std::size_t capacity() const { return nodes_.size(); }

    /// The anon ID cached for `node`, or null. The pointer stays valid until
    /// the next insert into this row.
    const std::uint8_t* find(NodeId node) const;

   private:
    friend class PrfCache;
    /// Store `value` for `node` unless present; true when newly added.
    bool put(NodeId node, const std::uint8_t* value);
    void grow();
    void reset();

    mutable std::mutex mu_;
    const std::uint64_t key_;     ///< shard-map key: report digest and anon_len
    const std::size_t anon_len_;
    const std::size_t stride_;    ///< bytes per slot: anon_len_, at least 1 so
                                  ///< every hit has an address
    std::uint64_t epoch_ = 0;     ///< cache epoch it was mapped in
    std::size_t size_ = 0;
    std::vector<NodeId> nodes_;   ///< kInvalidNode marks an empty slot
    std::vector<std::uint8_t> values_;  ///< stride_ bytes per slot
  };
  using RowRef = std::shared_ptr<Row>;

  explicit PrfCache(std::size_t shards = 16, std::size_t max_entries = 1 << 19);

  /// Keep `gauge` equal to the live entry count (+n per insert, bulk
  /// subtract on epoch flush / clear). Hit *ratio* is derived downstream
  /// from the kCacheHits / kCacheMisses counters the verifiers meter.
  void bind_entries_gauge(obs::Gauge* gauge) { entries_gauge_ = gauge; }

  /// Stable 64-bit digest of a report; compute once per packet.
  static std::uint64_t report_key(ByteView report);

  /// The row for (report_key, anon_len), mapped into its shard if it was
  /// not: one shard lock when it is cached. Resolve once per packet and hold
  /// it for the packet; concurrent callers for one report share the row.
  RowRef row(std::uint64_t report_key, std::size_t anon_len);

  /// Store anon IDs computed outside the cache (a multi-lane sweep): nodes[i]
  /// gets values[i * anon_len, (i + 1) * anon_len); idempotent per node.
  /// The caller holds row->mutex(). When the new entries would take the
  /// cache past its cap, the whole cache is flushed first — this row's
  /// earlier entries included — and the row is mapped afresh. A row dropped
  /// by another thread's flush stays valid but private: what its holder
  /// inserts is neither shared nor counted, and is freed with the row.
  void insert(const RowRef& row, std::span<const NodeId> nodes, const std::uint8_t* values);

  /// Total entries across the cached rows (approximate under concurrent use).
  std::size_t size() const;
  void clear();

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, RowRef> rows;
  };

  Shard& shard_of(std::uint64_t key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t max_entries_;
  std::atomic<std::size_t> entries_{0};  ///< entries of mapped rows; under shard locks
  std::atomic<std::size_t> rows_{0};     ///< mapped rows; under shard locks
  std::uint64_t epoch_ = 1;  ///< bumped by clear() with every shard locked
  obs::Gauge* entries_gauge_ = nullptr;
};

}  // namespace pnm::crypto
