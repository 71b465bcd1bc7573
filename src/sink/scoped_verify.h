// Topology-scoped PNM verification (§7 "Anonymous ID Mapping").
//
// The exhaustive per-report table costs one PRF evaluation per network node.
// When the sink knows the topology (e.g. from post-deployment neighbor
// reports), it can resolve each anonymous ID by searching outward from the
// previously resolved node instead: with deterministic marking that is the
// one-hop neighborhood, O(d); with probabilistic marking consecutive marks
// may be several hops apart, so the search expands ring by ring (1-hop,
// 2-hop, ...) and falls back to the full network only for truly alien IDs.
// Expected cost tracks the typical mark gap (~1/p hops), far below network
// size.
//
// The rings come from a RingLayers search (sink/ring_layers.h) that expands
// one layer per widening: ring 1 is the anchor and its neighbors, ring r the
// nodes exactly r hops out, each walked in ascending id order. RingWalk is
// the one walker over them, shared by scoped_verify_pnm and the cross-packet
// planner (sink/batch_plan.h).
//
// The result is bit-identical to PnmScheme::verify (asserted by tests); only
// the search order — and therefore the hash count — differs.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "sink/ring_layers.h"
#include "util/counters.h"

namespace pnm::sink {

struct ScopedVerifyStats {
  std::size_t prf_evaluations = 0;  ///< candidate anonymous-ID probes
  std::size_t mac_checks = 0;       ///< candidate MAC verifications
  std::size_t ring_expansions = 0;  ///< times the search widened past 1 hop
};

/// One mark's ring-by-ring search: which candidates the current ring holds,
/// their anonymous IDs (cache hits resolved under one lock, misses left for
/// the caller's PRF sweep), and the walk that meters and resolves them.
class RingWalk {
 public:
  /// Outcome of walking one ring.
  struct Step {
    NodeId resolved = kInvalidNode;
    std::size_t walked = 0;  ///< candidates probed, up to the resolving one
    std::size_t macs = 0;    ///< MAC checks among them
  };

  /// Start a mark's search at ring 1 around `anchor`, a node of `topo`.
  void start(const net::Topology& topo, NodeId anchor) { layers_.start(topo, anchor); }
  std::size_t ring() const { return layers_.radius(); }

  /// Load the current ring: its candidates (every node but the sink with an
  /// id below `key_count`, ascending), then one batch probe of `cache` (null:
  /// every candidate misses). Returns false when the ring holds no candidate:
  /// the search has covered the anchor's whole component.
  bool load(std::size_t key_count, const crypto::PrfCache* cache,
            std::uint64_t report_key, std::size_t anon_len);

  std::span<const NodeId> candidates() const { return cands_; }
  /// Candidates the cache missed, in ring order; each needs fill_miss().
  std::span<const NodeId> miss_ids() const { return miss_ids_; }
  /// Store the computed anonymous ID (anon_len bytes) of the k-th miss.
  void fill_miss(std::size_t k, const std::uint8_t* value) {
    if (anon_len_ != 0)
      std::memcpy(anons_.data() + miss_idx_[k] * anon_len_, value, anon_len_);
  }
  /// True when candidate i's anonymous ID equals `id_field` (anon_len bytes).
  bool matches(std::size_t i, ByteView id_field) const {
    return anon_len_ == 0 ||
           std::memcmp(anons_.data() + i * anon_len_, id_field.data(), anon_len_) == 0;
  }

  /// Walk the ring in id order with the serial accounting: per candidate
  /// walked, a cache hit or (miss and) PRF evaluation; per anonymous-ID
  /// match, a MAC check through `mac_ok(i)`. Stops at the first candidate
  /// whose MAC verifies. `cached` says whether a cache was probed (it picks
  /// the hit/miss counters); `metrics` receives the counts in bulk.
  template <typename MacOk>
  Step walk(ByteView id_field, bool cached, util::Counters& metrics, MacOk&& mac_ok) const;

  /// Widen past an unresolved ring. False when the search is over: the ring
  /// held no candidate (`grew` false) or ring `bound` was the last allowed.
  bool advance(bool grew, std::size_t bound) {
    if (!grew || ring() + 1 > bound) return false;
    layers_.next();
    return true;
  }

 private:
  RingLayers layers_;
  std::size_t anon_len_ = 0;
  std::vector<NodeId> cands_;
  std::vector<std::uint8_t> anons_;  ///< cands_.size() * anon_len_ bytes
  std::vector<std::uint8_t> hit_;
  std::vector<std::uint32_t> miss_idx_;
  std::vector<NodeId> miss_ids_;
};

template <typename MacOk>
RingWalk::Step RingWalk::walk(ByteView id_field, bool cached, util::Counters& metrics,
                              MacOk&& mac_ok) const {
  Step step;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < cands_.size(); ++i) {
    ++step.walked;
    if (cached && hit_[i]) ++hits;
    if (!matches(i, id_field)) continue;
    ++step.macs;
    if (mac_ok(i)) {
      step.resolved = cands_[i];
      break;
    }
  }
  const std::size_t computed = step.walked - hits;
  if (hits) metrics.add(util::Metric::kCacheHits, hits);
  if (computed) {
    if (cached) metrics.add(util::Metric::kCacheMisses, computed);
    metrics.add(util::Metric::kPrfEvals, computed);
  }
  if (step.macs) metrics.add(util::Metric::kMacChecks, step.macs);
  return step;
}

/// Verify a PNM packet using the topology-scoped search. `cfg` must match
/// the marking configuration in force. The search anchors on the packet's
/// radio-layer previous hop (`delivered_by`); if that is unknown it anchors
/// on the sink. Stats are accumulated into `stats` when non-null.
///
/// `cache` memoizes PRF probes across marks and packets (the result is
/// unchanged — only recomputation is skipped); `counters` receives metric
/// increments, defaulting to util::Counters::global() when null. The
/// topology, the cache and the counters are all safe to share across
/// threads; each thread walks rings with its own reused buffers.
marking::VerifyResult scoped_verify_pnm(const net::Packet& p,
                                        const crypto::KeyStore& keys,
                                        const net::Topology& topo,
                                        const marking::SchemeConfig& cfg,
                                        ScopedVerifyStats* stats = nullptr,
                                        crypto::PrfCache* cache = nullptr,
                                        util::Counters* counters = nullptr);

}  // namespace pnm::sink
