#include "sink/scoped_verify.h"

#include <cstring>
#include <mutex>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "marking/mark.h"
#include "sink/ring_layers.h"

namespace pnm::sink {

namespace {

/// Work a packet's search has done, metered into the counters once per packet.
struct Meter {
  std::size_t walked = 0;  ///< candidates probed (PRF evaluations, cached or not)
  std::size_t hits = 0;    ///< of those, served by the cache
  std::size_t macs = 0;    ///< MAC checks
  std::size_t expansions = 0;  ///< rings walked past ring 1
};

/// One mark's ring-by-ring search: the current ring's candidates, their
/// anonymous IDs, and the walk that meters and resolves them.
class RingWalk {
 public:
  /// Start a mark's search at ring 1 around `anchor`, a node of `topo`.
  void start(const net::Topology& topo, NodeId anchor) { layers_.start(topo, anchor); }
  std::size_t ring() const { return layers_.radius(); }

  /// Walk the current ring: its candidates are every node but the sink with
  /// an id below keys.size(), ascending. Each candidate's anonymous ID for
  /// `report` comes from `row` (null: no cache), which the caller holds
  /// locked through `lock`. When every candidate hits, the walk reads the
  /// row in place. Otherwise the hits are copied out, the lock is released
  /// around one multi-lane sweep of the misses, and the row is re-locked to
  /// take them; the sweep covers the whole ring, even past the candidate
  /// that resolves (that speculation is unmetered). Walks in id order with
  /// the serial accounting into `meter` — per candidate walked a hit or a
  /// PRF evaluation, per anonymous-ID match a MAC check through
  /// `mac_ok(node)` — and stops at the first candidate whose MAC verifies.
  /// Returns that node, or kInvalidNode; `grew` says whether the ring held a
  /// candidate (false: the search has covered the anchor's whole component).
  template <typename MacOk>
  NodeId walk(const crypto::KeyStore& keys, ByteView report, crypto::PrfCache* cache,
              const crypto::PrfCache::RowRef& row, std::unique_lock<std::mutex>& lock,
              ByteView id_field, Meter& meter, bool& grew, MacOk&& mac_ok);

  /// Widen past an unresolved ring. False when the search is over: the ring
  /// held no candidate (`grew` false) or ring `bound` was the last allowed.
  bool advance(bool grew, std::size_t bound) {
    if (!grew || ring() + 1 > bound) return false;
    layers_.next();
    return true;
  }

 private:
  RingLayers layers_;
  std::vector<NodeId> cands_;
  std::vector<const std::uint8_t*> anons_;  ///< per candidate, its anon ID
  std::vector<std::uint8_t> hit_;           ///< per candidate, cache hit (cold rings)
  std::vector<NodeId> miss_ids_;
  Bytes copied_;  ///< a cold ring's anon IDs, candidate order
  Bytes swept_;   ///< the misses' anonymous IDs, in miss order
};

template <typename MacOk>
NodeId RingWalk::walk(const crypto::KeyStore& keys, ByteView report,
                      crypto::PrfCache* cache, const crypto::PrfCache::RowRef& row,
                      std::unique_lock<std::mutex>& lock, ByteView id_field,
                      Meter& meter, bool& grew, MacOk&& mac_ok) {
  const std::size_t anon_len = id_field.size();
  cands_.clear();
  for (NodeId candidate : layers_.ring()) {
    if (candidate == kSinkId || candidate >= keys.size()) continue;
    cands_.push_back(candidate);
  }
  grew = !cands_.empty();
  if (!grew) return kInvalidNode;
  anons_.resize(cands_.size());
  bool warm = row != nullptr;
  for (std::size_t i = 0; warm && i < cands_.size(); ++i) {
    anons_[i] = row->find(cands_[i]);
    warm = anons_[i] != nullptr;
  }

  if (!warm) {
    copied_.resize(cands_.size() * anon_len);
    hit_.assign(cands_.size(), 0);
    miss_ids_.clear();
    for (std::size_t i = 0; i < cands_.size(); ++i) {
      const std::uint8_t* cached = row ? row->find(cands_[i]) : nullptr;
      hit_[i] = cached != nullptr;
      if (cached != nullptr) {
        if (anon_len != 0) std::memcpy(copied_.data() + i * anon_len, cached, anon_len);
      } else {
        miss_ids_.push_back(cands_[i]);
      }
    }
    if (lock.owns_lock()) lock.unlock();
    swept_.resize(miss_ids_.size() * anon_len);
    crypto::anon_id_batch(keys, report, miss_ids_, anon_len, swept_.data());
    if (row) {
      lock.lock();
      cache->insert(row, miss_ids_, swept_.data());
    }
    for (std::size_t i = 0, k = 0; i < cands_.size(); ++i) {
      if (!hit_[i] && anon_len != 0)
        std::memcpy(copied_.data() + i * anon_len, swept_.data() + k++ * anon_len,
                    anon_len);
      anons_[i] = copied_.data() + i * anon_len;
    }
  }

  for (std::size_t i = 0; i < cands_.size(); ++i) {
    ++meter.walked;
    if (warm || hit_[i]) ++meter.hits;
    if (anon_len != 0 && std::memcmp(anons_[i], id_field.data(), anon_len) != 0) continue;
    ++meter.macs;
    if (mac_ok(cands_[i])) return cands_[i];
  }
  return kInvalidNode;
}

}  // namespace

marking::VerifyResult scoped_verify_pnm(const net::Packet& p,
                                        const crypto::KeyStore& keys,
                                        const net::Topology& topo,
                                        const marking::SchemeConfig& cfg,
                                        ScopedVerifyStats* stats,
                                        crypto::PrfCache* cache,
                                        util::Counters* counters) {
  marking::VerifyResult out;
  out.total_marks = p.marks.size();
  util::Counters& metrics = counters ? *counters : util::Counters::global();
  metrics.add(util::Metric::kPacketsVerified);
  if (p.marks.empty()) return out;

  // One shard lookup per packet; each mark then walks under one row lock.
  const crypto::PrfCache::RowRef row =
      cache ? cache->row(crypto::PrfCache::report_key(p.report), cfg.anon_len) : nullptr;
  // The network diameter bounds every honest gap between consecutive marks.
  const std::size_t ring_bound = topo.node_count();

  Meter meter;
  NodeId anchor = (p.delivered_by != kInvalidNode && p.delivered_by < topo.node_count())
                      ? p.delivered_by
                      : kSinkId;

  thread_local RingWalk walk;
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    NodeId resolved = kInvalidNode;

    if (m.id_field.size() == cfg.anon_len) {
      Bytes input = marking::nested_mac_input(p, j, m.id_field);
      std::unique_lock<std::mutex> lock;
      if (row) lock = std::unique_lock<std::mutex>(row->mutex());
      walk.start(topo, anchor);
      bool grew = false;
      do {
        if (walk.ring() > 1) ++meter.expansions;
        resolved = walk.walk(keys, p.report, cache, row, lock, m.id_field, meter, grew,
                             [&](NodeId node) {
                               return keys.hmac_key(node).verify(input, m.mac);
                             });
      } while (resolved == kInvalidNode && walk.advance(grew, ring_bound));
    }

    if (resolved == kInvalidNode) {
      out.invalid_marks = j + 1;
      out.truncated_by_invalid = true;
      break;
    }
    out.chain.insert(out.chain.begin(), marking::VerifiedMark{resolved, j});
    anchor = resolved;  // next (more upstream) mark is near this node
  }

  const std::size_t computed = meter.walked - meter.hits;
  if (meter.hits) metrics.add(util::Metric::kCacheHits, meter.hits);
  if (computed) {
    if (cache) metrics.add(util::Metric::kCacheMisses, computed);
    metrics.add(util::Metric::kPrfEvals, computed);
  }
  if (meter.macs) metrics.add(util::Metric::kMacChecks, meter.macs);

  if (stats) {
    stats->prf_evaluations += meter.walked;
    stats->mac_checks += meter.macs;
    stats->ring_expansions += meter.expansions;
  }
  return out;
}

}  // namespace pnm::sink
