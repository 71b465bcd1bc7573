#include "sink/scoped_verify.h"

#include <algorithm>
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

/// A verifying thread's search state: the memoized walk orders, and the
/// scratch of a ring with misses, reused from one ring to the next.
struct Walker {
  RingMemo memo;
  std::vector<NodeId> cands;
  std::vector<const std::uint8_t*> anons;  ///< per candidate, its anon ID
  std::vector<std::uint8_t> hit;           ///< per candidate, cache hit
  std::vector<NodeId> miss_ids;
  Bytes copied;  ///< the hits' anon IDs, candidate order
  Bytes swept;   ///< the misses' anon IDs, miss order
};

/// A search candidate: every node but the sink that holds a key.
bool candidate(NodeId v, const crypto::KeyStore& keys) {
  return v != kSinkId && v < keys.size();
}

/// Compute the anon IDs of the candidates in [first, last) that `row` (null:
/// no cache) misses, and cache them. `first` is a candidate already probed
/// and missed; the rest are probed here, once each. The hits are copied out
/// before the lock is released around one multi-lane sweep of the misses,
/// and the row is re-locked to take them. Leaves the candidates, hit flags
/// and anon IDs of [first, last) in `w`.
void sweep_misses(Walker& w, const NodeId* first, const NodeId* last,
                  const crypto::KeyStore& keys, ByteView report, crypto::PrfCache* cache,
                  const crypto::PrfCache::RowRef& row, std::unique_lock<std::mutex>& lock,
                  std::size_t anon_len) {
  w.cands.clear();
  w.hit.clear();
  w.miss_ids.clear();
  w.copied.clear();
  for (const NodeId* it = first; it != last; ++it) {
    if (!candidate(*it, keys)) continue;
    const std::uint8_t* cached = row && it != first ? row->find(*it) : nullptr;
    w.cands.push_back(*it);
    w.hit.push_back(cached != nullptr);
    if (cached != nullptr)
      w.copied.insert(w.copied.end(), cached, cached + anon_len);
    else
      w.miss_ids.push_back(*it);
  }
  if (lock.owns_lock()) lock.unlock();
  w.swept.resize(w.miss_ids.size() * anon_len);
  crypto::anon_id_batch(keys, report, w.miss_ids, anon_len, w.swept.data());
  if (row) {
    lock.lock();
    cache->insert(row, w.miss_ids, w.swept.data());
  }
  w.anons.resize(w.cands.size());
  for (std::size_t i = 0, h = 0, m = 0; i < w.cands.size(); ++i)
    w.anons[i] = w.hit[i] ? w.copied.data() + h++ * anon_len : w.swept.data() + m++ * anon_len;
}

/// One mark's search, ring by ring out from `anchor` through the walker's
/// memoized walk order, in id order within a ring. Each candidate is probed
/// in `row` (null: no cache), held locked through `lock`, once. A ring's
/// hits are read in place. At a ring's first miss, sweep_misses takes the
/// rest of the ring, whose candidates are then walked from the copies; when
/// a candidate resolves before a miss, the ring's misses past it are still
/// swept and cached, unmetered, so the cache holds what a whole-ring sweep
/// would. Accounts into `meter` as the serial search does — per candidate
/// walked a hit or a PRF evaluation, per anonymous-ID match a MAC check
/// through `mac_ok(node)`, per ring past 1 an expansion — and stops at the
/// first candidate whose MAC verifies, after a ring with no candidate (the
/// anchor's whole component is covered) or after ring `bound`. Returns the
/// resolved node, or kInvalidNode.
template <typename MacOk>
NodeId search(Walker& w, const net::Topology& topo, NodeId anchor, std::size_t bound,
              const crypto::KeyStore& keys, ByteView report, crypto::PrfCache* cache,
              const crypto::PrfCache::RowRef& row, std::unique_lock<std::mutex>& lock,
              ByteView id_field, Meter& meter, MacOk&& mac_ok) {
  const std::size_t anon_len = id_field.size();
  auto matches = [&](const std::uint8_t* anon) {
    return anon_len == 0 || std::memcmp(anon, id_field.data(), anon_len) == 0;
  };
  RingMemo::Order order = w.memo.order(topo, anchor);
  for (std::size_t r = 1;; ++r) {
    if (r > 1) ++meter.expansions;
    if (r > order.rings) order = w.memo.grow(topo, anchor);
    const NodeId* it = order.ids + (r > 1 ? order.ends[r - 2] : 0);
    const NodeId* const last = order.ids + order.ends[r - 1];
    bool grew = false;
    for (; it != last; ++it) {
      if (!candidate(*it, keys)) continue;
      grew = true;
      const std::uint8_t* anon = row ? row->find(*it) : nullptr;
      if (anon == nullptr) break;
      ++meter.walked;
      ++meter.hits;
      if (!matches(anon)) continue;
      ++meter.macs;
      if (mac_ok(*it)) {
        const NodeId resolved = *it;
        const NodeId* miss = std::find_if(it + 1, last, [&](NodeId v) {
          return candidate(v, keys) && row->find(v) == nullptr;
        });
        if (miss != last) sweep_misses(w, miss, last, keys, report, cache, row, lock, anon_len);
        return resolved;
      }
    }
    if (it != last) {
      sweep_misses(w, it, last, keys, report, cache, row, lock, anon_len);
      for (std::size_t i = 0; i < w.cands.size(); ++i) {
        ++meter.walked;
        if (w.hit[i]) ++meter.hits;
        if (!matches(w.anons[i])) continue;
        ++meter.macs;
        if (mac_ok(w.cands[i])) return w.cands[i];
      }
    }
    if (!grew || r + 1 > bound) return kInvalidNode;
  }
}

}  // namespace

marking::VerifyResult scoped_verify_pnm(const net::Packet& p,
                                        const crypto::KeyStore& keys,
                                        const net::Topology& topo,
                                        const marking::SchemeConfig& cfg,
                                        ScopedVerifyStats* stats,
                                        crypto::PrfCache* cache,
                                        util::Counters* counters) {
  util::Counters& metrics = counters ? *counters : util::Counters::global();
  metrics.add(util::Metric::kPacketsVerified);
  if (p.marks.empty()) return marking::VerifyResult{};

  // One shard lookup per packet; each mark then walks under one row lock.
  const crypto::PrfCache::RowRef row =
      cache ? cache->row(crypto::PrfCache::report_key(p.report), cfg.anon_len) : nullptr;
  // The network diameter bounds every honest gap between consecutive marks.
  const std::size_t ring_bound = topo.node_count();

  Meter meter;
  NodeId anchor = (p.delivered_by != kInvalidNode && p.delivered_by < topo.node_count())
                      ? p.delivered_by
                      : kSinkId;

  // A mark resolves by the ring search out from the last resolved node; the
  // pass builds its MAC input before the row lock is taken.
  thread_local Walker walker;
  marking::VerifyResult out =
      marking::nested_backward_pass(p, [&](const net::Mark& m, ByteView input) {
        if (m.id_field.size() != cfg.anon_len) return kInvalidNode;
        std::unique_lock<std::mutex> lock;
        if (row) lock = std::unique_lock<std::mutex>(row->mutex());
        const NodeId resolved =
            search(walker, topo, anchor, ring_bound, keys, p.report, cache, row, lock,
                   m.id_field, meter,
                   [&](NodeId node) { return keys.hmac_key(node).verify(input, m.mac); });
        if (resolved != kInvalidNode) anchor = resolved;  // the next mark is near it
        return resolved;
      });

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
