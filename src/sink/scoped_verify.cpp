#include "sink/scoped_verify.h"

#include <cstring>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "marking/mark.h"
#include "sink/ring_layers.h"

namespace pnm::sink {

namespace {

/// One mark's ring-by-ring search: the current ring's candidates, their
/// anonymous IDs, and the walk that meters and resolves them.
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
  /// id below keys.size(), ascending) and their anonymous IDs for `report`.
  /// Cache hits come from one batch probe of `cache` (null: every candidate
  /// misses); the misses run as one multi-lane sweep and are cached. Lanes
  /// may compute past the candidate that resolves; that speculation is
  /// unmetered. Returns false when the ring holds no candidate: the search
  /// has covered the anchor's whole component.
  bool load(const crypto::KeyStore& keys, ByteView report, crypto::PrfCache* cache,
            std::uint64_t report_key, std::size_t anon_len);

  const std::vector<NodeId>& candidates() const { return cands_; }

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
  Bytes swept_;  ///< the misses' anonymous IDs, in miss order
};

bool RingWalk::load(const crypto::KeyStore& keys, ByteView report,
                    crypto::PrfCache* cache, std::uint64_t report_key,
                    std::size_t anon_len) {
  anon_len_ = anon_len;
  cands_.clear();
  for (NodeId candidate : layers_.ring()) {
    if (candidate == kSinkId || candidate >= keys.size()) continue;
    cands_.push_back(candidate);
  }
  anons_.resize(cands_.size() * anon_len);
  hit_.assign(cands_.size(), 0);
  if (cache != nullptr && !cands_.empty())
    cache->lookup(report_key, cands_, anon_len, anons_.data(), hit_.data());
  miss_idx_.clear();
  miss_ids_.clear();
  for (std::size_t i = 0; i < cands_.size(); ++i) {
    if (hit_[i]) continue;
    miss_idx_.push_back(static_cast<std::uint32_t>(i));
    miss_ids_.push_back(cands_[i]);
  }
  if (!miss_ids_.empty()) {
    swept_.resize(miss_ids_.size() * anon_len);
    crypto::anon_id_batch(keys, report, miss_ids_, anon_len, swept_.data());
    for (std::size_t k = 0; k < miss_ids_.size(); ++k)
      std::memcpy(anons_.data() + miss_idx_[k] * anon_len, swept_.data() + k * anon_len,
                  anon_len);
    if (cache != nullptr) cache->insert(report_key, miss_ids_, anon_len, swept_.data());
  }
  return !cands_.empty();
}

template <typename MacOk>
RingWalk::Step RingWalk::walk(ByteView id_field, bool cached, util::Counters& metrics,
                              MacOk&& mac_ok) const {
  Step step;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < cands_.size(); ++i) {
    ++step.walked;
    if (cached && hit_[i]) ++hits;
    if (anon_len_ != 0 &&
        std::memcmp(anons_.data() + i * anon_len_, id_field.data(), anon_len_) != 0)
      continue;
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

  const std::uint64_t rkey = cache ? crypto::PrfCache::report_key(p.report) : 0;
  // The network diameter bounds every honest gap between consecutive marks.
  const std::size_t ring_bound = topo.node_count();

  ScopedVerifyStats local;
  NodeId anchor = (p.delivered_by != kInvalidNode && p.delivered_by < topo.node_count())
                      ? p.delivered_by
                      : kSinkId;

  thread_local RingWalk walk;
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    NodeId resolved = kInvalidNode;

    if (m.id_field.size() == cfg.anon_len) {
      Bytes input = marking::nested_mac_input(p, j, m.id_field);
      walk.start(topo, anchor);
      bool grew = false;
      do {
        if (walk.ring() > 1) ++local.ring_expansions;
        grew = walk.load(keys, p.report, cache, rkey, cfg.anon_len);
        const RingWalk::Step step =
            walk.walk(m.id_field, cache != nullptr, metrics, [&](std::size_t i) {
              return keys.hmac_key(walk.candidates()[i]).verify(input, m.mac);
            });
        local.prf_evaluations += step.walked;
        local.mac_checks += step.macs;
        resolved = step.resolved;
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

  if (stats) {
    stats->prf_evaluations += local.prf_evaluations;
    stats->mac_checks += local.mac_checks;
    stats->ring_expansions += local.ring_expansions;
  }
  return out;
}

}  // namespace pnm::sink
