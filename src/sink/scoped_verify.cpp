#include "sink/scoped_verify.h"

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "marking/mark.h"

namespace pnm::sink {

bool RingWalk::load(std::size_t key_count, const crypto::PrfCache* cache,
                    std::uint64_t report_key, std::size_t anon_len) {
  anon_len_ = anon_len;
  cands_.clear();
  for (NodeId candidate : layers_.ring()) {
    if (candidate == kSinkId || candidate >= key_count) continue;
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
  return !cands_.empty();
}

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
  thread_local Bytes swept;
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    NodeId resolved = kInvalidNode;

    if (m.id_field.size() == cfg.anon_len) {
      Bytes input = marking::nested_mac_input(p, j, m.id_field);
      walk.start(topo, anchor);
      bool grew = false;
      do {
        if (walk.ring() > 1) ++local.ring_expansions;
        // One ring: its candidates, one cache probe, then the misses in one
        // multi-lane sweep. Lanes may compute past the resolving candidate;
        // that speculation is unmetered, and every computed value is cached.
        grew = walk.load(keys.size(), cache, rkey, cfg.anon_len);
        if (!walk.miss_ids().empty()) {
          swept.resize(walk.miss_ids().size() * cfg.anon_len);
          crypto::anon_id_batch(keys, p.report, walk.miss_ids(), cfg.anon_len,
                                swept.data());
          for (std::size_t k = 0; k < walk.miss_ids().size(); ++k)
            walk.fill_miss(k, swept.data() + k * cfg.anon_len);
          if (cache) cache->insert(rkey, walk.miss_ids(), cfg.anon_len, swept.data());
        }
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
