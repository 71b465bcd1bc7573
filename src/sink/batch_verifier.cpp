#include "sink/batch_verifier.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "marking/pnm_scheme.h"
#include "obs/span.h"
#include "sink/batch_plan.h"
#include "sink/scoped_verify.h"

namespace pnm::sink {

namespace {
std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// True when two marked packets carry the same report bytes. The planner's
/// wins come from sharing — one AnonIdTable per distinct report
/// (exhaustive), shared PRF lanes and cache fills (scoped) — so on
/// all-distinct traffic its dedup/wavefront bookkeeping is pure overhead
/// over the per-packet paths, whose table sweeps already fill SIMD lanes on
/// their own. Verdicts are identical either way, so gating on this is a
/// pure speed heuristic.
bool any_shared_report(const std::vector<net::Packet>& packets) {
  std::unordered_set<std::string_view> seen;
  seen.reserve(packets.size());
  for (const net::Packet& p : packets) {
    if (p.marks.empty()) continue;
    std::string_view report(reinterpret_cast<const char*>(p.report.data()),
                            p.report.size());
    if (!seen.insert(report).second) return true;
  }
  return false;
}
}  // namespace

BatchVerifier::BatchVerifier(const marking::MarkingScheme& scheme,
                             const crypto::KeyStore& keys, BatchVerifierConfig cfg,
                             const net::Topology* topo, util::Counters* counters)
    : scheme_(scheme),
      keys_(&keys),
      cfg_(cfg),
      topo_(topo),
      counters_(counters ? counters : &util::Counters::global()),
      packet_us_(&counters_->registry().histogram(
          cfg.strategy == BatchStrategy::kScoped ? "verify_packet_us_scoped"
                                                 : "verify_packet_us_exhaustive")),
      cache_hit_ratio_ppm_(&counters_->registry().gauge("prf_cache_hit_ratio_ppm")),
      reports_deduped_(&counters_->registry().counter("sink_reports_deduped")),
      pnm_(dynamic_cast<const marking::PnmScheme*>(&scheme)),
      threads_(resolve_threads(cfg.threads)) {
  if (cfg_.strategy == BatchStrategy::kScoped && topo_ == nullptr) {
    throw std::invalid_argument("BatchVerifier: scoped strategy needs a topology");
  }
  cache_.bind_entries_gauge(&counters_->registry().gauge("prf_cache_entries"));
}

marking::VerifyResult BatchVerifier::verify_one(const net::Packet& p) {
  const crypto::KeyStore& keys = *keys_.load(std::memory_order_acquire);
  if (cfg_.strategy == BatchStrategy::kScoped) {
    return scoped_verify_pnm(p, keys, *topo_, scheme_.config(), nullptr,
                             cfg_.use_cache ? &cache_ : nullptr, counters_);
  }
  if (pnm_ != nullptr) return pnm_->verify(p, keys, *counters_);
  return scheme_.verify(p, keys);
}

void BatchVerifier::rebind_keys(const crypto::KeyStore& keys) {
  keys_.store(&keys, std::memory_order_release);
  // Memoized anon-IDs were computed under the old keys; a stale hit would
  // silently verify against the retired epoch.
  cache_.clear();
}

std::vector<marking::VerifyResult> BatchVerifier::verify_batch(
    const std::vector<net::Packet>& packets) {
  PNM_SPAN("verify_batch");
  auto t0 = std::chrono::steady_clock::now();
  std::vector<marking::VerifyResult> results(packets.size());

  // Per-packet verify with a latency sample into the strategy histogram;
  // compiled down to the bare verify when metrics are off.
  auto verify_timed = [this, &packets, &results](std::size_t i) {
    if constexpr (obs::kMetricsEnabled) {
      auto p0 = std::chrono::steady_clock::now();
      results[i] = verify_one(packets[i]);
      auto p1 = std::chrono::steady_clock::now();
      packet_us_->record_us(std::chrono::duration<double, std::micro>(p1 - p0).count());
    } else {
      results[i] = verify_one(packets[i]);
    }
  };

  // Cross-packet planner over a contiguous chunk: one shared table per
  // distinct report and globally packed PRF/MAC lanes (sink/batch_plan.h).
  // Per-packet latency samples are amortized — the planner has no per-packet
  // timing boundary, so each packet records the chunk mean.
  auto plan_chunk = [this, &packets, &results](std::size_t begin, std::size_t end) {
    const crypto::KeyStore& keys = *keys_.load(std::memory_order_acquire);
    auto c0 = std::chrono::steady_clock::now();
    std::span<const net::Packet> span(packets.data() + begin, end - begin);
    if (cfg_.strategy == BatchStrategy::kScoped) {
      plan_verify_scoped(scheme_.config(), keys, *topo_, span, results.data() + begin,
                         cfg_.use_cache ? &cache_ : nullptr, *counters_,
                         reports_deduped_);
    } else {
      plan_verify_exhaustive(scheme_.config(), keys, span, results.data() + begin,
                             *counters_, reports_deduped_);
    }
    if constexpr (obs::kMetricsEnabled) {
      auto c1 = std::chrono::steady_clock::now();
      const double per_packet =
          std::chrono::duration<double, std::micro>(c1 - c0).count() /
          static_cast<double>(end - begin);
      for (std::size_t i = begin; i < end; ++i) packet_us_->record_us(per_packet);
    }
  };

  const PackMode mode = cfg_.pack_mode ? *cfg_.pack_mode : active_pack_mode();
  bool cross = mode == PackMode::kCross && pnm_ != nullptr && !packets.empty();
  if (cross && !any_shared_report(packets))
    cross = false;  // all-distinct: planner overhead with no sharing win

  if (threads_ <= 1 || packets.size() <= 1) {
    if (cross) {
      plan_chunk(0, packets.size());
    } else {
      for (std::size_t i = 0; i < packets.size(); ++i) verify_timed(i);
    }
  } else {
    if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
    std::size_t chunk = cfg_.chunk_size;
    if (cross) {
      // One contiguous chunk per worker: the planner's lane packing and
      // table sharing improve with chunk size, and verdicts are chunk-
      // invariant (each chunk is bit-identical to per-packet verification).
      chunk = (packets.size() + threads_ - 1) / threads_;
    } else if (chunk == 0) {
      chunk = std::max<std::size_t>(1, packets.size() / (threads_ * 4));
    }
    std::vector<std::future<void>> pending;
    pending.reserve(packets.size() / chunk + 1);
    for (std::size_t begin = 0; begin < packets.size(); begin += chunk) {
      std::size_t end = std::min(begin + chunk, packets.size());
      pending.push_back(pool_->submit([&verify_timed, &plan_chunk, cross, begin, end] {
        // Disjoint index ranges: workers write results without synchronization.
        if (cross) {
          plan_chunk(begin, end);
        } else {
          for (std::size_t i = begin; i < end; ++i) verify_timed(i);
        }
      }));
    }
    for (auto& f : pending) f.get();  // rethrows worker exceptions in order
  }

  auto t1 = std::chrono::steady_clock::now();
  counters_->add(util::Metric::kBatches);
  counters_->record_batch_latency_us(
      std::chrono::duration<double, std::micro>(t1 - t0).count());
  if constexpr (obs::kMetricsEnabled) {
    std::uint64_t hits = counters_->get(util::Metric::kCacheHits);
    std::uint64_t misses = counters_->get(util::Metric::kCacheMisses);
    if (hits + misses > 0) {
      cache_hit_ratio_ppm_->set(
          static_cast<std::int64_t>(hits * 1000000 / (hits + misses)));
    }
  }
  return results;
}

VerifierBank::VerifierBank(const marking::MarkingScheme& scheme,
                           const crypto::KeyStore& keys, std::size_t lanes,
                           BatchVerifierConfig cfg, const net::Topology* topo,
                           util::Counters* counters) {
  if (lanes == 0) lanes = 1;
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(
        std::make_unique<BatchVerifier>(scheme, keys, cfg, topo, counters));
  }
}

void VerifierBank::rekey(std::shared_ptr<const crypto::KeyStore> keys,
                         std::uint64_t epoch) {
  retained_keys_.push_back(keys);
  for (auto& lane : lanes_) lane->rebind_keys(*keys);
  epoch_.store(epoch, std::memory_order_release);
}

}  // namespace pnm::sink
