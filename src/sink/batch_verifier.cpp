#include "sink/batch_verifier.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>

#include "marking/pnm_scheme.h"
#include "obs/span.h"
#include "sink/anon_lookup.h"
#include "sink/scoped_verify.h"

namespace pnm::sink {

namespace {
std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
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

void BatchVerifier::rebind_keys(const crypto::KeyStore& keys) {
  keys_.store(&keys, std::memory_order_release);
  // Memoized anon-IDs were computed under the old keys; a stale hit would
  // silently verify against the retired epoch.
  cache_.clear();
}

void BatchVerifier::verify_chunk(std::span<const net::Packet> packets,
                                 marking::VerifyResult* results) {
  const crypto::KeyStore& keys = *keys_.load(std::memory_order_acquire);
  // One latency sample per packet into the strategy histogram; compiled
  // down to the bare verify when metrics are off.
  auto timed = [this, results](std::size_t i, auto&& verify) {
    if constexpr (obs::kMetricsEnabled) {
      auto p0 = std::chrono::steady_clock::now();
      results[i] = verify();
      auto p1 = std::chrono::steady_clock::now();
      packet_us_->record_us(std::chrono::duration<double, std::micro>(p1 - p0).count());
    } else {
      results[i] = verify();
    }
  };

  if (cfg_.strategy == BatchStrategy::kScoped) {
    for (std::size_t i = 0; i < packets.size(); ++i) {
      timed(i, [&] {
        return scoped_verify_pnm(packets[i], keys, *topo_, scheme_.config(), nullptr,
                                 &cache_, counters_);
      });
    }
    return;
  }
  if (pnm_ == nullptr) {
    for (std::size_t i = 0; i < packets.size(); ++i)
      timed(i, [&] { return scheme_.verify(packets[i], keys); });
    return;
  }

  // Exhaustive PNM: marked packets grouped by report (input order within a
  // group), each group over one lazily grown table. Markless packets never
  // sweep, so they skip the grouping.
  thread_local std::vector<std::size_t> order;
  thread_local AnonIdTable table;
  order.clear();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (packets[i].marks.empty()) {
      timed(i, [&] { return pnm_->verify(packets[i], keys, *counters_); });
    } else {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&packets](std::size_t a, std::size_t b) {
    return packets[a].report < packets[b].report;
  });
  std::uint64_t shared = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const net::Packet& p = packets[order[k]];
    if (k > 0 && p.report == packets[order[k - 1]].report) {
      ++shared;
    } else {
      table.clear(scheme_.config().anon_len);
    }
    timed(order[k], [&] { return pnm_->verify(p, keys, *counters_, table); });
  }
  if (shared > 0) reports_deduped_->add(shared);
}

std::vector<marking::VerifyResult> BatchVerifier::verify_batch(
    const std::vector<net::Packet>& packets) {
  PNM_SPAN("verify_batch");
  auto t0 = std::chrono::steady_clock::now();
  std::vector<marking::VerifyResult> results(packets.size());

  if (threads_ <= 1 || packets.size() <= 1) {
    verify_chunk(packets, results.data());
  } else {
    if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
    const std::size_t chunk = std::max<std::size_t>(1, packets.size() / (threads_ * 4));
    std::vector<std::future<void>> pending;
    pending.reserve(packets.size() / chunk + 1);
    for (std::size_t begin = 0; begin < packets.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, packets.size());
      pending.push_back(pool_->submit([this, &packets, &results, begin, end] {
        // Disjoint index ranges: workers write results without synchronization.
        verify_chunk(std::span(packets).subspan(begin, end - begin),
                     results.data() + begin);
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
