// Thread-pool-backed batch verification (the sink's scalability engine).
//
// The sink is the choke point of the whole scheme: every suspicious packet
// costs a per-report anonymous-ID table (one PRF per node) plus a nested
// backward MAC pass. Packets are verified independently — nothing in
// PnmScheme::verify or scoped_verify_pnm touches shared mutable state — so a
// batch of delivered packets fans out across a util::ThreadPool
// embarrassingly.
//
// Determinism contract: results come back indexed by input position, each
// produced by the exact same per-packet code path the serial sink runs, so a
// parallel batch is bit-identical to a serial loop regardless of worker
// count or scheduling (asserted by tests/batch_verify_test.cpp). Worker
// scheduling never consults an Rng, so seeded experiments stay reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "marking/pnm_scheme.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "sink/batch_plan.h"
#include "util/counters.h"
#include "util/thread_pool.h"

namespace pnm::sink {

enum class BatchStrategy {
  /// Per-packet exhaustive AnonIdTable — PnmScheme::verify semantics. Works
  /// for every marking scheme.
  kExhaustive,
  /// §7 topology-scoped ring search (PNM only; requires a topology).
  kScoped,
};

struct BatchVerifierConfig {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline on the caller
  /// thread (the serial reference path).
  std::size_t threads = 0;
  BatchStrategy strategy = BatchStrategy::kExhaustive;
  /// Memoize PRF probes across marks/packets. Consulted by the scoped
  /// strategy only: the exhaustive path computes each (node, report) PRF
  /// exactly once per table already, so there the flag is accepted as a
  /// documented no-op — it neither changes results nor touches the cache
  /// (asserted by tests/batch_verify_test.cpp). Defaults keep it on so
  /// switching strategy never needs a config edit.
  bool use_cache = true;
  /// Packets per task; 0 picks a chunk size that gives each worker ~4 tasks
  /// so stragglers even out. Per-packet pack mode only: the cross-packet
  /// planner always splits the batch into one contiguous chunk per worker,
  /// since bigger chunks mean fuller SIMD lanes and more table sharing.
  std::size_t chunk_size = 0;
  /// How verify_batch fills SIMD lanes: per-packet paths or the cross-packet
  /// planner (sink/batch_plan.h). Unset defers to active_pack_mode()
  /// (--pack-mode / PNM_PACK_MODE / default kCross). Verdicts are
  /// bit-identical either way; the planner applies to PNM only and other
  /// schemes silently use the per-packet path.
  std::optional<PackMode> pack_mode;
};

class BatchVerifier {
 public:
  /// `topo` is required for BatchStrategy::kScoped and ignored otherwise.
  /// `counters` defaults to util::Counters::global() when null; every PNM
  /// verify, in either strategy and pack mode, meters into it.
  BatchVerifier(const marking::MarkingScheme& scheme, const crypto::KeyStore& keys,
                BatchVerifierConfig cfg = {}, const net::Topology* topo = nullptr,
                util::Counters* counters = nullptr);

  /// Verify every packet; results[i] corresponds to packets[i]. Worker
  /// exceptions propagate to the caller. Also records one batch-latency
  /// sample, a per-packet latency sample into the strategy's histogram
  /// (`verify_packet_us_exhaustive` / `verify_packet_us_scoped`), refreshes
  /// the PRF-cache gauges, and bumps kBatches / kPacketsVerified.
  std::vector<marking::VerifyResult> verify_batch(
      const std::vector<net::Packet>& packets);

  /// The per-packet path verify_batch fans out (callable directly).
  marking::VerifyResult verify_one(const net::Packet& p);

  std::size_t thread_count() const { return threads_; }
  crypto::PrfCache& cache() { return cache_; }
  util::Counters& counters() { return *counters_; }

  /// Swap the campaign key set this verifier evaluates against and flush the
  /// PrfCache (its memoized anon-IDs are key-dependent). NOT safe against a
  /// concurrent verify_batch on the same lane — callers quiesce the lane
  /// first (Pipeline::wait_quiescent is the daemon's barrier). `keys` must
  /// outlive every verify that follows.
  void rebind_keys(const crypto::KeyStore& keys);

 private:
  const marking::MarkingScheme& scheme_;
  std::atomic<const crypto::KeyStore*> keys_;
  BatchVerifierConfig cfg_;
  const net::Topology* topo_;
  util::Counters* counters_;
  obs::Histogram* packet_us_;        ///< per-packet verify latency, per strategy
  obs::Gauge* cache_hit_ratio_ppm_;  ///< hits/(hits+misses) in parts-per-million
  obs::Counter* reports_deduped_;    ///< packets that shared another's table
  /// The scheme as PNM, else null: PNM verifies meter into `counters_` and
  /// may take the cross-packet planner.
  const marking::PnmScheme* pnm_;
  crypto::PrfCache cache_;
  std::size_t threads_;
  std::unique_ptr<util::ThreadPool> pool_;  // created lazily, only if threads_ > 1
};

/// A bank of independent verifier handles over one (scheme, keys, topology):
/// the shard-aware face of the batch engine. Each lane owns its PrfCache, so
/// a flow-affine router gives every flow's PRF probes a private, contention-
/// free cache that stays hot for that flow — and concurrent verify_batch
/// calls on distinct lanes never share mutable state (each lane is its own
/// BatchVerifier; the registry instruments they report into are the shared,
/// thread-safe ones). Verdicts are lane-independent: every lane runs the
/// exact same per-packet code path, so which lane verifies a packet can
/// never change its result.
class VerifierBank {
 public:
  VerifierBank(const marking::MarkingScheme& scheme, const crypto::KeyStore& keys,
               std::size_t lanes, BatchVerifierConfig cfg = {},
               const net::Topology* topo = nullptr, util::Counters* counters = nullptr);

  std::size_t lanes() const { return lanes_.size(); }
  BatchVerifier& lane(std::size_t i) { return *lanes_[i]; }
  util::Counters& counters() { return lanes_.front()->counters(); }

  /// Atomically (from the caller's point of view — all lanes must be
  /// quiescent, see BatchVerifier::rebind_keys) advance the bank to a new
  /// campaign key epoch. The bank retains every store it has ever been given
  /// so references handed out under earlier epochs (e.g. the
  /// TracebackEngine's campaign binding) stay valid for the bank's lifetime.
  void rekey(std::shared_ptr<const crypto::KeyStore> keys, std::uint64_t epoch);
  std::uint64_t key_epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  std::vector<std::unique_ptr<BatchVerifier>> lanes_;
  std::vector<std::shared_ptr<const crypto::KeyStore>> retained_keys_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace pnm::sink
