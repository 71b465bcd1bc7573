// Thread-pool-backed batch verification (the sink's scalability engine).
//
// The sink is the choke point of the whole scheme: every suspicious packet
// costs a per-report anonymous-ID table (one PRF per node swept) plus a
// nested backward MAC pass. verify_batch splits a batch into contiguous
// chunks across a util::ThreadPool and runs one verify path per strategy
// over each chunk:
//
//   exhaustive — PnmScheme's early-exit backward pass (§4.2). The marked
//                packets of a chunk are grouped by report and each group
//                grows one shared lazy AnonIdTable, so a flow that re-sends
//                a report sweeps its PRFs once, and only as far as its
//                highest-id marker. A lone packet is a group of one: the
//                very code PnmScheme::verify runs. Other schemes use their
//                own verify().
//   scoped     — scoped_verify_pnm (§7 ring search) with the lane's
//                PrfCache, so repeated reports share work through cache hits.
//
// Determinism contract: results come back indexed by input position and
// each verdict is the one its packet gets verified alone, so a parallel
// batch is bit-identical to a serial loop regardless of worker count or
// scheduling (asserted by tests/batch_verify_test.cpp). Worker scheduling
// never consults an Rng, so seeded experiments stay reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "marking/pnm_scheme.h"
#include "marking/scheme.h"
#include "net/topology.h"
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
  /// thread (the serial reference path). Parallel batches split into chunks
  /// of size/(threads * 4) packets so stragglers even out.
  std::size_t threads = 0;
  BatchStrategy strategy = BatchStrategy::kExhaustive;
};

class BatchVerifier {
 public:
  /// `topo` is required for BatchStrategy::kScoped and ignored otherwise.
  /// `counters` defaults to util::Counters::global() when null; every PNM
  /// verify, in either strategy, meters into it.
  BatchVerifier(const marking::MarkingScheme& scheme, const crypto::KeyStore& keys,
                BatchVerifierConfig cfg = {}, const net::Topology* topo = nullptr,
                util::Counters* counters = nullptr);

  /// Verify every packet; results[i] corresponds to packets[i]. Worker
  /// exceptions propagate to the caller. Also records one batch-latency
  /// sample, a per-packet latency sample into the strategy's histogram
  /// (`verify_packet_us_exhaustive` / `verify_packet_us_scoped`), refreshes
  /// the PRF-cache gauges, and bumps kBatches / kPacketsVerified. Marked
  /// exhaustive packets that share an earlier packet's table count into
  /// `sink_reports_deduped`.
  std::vector<marking::VerifyResult> verify_batch(
      const std::vector<net::Packet>& packets);

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
  /// Verify one chunk: packets[i] into results[i].
  void verify_chunk(std::span<const net::Packet> packets,
                    marking::VerifyResult* results);

  const marking::MarkingScheme& scheme_;
  std::atomic<const crypto::KeyStore*> keys_;
  BatchVerifierConfig cfg_;
  const net::Topology* topo_;
  util::Counters* counters_;
  obs::Histogram* packet_us_;        ///< per-packet verify latency, per strategy
  obs::Gauge* cache_hit_ratio_ppm_;  ///< hits/(hits+misses) in parts-per-million
  obs::Counter* reports_deduped_;    ///< packets that shared another's table
  /// The scheme as PNM, else null: PNM verifies meter into `counters_` and
  /// share tables within a report group.
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
