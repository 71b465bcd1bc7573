// Record-level provenance tracing: sampled trace IDs follow individual
// packets through every pipeline stage, answering "what happened to *this*
// record on its way from mark collection to accusation?" — the per-packet
// causal history the aggregate metrics layer (obs/metrics.h) cannot give.
//
// Design points:
//   * Trace IDs are content-derived (a 64-bit FNV-1a over the report bytes
//     plus the delivering hop), so the same record carries the same ID at
//     simulator delivery, in a recorded trace, through `pnm replay` at any
//     shard/thread count, and over a `pnm serve` session — and the
//     hash-based sampling decision is identical everywhere. Replays pick
//     exactly the records the live run picked.
//   * Sampling is default-on at 1-in-64 (set_sample_rate(0) disables). An
//     unsampled record costs one short hash and a branch; a sampled record
//     writes one event per stage into a per-thread bounded ring.
//   * Rings are per-thread and lock-free: the owning thread is the only
//     writer (single-writer seqlock slots, every field a relaxed atomic, so
//     concurrent scrapes are TSan-clean and never torn); a mutex is taken
//     only when a thread leases a ring and when it hands it back.
//   * Ring lifetime: a thread leases a ring on its first emit and returns it
//     to a free list when it exits (a thread_local lease); the next thread
//     to emit adopts a free ring of the current capacity before allocating
//     one. Rings are never freed and keep their events across owners, so
//     snapshot() and the exports see every retained event, and the ring
//     count is bounded by peak concurrent emitters, not by every thread a
//     long-lived process ever started.
//   * Two exports: a *canonical* JSONL restricted to deterministic stages
//     and fields (trace_id, arrival seq, verdict facts, sorted by seq) that
//     is byte-identical across shard/thread configurations — the CI
//     determinism artifact behind `pnm replay --provenance-out` — and the
//     full runtime stream (thread, timestamp, lane, cache/backend context)
//     merged with the span ring into one Chrome trace via
//     export_chrome_trace() (GET /spans, --span-trace, GET /provenance).
//   * With -DPNM_METRICS=0 every hook compiles out: no hash, no sampling
//     branch, no ring write; the exports still link and return empty sets.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/bytes.h"

namespace pnm::obs {

/// Pipeline stages a sampled record reports from, in causal order.
enum class ProvStage : std::uint8_t {
  kDeliver = 0,    ///< simulator delivery / serve session ingress
  kDecode,         ///< wire image decoded into a Packet (canonical)
  kRoute,          ///< shard router picked a lane
  kEnqueue,        ///< stamped with the global arrival seq, queued
  kDequeue,        ///< popped into a lane batch
  kVerify,         ///< verdict facts: chain length, invalid marks (canonical)
  kVerifyCtx,      ///< batch context: SHA backend, PRF cache hit/miss deltas
  kMerge,          ///< entered the seq-ordered reorder buffer
  kFold,           ///< applied to the digest + traceback engine (canonical)
  kAccuse,         ///< this fold flipped the analysis to identified (canonical)
};
inline constexpr std::size_t kProvStageCount = 10;

const char* prov_stage_name(ProvStage s);

/// True for stages whose fields are invariant across shard/thread configs —
/// the subset the canonical JSONL export keeps.
bool prov_stage_canonical(ProvStage s);

/// One structured event. `a`/`b` are stage-specific:
///   kDeliver: a = session id (serve) or 0 (simulator), b = mark count
///   kDecode:  a = mark count, b = report bytes
///   kRoute:   a = lane
///   kEnqueue: a = lane, b = queue depth after enqueue
///   kDequeue: a = lane, b = batch size
///   kVerify:  a = verified chain length, b = invalid marks
///   kVerifyCtx: a = SHA backend index, b = (cache hits delta << 32) | misses
///   kMerge:   a = reorder-buffer depth
///   kFold:    a = total marks, b = verified chain length
///   kAccuse:  a = stop node, b = suspect count
struct ProvEvent {
  std::uint64_t trace_id = 0;  ///< content hash; 0 = unsampled (never stored)
  std::uint64_t seq = 0;       ///< global arrival seq (stream seq at ingress)
  std::uint64_t ts_us = 0;     ///< steady_now_us()
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;       ///< current_thread_id()
  std::uint16_t lane = 0;
  ProvStage stage = ProvStage::kDeliver;
};

/// Content-derived trace ID: FNV-1a over the report bytes and the delivering
/// hop. Never returns 0 (0 is the "unsampled" sentinel).
std::uint64_t prov_trace_id(ByteView report, std::uint64_t delivered_by);

class ProvenanceCollector {
 public:
  static ProvenanceCollector& global();

  /// Sample 1-in-`one_in_n` trace IDs (deterministic in the ID); 0 disables
  /// sampling entirely. Default 64.
  void set_sample_rate(std::uint32_t one_in_n);
  std::uint32_t sample_rate() const {
    return rate_.load(std::memory_order_relaxed);
  }

  /// Deterministic sampling decision for a trace ID: true iff records with
  /// this ID are traced at the current rate.
  bool sampled(std::uint64_t trace_id) const {
    std::uint32_t rate = rate_.load(std::memory_order_relaxed);
    if (rate == 0) return false;
    if (rate == 1) return true;
    return ((trace_id * 0x9E3779B97F4A7C15ull) >> 33) % rate == 0;
  }

  /// `prov_trace_id` + the sampling decision in one step: the ID when
  /// sampled, 0 otherwise. The 0 return is what stage hooks branch on.
  std::uint64_t admit(ByteView report, std::uint64_t delivered_by) const {
    if constexpr (!kMetricsEnabled) return 0;
    if (rate_.load(std::memory_order_relaxed) == 0) return 0;
    std::uint64_t id = prov_trace_id(report, delivered_by);
    return sampled(id) ? id : 0;
  }

  /// Per-thread ring capacity for rings created after this call (power of
  /// two, default 4096). Set once at startup, before the first emit. A
  /// thread only adopts a free ring of the capacity current at its first
  /// emit.
  void set_ring_capacity(std::size_t events);

  /// Rings allocated so far, leased or free. With one ring capacity in use
  /// this is the peak number of threads that held a ring at once.
  std::size_t ring_count() const;

  void emit(const ProvEvent& e);

  /// Merged snapshot of every thread ring, timestamp-ordered. Exact once
  /// writers are quiescent; a concurrent scrape may miss in-flight events
  /// but never returns a torn one.
  std::vector<ProvEvent> snapshot() const;

  /// Events accepted / lost to ring wraparound, across all rings.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Reset every ring (between-run isolation in tests and benches).
  void clear();

  /// Register the sampling telemetry on `registry`:
  /// `provenance_sampled` / `provenance_dropped` counters and the
  /// `provenance_sample_rate_ppm` gauge. Safe to call repeatedly.
  void bind_metrics(MetricsRegistry& registry);

  /// Drop the bound instrument pointers. Must be called before the registry
  /// they live in is destroyed (Pipeline's destructor does this for the
  /// registry it bound in init_lanes()); emits simply stop being metered
  /// until the next bind_metrics.
  void unbind_metrics();

 private:
  struct Ring;
  struct RingLease;
  Ring& ring_for_thread();
  Ring* lease_ring();
  void release_ring(Ring* ring);

  std::atomic<std::uint32_t> rate_{64};
  std::atomic<std::size_t> ring_capacity_{4096};
  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< every ring, in lease order
  std::vector<Ring*> free_rings_;             ///< rings of exited threads
  std::atomic<Counter*> sampled_counter_{nullptr};
  std::atomic<Counter*> dropped_counter_{nullptr};
  std::atomic<Gauge*> rate_gauge_{nullptr};
};

/// Emit one stage event for a sampled record; no-op when `trace_id` is 0 or
/// the layer is compiled out. This is the hook the pipeline stages call.
inline void prov_emit(std::uint64_t trace_id, std::uint64_t seq, ProvStage stage,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      std::uint16_t lane = 0) {
  if constexpr (!kMetricsEnabled) {
    (void)trace_id, (void)seq, (void)stage, (void)a, (void)b, (void)lane;
    return;
  }
  if (trace_id == 0) return;
  ProvEvent e;
  e.trace_id = trace_id;
  e.seq = seq;
  e.stage = stage;
  e.a = a;
  e.b = b;
  e.lane = lane;
  ProvenanceCollector::global().emit(e);
}

/// Canonical JSONL: deterministic stages (decode/verify/fold/accuse) and
/// fields only, sorted by (seq, stage, trace_id) — byte-identical for the
/// same trace and sample rate at every shard/thread count.
std::string provenance_jsonl_canonical();

/// Full runtime JSONL, timestamp-ordered: every stage with thread, lane and
/// timing context. The live-diagnosis view behind GET /provenance.
std::string provenance_jsonl_full();

/// The span ring and the provenance rings merged into one Chrome trace-event
/// JSON stream: spans as "X" duration events, provenance as "i" instants.
/// Both GET /spans and --span-trace serialize through this.
std::string export_chrome_trace();

}  // namespace pnm::obs
