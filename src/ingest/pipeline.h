// Streaming ingest pipeline: the sink's intake lane, sharded by flow.
//
//   producers            shard lanes (N threads)       merge stage (1 thread)
//   run_from_trace / ┌→ queue₀ → decode batch → verify₀ ─┐
//   serve sessions ──┤→ queue₁ → decode batch → verify₁ ─┼→ hand-off → TracebackMerger
//   (push_batch)     └→ queueₙ → decode batch → verifyₙ ─┘  (inbox)   (reorder by seq)
//                                                                     → digest + fold
//
// Records enter through one call, push_batch: a file replay
// (run_from_trace) and a serve session both decode a run of recorded
// records with decode_record and push them as one batch. The ShardRouter
// hashes each record's flow identity (claimed origin location + previous
// hop) to a lane, and the batch is stamped with consecutive global arrival
// sequence numbers. Each lane independently drains FIFO batches through its own
// sink::BatchVerifier handle (private PrfCache — flow affinity keeps a
// flow's PRF probes hot in one cache) and pre-serializes each record's
// digest fingerprint, then appends the whole batch to the hand-off under a
// short lock and goes back to verifying (it waits only when more than one
// batch per lane is already waiting to be merged). Lanes only verify: one
// merge thread swaps the whole hand-off inbox out and feeds it to the
// TracebackMerger, which applies entries strictly in sequence order, so the
// SHA-256 verdict digest and the TracebackEngine state are byte-identical to
// the single-consumer serial pipeline for every shard count, batch size and
// lane interleaving (tests/ingest_test.cpp and the CI determinism matrix
// assert this across shards {1,2,8}).
//
// Every shard count has the same shape. run() runs lane 0 on the calling
// thread and spawns lanes 1..N-1 plus the merge thread, so cfg.shards == 1
// is one verifying thread and one merging thread. Nothing is spawned before
// run().
//
// Observability: per-shard `ingest_queue_depth_shard<i>` gauges plus the
// aggregate `ingest_queue_depth` (sampled per drain), the
// `ingest_batch_fold_us` histogram (verify + entry build + hand-off per lane
// batch), an `ingest_shard_imbalance_ppm` histogram (how far the busiest lane
// ran over an even split, recorded once per run), an `ingest_merge_us`
// histogram and an `ingest_merge` span per merge step, and PNM_SPAN scopes
// around the run, each lane and the merge stage for --span-trace.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ingest/bounded_queue.h"
#include "ingest/merger.h"
#include "ingest/shard_router.h"
#include "ingest/stream_digest.h"
#include "sink/batch_verifier.h"
#include "sink/traceback.h"
#include "trace/reader.h"
#include "util/counters.h"

namespace pnm::ingest {

struct PipelineConfig {
  /// Packets buffered per shard queue before push_batch() blocks on that lane.
  std::size_t queue_capacity = 1024;
  /// Packets handed to BatchVerifier::verify_batch per drain. Sized so one
  /// drain feeds the multi-buffer SHA-256 engine enough candidate PRF/MAC
  /// jobs to keep 8-wide lanes saturated; verdicts are batch-size invariant
  /// (CI replays the corpus at several sizes), so this is purely a
  /// throughput knob.
  std::size_t batch_size = 256;
  /// Flow-affine ingest lanes. 1 = the single-consumer reference shape;
  /// clamped to the verifier bank's lane count. Results are shard-count
  /// invariant by construction.
  std::size_t shards = 1;
};

/// One record of a producer's batch (Pipeline::push_batch).
struct PushRecord {
  net::Packet packet;
  double time_s = 0.0;
  /// The record's provenance trace id, exactly
  /// `obs::ProvenanceCollector::global().admit(packet.report,
  /// packet.delivered_by)`: a producer that already hashed the record for its
  /// own provenance stage passes the id on instead of hashing twice. 0 =
  /// unsampled.
  std::uint64_t trace_id = 0;
};

/// A recorded record as a producer pushes it: the decoded packet with its
/// delivered_by, its time, and its admitted provenance id. A wire image
/// net::decode_packet rejects yields nullopt and counts kTraceDecodeErrors
/// into `counters` (when set).
std::optional<PushRecord> decode_record(const trace::TraceRecord& record,
                                        util::Counters* counters);

/// Everything a pipeline run observed, for reporting and assertions.
struct PipelineStats {
  std::size_t records = 0;          ///< packets verified and folded
  std::size_t decode_failures = 0;  ///< wire images net::decode_packet rejected
  std::size_t crc_failures = 0;     ///< trace frames rejected by CRC
  std::size_t bad_records = 0;      ///< CRC-clean frames with malformed payload
  bool truncated = false;           ///< stream ended mid-frame
  bool oversized = false;           ///< stream ended on an insane length prefix
  std::size_t queue_high_water = 0; ///< deepest any shard queue got
  std::size_t shards = 1;           ///< lanes the run actually used
  std::vector<std::size_t> shard_records;  ///< per-lane record counts
  std::size_t merge_max_pending = 0;  ///< reorder-buffer high water (lane skew)
  double elapsed_s = 0.0;
  double records_per_s = 0.0;
};

class Pipeline {
 public:
  /// Lane i drains through bank.lane(i). cfg.shards is clamped to
  /// bank.lanes(). `traceback` may be null (pure verification throughput
  /// runs). The bank and traceback must outlive the pipeline; `counters`
  /// defaults to the bank's counters instance.
  Pipeline(sink::VerifierBank& bank, sink::TracebackEngine* traceback,
           PipelineConfig cfg = {}, util::Counters* counters = nullptr);

  /// Unbinds the global provenance/flight telemetry that the constructor bound
  /// to this pipeline's registry — the registry may die with the pipeline
  /// (private counters instance), and the global collectors must not keep
  /// pointers into it.
  ~Pipeline();

  // ---- producer side (any thread) ----

  /// The one way records enter: route each record to its lane, stamp the
  /// batch with one range of consecutive arrival sequence numbers (one
  /// reservation), and hand each lane's share to its queue with one
  /// BoundedQueue::push_all, blocking on backpressure. Records are moved
  /// from. Returns how many were accepted; any refused because the pipeline
  /// closed are tombstoned so the merge cannot stall.
  ///
  /// With `sink` set, record i also carries stream seq first_stream_seq + i,
  /// and after it is verified its lane invokes `sink->on_entry(stream_seq,
  /// fingerprint, verdict)` — from the lane thread, concurrently with other
  /// lanes — so a session can fold its own per-stream digest while the
  /// global merge proceeds in arrival order. Ownership of `sink` is shared:
  /// every queued record holds a reference, so a producer may abandon its
  /// stream (client disconnect) and drop its handle while records are still
  /// in queues or lane batches without dangling the sink.
  std::size_t push_batch(std::span<PushRecord> records, std::shared_ptr<StreamSink> sink,
                         std::uint64_t first_stream_seq);
  /// Signal end of input; run() returns once every lane drains.
  void close();

  /// Arrival sequence numbers handed out so far.
  std::uint64_t seqs_issued() const {
    return next_seq_.load(std::memory_order_acquire);
  }
  /// True when every issued sequence number has been verified and applied by
  /// the merge — no record is in a queue, a lane batch, or the reorder
  /// buffer. Producers must be paused (or gated) for the answer to stay
  /// true; this is the live-rekey barrier.
  bool quiescent() const { return merger_.frontier() == seqs_issued(); }
  /// Block (polling) until quiescent(). Returns false on timeout.
  bool wait_quiescent(std::chrono::milliseconds timeout);

  // ---- live probes (the anomaly watchdog's view; any thread) ----

  /// Deepest shard queue right now (not the high-water mark).
  std::size_t max_queue_depth() const;
  /// Per-shard queue capacity (the saturation probe's denominator).
  std::size_t queue_capacity() const { return cfg_.queue_capacity; }
  /// Next sequence number the merge is waiting for (stall probe: a frontier
  /// that stops advancing while seqs_issued() is ahead of it).
  std::uint64_t merge_frontier() const { return merger_.frontier(); }

  /// Retire this pipeline's per-shard queue-depth gauges from the metrics
  /// registry (obs::MetricsRegistry::retire): a long-lived daemon that
  /// restarts its pipeline with a different shard count would otherwise
  /// export stale `ingest_queue_depth_shard<i>` series forever. The next
  /// pipeline construction over the same registry revives the series it
  /// actually uses. Call after run() has returned.
  void retire_shard_gauges();

  // ---- consumer side (call run() from exactly one thread) ----

  /// Drain until closed and empty: lane 0 runs on the calling thread,
  /// lanes 1..N-1 and the merge stage on spawned threads, verdicts merged in
  /// arrival order. Returns once every lane has joined and the merge
  /// frontier has reached seqs_issued() (a push racing close() still gets
  /// its tombstone applied). Populates stats()/verdict_digest(). Lane and
  /// merge exceptions rethrow here.
  void run();

  /// File replay: spawns a producer thread that reads `reader` (metering
  /// each outcome), decodes its records and push_batch()es them at most
  /// batch_size at a time, the way a serve session pushes a message's
  /// records; runs the consumers on the calling thread.
  PipelineStats run_from_trace(trace::TraceReader& reader);

  /// Stats of the completed run (partial while running).
  const PipelineStats& stats() const { return stats_; }

  /// Hex SHA-256 over every (wire, delivered_by, verdict) in arrival order.
  /// Finalizes on first call (idempotent afterwards); call after run().
  std::string verdict_digest();

 private:
  struct Item {
    std::uint64_t seq = 0;
    std::uint64_t trace_id = 0;  ///< provenance trace id; 0 = unsampled
    net::Packet packet;
    double time_s = 0.0;
    std::shared_ptr<StreamSink> sink;  ///< per-stream tap, co-owned (serve sessions)
    std::uint64_t stream_seq = 0;      ///< seq within the producing stream
  };

  void run_lane(std::size_t lane);
  void run_merge();
  /// Multi-producer side of the merge stage. hand_off never blocks (a
  /// tombstone from a producer); hand_off_batch is a lane's, and waits for
  /// the next swap while the inbox is over its bound.
  void hand_off(std::vector<FoldEntry> entries);
  void hand_off_batch(std::vector<FoldEntry> entries);
  /// Record the first stage failure and close the queues.
  void fail(std::exception_ptr error);
  void sample_queue_depths(std::size_t lane);

  std::vector<sink::BatchVerifier*> lanes_;
  sink::TracebackEngine* traceback_;
  PipelineConfig cfg_;
  util::Counters* counters_;
  ShardRouter router_;
  obs::Gauge* queue_depth_;  ///< ingest_queue_depth (aggregate), per drain
  std::vector<obs::Gauge*> lane_depth_;   ///< ingest_queue_depth_shard<i>
  obs::Histogram* batch_fold_us_;         ///< ingest_batch_fold_us
  obs::Histogram* shard_imbalance_ppm_;   ///< ingest_shard_imbalance_ppm
  obs::Histogram* merge_us_;              ///< ingest_merge_us, per merge step
  TracebackMerger merger_;  ///< driven only by run_merge() (then hand_off)
  // The hand-off: lanes and late tombstones append, the merge stage swaps
  // the whole inbox out. Everything below is guarded by handoff_mu_.
  std::mutex handoff_mu_;
  std::condition_variable handoff_cv_;  ///< wakes the merge stage
  std::condition_variable swapped_cv_;  ///< wakes lanes waiting on the bound
  std::vector<std::vector<FoldEntry>> inbox_;
  std::size_t inbox_entries_ = 0;  ///< entries across inbox_'s batches
  std::size_t lanes_running_ = 0;
  bool merge_exited_ = false;
  std::exception_ptr error_;  ///< first lane/merge failure of the run
  std::vector<std::unique_ptr<BoundedQueue<Item>>> queues_;
  std::vector<std::size_t> lane_records_;  ///< written only by the owning lane
  std::atomic<std::uint64_t> next_seq_{0};
  PipelineStats stats_;
};

}  // namespace pnm::ingest
