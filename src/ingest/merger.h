// Deterministic traceback merge: recombining sharded ingest lanes.
//
// Each shard lane verifies its flows independently and emits FoldEntry
// records — the verdict, the previous hop, and the pre-serialized digest
// fingerprint bytes — tagged with the global arrival sequence number the
// producer assigned at enqueue time. The merger holds a reorder buffer (a
// min-heap on seq) and applies entries strictly in sequence order: the
// running SHA-256 sees exactly the byte stream the serial single-consumer
// pipeline fed it, and the TracebackEngine receives exactly the serial fold
// sequence. That is the whole determinism argument: shard count, lane
// scheduling and completion interleaving only decide *when* an entry reaches
// the buffer, never the order it is applied — so the verdict digest is
// byte-identical for every shard count (tests/ingest_test.cpp submits shard
// accumulators in randomized completion order and asserts exactly this).
//
// The merger is single-threaded: one owner calls submit() (the pipeline's
// merge stage), so there is no lock. Only the frontier is published through
// an atomic, for the pipeline's quiescence and stall probes on other threads.
//
// Buffer bound. An entry waits in the reorder buffer only while a lower seq
// is still upstream: in a lane queue, a lane batch, or the pipeline's
// hand-off. A lane reaches any record it holds within its bounded queue plus
// one in-flight batch, so the buffer holds at most what the other lanes
// verify in that window — lane skew, as when lanes merged inline (the
// `merge_max_pending` statistic tracks it). The pipeline's hand-off in
// front of the merger is bounded separately: a lane that finds more than one
// batch per lane waiting there blocks until the merge stage swaps it out.
#pragma once

#include <atomic>
#include <queue>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "sink/traceback.h"

namespace pnm::ingest {

/// One record's contribution to the merged state, produced by a shard lane.
struct FoldEntry {
  std::uint64_t seq = 0;              ///< global arrival sequence number
  std::uint64_t trace_id = 0;         ///< provenance trace id; 0 = unsampled
  NodeId delivered_by = kInvalidNode;
  marking::VerifyResult verdict;
  Bytes fingerprint;  ///< digest bytes: (wire, delivered_by, verdict)
  /// A sequence number consumed by a record that never reached a lane (push
  /// raced close). The merge skips it so the frontier can't stall; dropped
  /// entries contribute nothing to the digest or the traceback state.
  bool dropped = false;
};

/// The digest fingerprint bytes for one verified record — the exact encoding
/// the pre-shard serial pipeline hashed, kept in one place so lanes, tests
/// and any future live sink agree byte-for-byte.
Bytes fold_fingerprint(const net::Packet& p, const marking::VerifyResult& vr);

class TracebackMerger {
 public:
  /// `engine` may be null (pure throughput runs — digest only).
  explicit TracebackMerger(sink::TracebackEngine* engine);

  /// Single owner. Entries may arrive in any order across calls and within a
  /// call; every sequence number must eventually be submitted exactly once.
  void submit(std::vector<FoldEntry> entries);

  /// Entries applied to the digest/engine so far.
  std::size_t folded() const { return folded_; }
  /// Next sequence number the merge is waiting for. Equal to the producer's
  /// issued-seq count exactly when every in-flight record has been verified
  /// and applied — the pipeline's quiescence test (live re-keying barrier).
  /// Safe from any thread; never waits on a fold.
  std::uint64_t frontier() const { return frontier_.load(std::memory_order_acquire); }
  /// Entries currently buffered ahead of the merge frontier.
  std::size_t pending() const { return buffer_.size(); }
  /// Deepest the reorder buffer ever got (the lane-skew telemetry).
  std::size_t max_pending() const { return max_pending_; }

  /// Hex SHA-256 over every applied fingerprint in sequence order.
  /// Finalizes on first call (idempotent afterwards); call once lanes quit.
  std::string digest_hex();

 private:
  struct SeqAfter {
    bool operator()(const FoldEntry& a, const FoldEntry& b) const {
      return a.seq > b.seq;  // min-heap on seq
    }
  };

  void drain_ready();

  std::priority_queue<FoldEntry, std::vector<FoldEntry>, SeqAfter> buffer_;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::uint64_t> frontier_{0};  ///< next_seq_, published
  std::size_t folded_ = 0;
  std::size_t max_pending_ = 0;
  bool accused_ = false;  ///< latch: the engine's first identified transition
  sink::TracebackEngine* engine_;
  crypto::Sha256 digest_;
  std::string digest_hex_;
};

}  // namespace pnm::ingest
