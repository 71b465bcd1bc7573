// Offline replay: rebuild a campaign's sink from a trace header and stream
// the recorded packets through the full ingest pipeline.
//
// The header carries everything the sink side needs — seed (keys), path
// length (topology), scheme and its parameters — and core::decode_campaign,
// the decoder the serve daemon uses too, turns it into that world. A replay
// thus reconstructs the exact verification context of the live run and must
// land on the identical accusation set (stop node + suspect neighborhood).
// The records go through Pipeline::run_from_trace, which reads them with
// TraceReader (trace/reader.h, the one .pnmtrace framer) and pushes them the
// way a serve session does, so a file and a socket carrying the same bytes
// fold to the same verdict digest. That turns one simulation campaign into a
// reusable corpus: benchmarks, regression fixtures and fuzz seeds all run
// against the same fixed stream.
#pragma once

#include <string>

#include "ingest/pipeline.h"
#include "sink/route_reconstruct.h"
#include "trace/reader.h"

namespace pnm::ingest {

struct ReplayOptions {
  /// BatchVerifier worker threads *per shard lane*; 1 = serial reference
  /// path, 0 = hardware.
  std::size_t threads = 1;
  /// Flow-affine ingest shard lanes, each with its own verifier handle and
  /// PrfCache. 1 = the single-consumer reference pipeline. The verdict
  /// digest and accusation set are shard-count invariant.
  std::size_t shards = 1;
  /// Use the §7 topology-scoped ring search instead of the exhaustive
  /// per-report table. PNM scheme only — ignored (exhaustive) otherwise.
  bool scoped = false;
  std::size_t batch_size = 64;
  std::size_t queue_capacity = 1024;
  /// Counters instance to meter into; null = a silent private instance.
  util::Counters* counters = nullptr;
};

struct ReplayResult {
  bool ok = false;        ///< header valid and campaign reconstructible
  std::string error;      ///< reason when !ok
  trace::TraceMeta meta;  ///< echoed header metadata
  PipelineStats stats;
  std::string verdict_digest;  ///< hex; the determinism fingerprint
  sink::RouteAnalysis analysis;
  std::size_t marks_verified = 0;
};

/// Replay from an open reader (must be valid; rewound by the call).
ReplayResult replay_trace(trace::TraceReader& reader, const ReplayOptions& opts = {});

/// Convenience: open `path` and replay it.
ReplayResult replay_file(const std::string& path, const ReplayOptions& opts = {});

}  // namespace pnm::ingest
