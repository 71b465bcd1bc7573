// Load generator for the serve daemon: replays recorded `.pnmtrace` files
// over M concurrent protocol sessions and measures what a client sees —
// sustained records/s across all connections and Ping/Pong round-trip tail
// latency sampled between data chunks.
//
// Each connection slot runs `repeat` sequential sessions of its round-robin
// assigned trace. The client never decodes records: it walks the file's CRC
// frames (header frame first, then record frames), debits one credit per
// record frame and coalesces consecutive frames up to the credit balance
// into each TraceData message, so the protocol cost is dominated by the
// sink's verification — which is the thing being measured. Per-session
// Digest receipts are collected so a harness can compare them against
// `pnm replay` digests (byte-equality is the serve determinism contract).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pnm::serve {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string unix_socket_path;  ///< non-empty = connect here instead of TCP
  std::vector<std::string> traces;
  std::size_t connections = 1;
  std::size_t repeat = 1;      ///< sessions per connection slot
  std::size_t ping_every = 32; ///< record frames between RTT probes; 0 = off
  /// Microseconds to sleep between record frames (sent one at a time when
  /// set). 0 = full speed. Stretches a stream out in wall time — fault
  /// drills (mid-stream aborts) and soak runs need a window to hit.
  std::size_t pace_us = 0;
};

struct SessionResult {
  bool ok = false;
  std::string error;
  std::string trace;
  std::uint64_t records = 0;  ///< records the sink acknowledged in Digest
  std::uint64_t marks = 0;
  std::string digest_hex;  ///< per-stream digest receipt
};

struct LoadgenStats {
  bool ok = false;
  std::string error;  ///< first session failure, if any
  std::size_t sessions = 0;
  std::uint64_t records = 0;
  double elapsed_s = 0.0;
  double records_per_s = 0.0;
  std::size_t rtt_samples = 0;
  double rtt_p50_ms = 0.0;
  double rtt_p95_ms = 0.0;
  double rtt_p99_ms = 0.0;
  double rtt_max_ms = 0.0;
  std::vector<SessionResult> session_results;

  /// Flat JSON object (stable key order): `pnm loadgen --json` writes it and
  /// scripts/serve_smoke.sh reads it.
  std::string to_json() const;
};

LoadgenStats run_loadgen(const LoadgenConfig& cfg);

}  // namespace pnm::serve
