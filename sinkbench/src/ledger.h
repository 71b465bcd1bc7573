// The traced side of the sink benchmark.
//
// A traced pass sends a trace through the sink's layers in sequence, from
// the benchmark, one fixed-size batch at a time:
//
//   TraceReader::next → net::decode_packet → BatchVerifier::verify_batch
//   (one VerifierBank lane) → TracebackEngine::fold
//
// and times each call. Fixed batches on one thread make the work counts
// (PRF evaluations, MAC checks, cache hits, deduplicated reports, SIMD lanes
// filled) repeat exactly for a given trace, which the pipeline's
// timing-dependent lane batches do not.
//
// A ledger turns those per-layer times into rows of ns per record and closes
// them against an untraced end-to-end time with an explicit residual row, so
// the rows plus the residual always add up to the untraced total.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/keys.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "sink/batch_verifier.h"
#include "trace/format.h"

namespace sinkbench {

/// The campaign world a sink rebuilds from a trace header, the same way
/// ingest::replay_trace and serve::Server do.
struct World {
  std::unique_ptr<pnm::net::Topology> topo;
  std::unique_ptr<pnm::crypto::KeyStore> keys;
  std::unique_ptr<pnm::marking::MarkingScheme> scheme;
};

/// Nullopt when the header lacks seed, forwarders or a known scheme.
std::optional<World> build_world(const pnm::trace::TraceMeta& meta);

/// Machine-independent work counters, read from the process-wide registry.
struct WorkCounts {
  std::uint64_t prf_evals = 0;
  std::uint64_t mac_checks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t packets_verified = 0;
  std::uint64_t reports_deduped = 0;
  std::uint64_t lane_samples = 0;  ///< crypto_lanes_filled histogram count
  std::uint64_t lanes_filled = 0;  ///< crypto_lanes_filled histogram sum

  static WorkCounts now();
  WorkCounts operator-(const WorkCounts& earlier) const;
  WorkCounts& operator+=(const WorkCounts& more);
  bool operator==(const WorkCounts&) const = default;
};

struct TracedPass {
  bool ok = false;
  std::size_t records = 0;   ///< records verified and folded
  std::size_t rejected = 0;  ///< frames or wire images the reader/decoder refused
  double read_ns = 0.0;      ///< totals over the pass
  double decode_ns = 0.0;
  double verify_ns = 0.0;
  double fold_ns = 0.0;
  std::vector<double> batch_us;  ///< one verify_batch latency per batch
  std::size_t marks_verified = 0;
  bool identified = false;
  std::uint32_t stop_node = 0;
  WorkCounts work;
};

/// The sink side of a traced pass: the campaign world of one trace header
/// and a one-lane VerifierBank metering into the global counters. The lane's
/// PrfCache lives as long as the TracedSink, so a long-lived sink models a
/// daemon whose cache is warm, a fresh one per pass a cold start.
class TracedSink {
 public:
  /// Null when `trace_bytes` has no valid, complete campaign header.
  static std::unique_ptr<TracedSink> open(const std::string& trace_bytes,
                                          pnm::sink::BatchStrategy strategy);

  /// One traced pass over a whole trace image of the same campaign, folded
  /// into a fresh TracebackEngine.
  TracedPass pass(const std::string& trace_bytes, std::size_t batch_size);

 private:
  TracedSink() = default;
  World world_;
  std::unique_ptr<pnm::sink::VerifierBank> bank_;
};

/// One cold traced pass: a fresh TracedSink, so the work counts repeat
/// exactly from pass to pass.
TracedPass traced_pass(const std::string& trace_bytes, pnm::sink::BatchStrategy strategy,
                       std::size_t batch_size);

struct LedgerRow {
  std::string name;
  double ns_per_record = 0.0;
};

struct Ledger {
  std::vector<LedgerRow> rows;  ///< the named rows, then the residual row last
  double total_ns = 0.0;        ///< untraced ns per record
  std::string dominant;         ///< the row with the largest share
};

/// Append `residual_name` = total − Σ rows, and name the dominant row.
Ledger close_ledger(std::vector<LedgerRow> rows, const std::string& residual_name,
                    double total_ns);

/// Print one `ledger <row> <ns> ns <share>%` line per row plus the total.
void print_ledger(const std::string& workload, const Ledger& ledger);

}  // namespace sinkbench
