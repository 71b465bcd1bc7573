// Seeded input generator for the sink benchmark.
//
// Writes a complete `.pnmtrace` — a campaign header plus delivered PNM
// packets — through the program's public surfaces only: trace::TraceWriter
// for the bytes, MarkingScheme::mark for every forwarder's mark, and keys
// from core::campaign_master_secret(seed). The header carries everything
// ingest::replay_trace and serve::Server need to rebuild the campaign, so
// the program sees nothing but the generated trace.
//
// Shape: a chain of `forwarders` nodes between a source and the sink; each
// of `reports` distinct reports claims one of `flows` origin locations (the
// flow router's key) and is delivered `deliveries` times, each time with an
// independent marking draw at probability marks_per_packet / forwarders.
// Deliveries are shuffled, so repeats of a report are spread over the
// stream. Exactly one report in every `rate` falls in the program's
// content-hashed provenance sample (1 in 64 by default): left to chance, 64
// reports go wholly unsampled on a third of seeds, and serve-flows' speed
// and memory would then swing with the seed. The same spec always yields
// the same bytes.
#pragma once

#include <cstdint>
#include <string>

namespace sinkbench {

struct GenSpec {
  std::uint64_t seed = 1;
  std::size_t forwarders = 200;
  std::size_t flows = 64;
  std::size_t reports = 1024;
  std::size_t deliveries = 1;  ///< deliveries per report
  double marks_per_packet = 3.0;
  /// Sink strategy the trace is meant for ("exhaustive" or "scoped");
  /// recorded in the header under `bench_strategy`. Readers ignore it.
  std::string strategy = "exhaustive";
};

/// The whole trace file image.
std::string generate_trace(const GenSpec& spec);

/// Records the trace holds (reports × deliveries).
inline std::size_t trace_records(const GenSpec& spec) {
  return spec.reports * spec.deliveries;
}

}  // namespace sinkbench
