// The sink benchmark's three workloads.
//
//   replay-flood    in-process ingest::replay_trace, PNM exhaustive, 2 shard
//                   lanes × 1 verifier thread, batch 256; a generated trace of
//                   distinct reports on a 200-forwarder chain (np = 3) spread
//                   over 64 claimed origins.
//   serve-flows     a serve::Server (2 shards, scoped strategy, batch 64) fed
//                   by serve::run_loadgen over 2 loopback TCP connections in a
//                   closed loop; a duplicate-heavy trace of 64 reports, each
//                   delivered 16 times with independent marking draws.
//   campaign-sweep  core::run_sweep over every attack kind × 2 seeds, 20
//                   forwarders, 120 packets per cell, jobs 2.
//
// An untraced run (`traced` false) prints the end-to-end metrics; a traced
// run prints the per-layer ledger and per-layer metrics. Both check every
// output against a reference, and against a pinned digest when given one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ingest/replay.h"
#include "report.h"

namespace sinkbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Expected verdict digest (pipeline workloads) or sweep digest
  /// (campaign-sweep) for this seed; empty = no pin.
  std::string pin;
  /// Scratch directory for trace files the serve and sweep paths need.
  std::string tmp_dir = ".";
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one workload; metrics, work counts and failures land in `report`.
/// False when the workload name is unknown.
bool run_workload(const Options& opts, Report& report);

/// Print the run's context: CPUs, the active SHA-256 rung, and the batch
/// size, shards and strategy the workload passes explicitly.
void print_context(const Options& opts);

/// Count one replay of an n-record trace: n records plus its digest check
/// are attempted; records rejected by CRC or decode, records missing from
/// the fold, and a verdict digest other than `ref` are failures.
void check_replay(const pnm::ingest::ReplayResult& r, std::size_t n, const std::string& ref,
                  Report& rep);

}  // namespace sinkbench
