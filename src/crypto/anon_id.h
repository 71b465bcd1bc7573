// Anonymous node IDs (§4.2 of the paper).
//
// In PNM a marking node does not reveal its real ID i; it writes
//   i' = H'_{k_i}(M | i)
// where M is the original report. Binding i' to the message defeats the
// selective-dropping attack: a colluding mole cannot tell which upstream
// nodes marked a given packet, and the mapping changes per message so it
// cannot be accumulated over time.
//
// The anonymous ID is truncated (default 2 bytes). Collisions across the
// network are therefore possible and *expected*; the sink-side lookup
// (sink/anon_lookup.h) returns candidate sets and disambiguates via the MAC.
#pragma once

#include <cstddef>
#include <span>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/ids.h"

namespace pnm::crypto {

inline constexpr std::size_t kDefaultAnonIdSize = 2;

/// Compute the anonymous ID i' = H'_{k}(M | i), truncated to anon_len bytes.
/// H' is domain-separated from the marking MAC by a distinct prefix tag.
Bytes anon_id(ByteView node_key, ByteView original_message, NodeId real_id,
              std::size_t anon_len = kDefaultAnonIdSize);

/// Same PRF through a precomputed key schedule — the sink-side hot path
/// (table builds and ring probes re-key per candidate otherwise).
Bytes anon_id(const HmacKey& node_key, ByteView original_message, NodeId real_id,
              std::size_t anon_len = kDefaultAnonIdSize);

/// Batched PRF sweep over ONE report: out[i*anon_len ..] receives the
/// truncated anonymous ID of candidate ids[i], bit-identical to
/// anon_id(keys.hmac_key(ids[i]), report, ids[i], anon_len) for each i.
///
/// Every lane input shares one template — only the trailing node-id bytes
/// differ — so the report's full padded inner message is built once. On the
/// avx512 rung the fused kernel broadcasts it to 16 lanes and ORs in each
/// lane's id bytes; elsewhere it is replicated with two bytes patched per
/// lane: all lanes have equal length (perfect lockstep occupancy), no lane
/// re-pads, and there is no per-candidate heap traffic. This is the engine
/// under AnonIdTable rebuilds and the scoped ring search (a one-job
/// anon_id_batch_multi).
void anon_id_batch(const KeyStore& keys, ByteView report, std::span<const NodeId> ids,
                   std::size_t anon_len, std::uint8_t* out);

/// One report's PRF sweep inside a cross-report batch: `out` receives
/// ids.size() * anon_len bytes, laid out exactly like anon_id_batch's out.
struct AnonIdSweepJob {
  ByteView report;
  std::span<const NodeId> ids;
  std::uint8_t* out = nullptr;
};

/// Cross-report PRF sweep. On the avx512 rung each job (one report) runs
/// through the fused 16-lane kernel in groups of 16 ids; a final partial
/// group is padded when it is large enough to pay for 16 lanes, else it
/// joins the single-lane path with a scoped probe's few ids. On every other
/// rung all jobs' lanes go through ONE hmac_batch_padded call, so a verify
/// batch of many distinct reports fills SIMD lanes even when each report
/// alone could not. Per-job output is bit-identical to calling
/// anon_id_batch(keys, job.report, job.ids, anon_len, job.out) job by job.
/// This is the engine under the cross-packet batch planner (sink::BatchPlan).
void anon_id_batch_multi(const KeyStore& keys, std::span<const AnonIdSweepJob> sweep_jobs,
                         std::size_t anon_len);

}  // namespace pnm::crypto
