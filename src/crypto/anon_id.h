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
/// re-pads, and there is no per-candidate heap traffic. On the avx512 rung
/// full groups of 16 ids (and a last group of at least six) run through the
/// fused kernel; a shorter tail, such as a scoped ring probe of ~3 ids, goes
/// single-lane. This is the engine under AnonIdTable sweeps and the scoped
/// ring search.
void anon_id_batch(const KeyStore& keys, ByteView report, std::span<const NodeId> ids,
                   std::size_t anon_len, std::uint8_t* out);

}  // namespace pnm::crypto
