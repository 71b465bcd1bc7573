// Cross-packet SIMD lane packing: the batch verification planner.
//
// The per-packet paths fill multi-buffer SHA lanes only from within one
// packet — AnonIdTable runs one PRF sweep per report, scoped rings batch one
// mark's cache misses, MAC disambiguation batches one mark's colliding
// candidates — so the AVX2x8 engine routinely runs at occupancy 1-3. The
// planner takes the *whole* verify_batch input and packs lanes across
// packets instead:
//
//   1. dedup   — distinct reports are identified by their full byte string;
//                flows re-deliver the same report, so duplicate packets share
//                one AnonIdTable instead of rebuilding it (exhaustive) and
//                share cache entries / in-flight PRF lanes (scoped);
//   2. sweep   — ALL packets' PRF jobs go through one anon_id_batch_multi
//                call and ALL packets' candidate-MAC disambiguation jobs
//                through one hmac_batch call per round;
//   3. scatter — results are walked back into per-packet VerifyResults in
//                the per-packet path's exact order.
//
// Determinism contract: verdicts are bit-identical to the per-packet path.
// Every hoisted hash has inputs that depend only on packet content — the
// anonymous-ID PRF binds to the original report M (never to resolution
// state) and the nested MAC input M_{j-1}|i' is a pure function of the
// packet bytes — so hoisting changes *when* a value is computed, never
// *what*. The candidate walk order (table order / ring order, ascending ids
// within a ring) and the logical counter accounting (candidates *walked*, up
// to the resolving one) are preserved; lanes may speculatively compute past
// a break point, which is the same unmetered speculation the per-packet
// batched paths already perform. Asserted by tests/batch_plan_test.cpp
// across SHA backends, strategies, and ragged batch shapes.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "util/counters.h"

namespace pnm::sink {

/// How BatchVerifier::verify_batch fills SIMD lanes. Even under kCross the
/// planner only engages when at least two marked packets share a report —
/// all-distinct batches take the per-packet paths, whose table sweeps fill
/// lanes on their own (verdicts are mode-invariant, so the gate is purely a
/// speed heuristic).
enum class PackMode : int {
  kPacket = 0,  ///< per-packet paths (PnmScheme::verify / scoped_verify_pnm)
  kCross = 1,   ///< cross-packet planner (default)
};

/// Stable lowercase name ("packet", "cross").
const char* pack_mode_name(PackMode mode);

/// Parse a mode name as accepted by PNM_PACK_MODE / --pack-mode
/// ("packet" / "per-packet", "cross" / "batch"; case-insensitive).
std::optional<PackMode> parse_pack_mode(std::string_view name);

/// The mode verify_batch uses when BatchVerifierConfig::pack_mode is unset:
/// the force_pack_mode() override if set, else PNM_PACK_MODE (read once at
/// startup), else kCross. Like the SHA backend pin this only changes speed —
/// both modes produce bit-identical verdicts.
PackMode active_pack_mode();

/// Pin (or with nullopt, unpin) the mode at runtime — the bench/test A/B
/// hook behind BM_CrossPacketVerify and the equivalence tests.
void force_pack_mode(std::optional<PackMode> mode);

/// Cross-packet exhaustive planner: verify packets[i] into results[i] with
/// PnmScheme::verify semantics (§4.2 backward pass over a per-report
/// AnonIdTable). One shared table per *distinct* report, all tables built
/// from one global PRF sweep, all candidate MACs from one global MAC sweep.
/// Unlike the per-packet path the sweep has no early exit: every distinct
/// report pays one PRF per non-sink node. `metrics` receives the logical
/// accounting (kPacketsVerified per packet, kPrfEvals per table PRF actually
/// computed, kMacChecks per candidate walked, which matches the per-packet
/// path); `reports_deduped` (optional) counts packets that shared an earlier
/// packet's table.
void plan_verify_exhaustive(const marking::SchemeConfig& cfg,
                            const crypto::KeyStore& keys,
                            std::span<const net::Packet> packets,
                            marking::VerifyResult* results, util::Counters& metrics,
                            obs::Counter* reports_deduped);

/// Cross-packet scoped planner: verify packets[i] into results[i] with
/// scoped_verify_pnm semantics (§7 ring-expanding search). Packets advance
/// as lockstep state machines, each a RingWalk over `topo` — each round
/// loads every in-flight ring with one cache probe, aggregates
/// the rings' PRF cache misses (deduped by (report, node), mirroring what
/// the PrfCache would have deduped serially) into one global PRF sweep and
/// every anon-matching candidate's MAC into one global MAC sweep, then each
/// ring walks its candidates in id order with the serial path's accounting.
/// Cache hit/miss counters are exact per candidate walked except where two
/// in-flight packets probe the same (report, node) in the same round — the
/// same "approximate while concurrent" caveat the parallel per-packet path
/// already carries; verdicts are unaffected.
void plan_verify_scoped(const marking::SchemeConfig& cfg, const crypto::KeyStore& keys,
                        const net::Topology& topo,
                        std::span<const net::Packet> packets,
                        marking::VerifyResult* results, crypto::PrfCache* cache,
                        util::Counters& metrics, obs::Counter* reports_deduped);

}  // namespace pnm::sink
