#include "marking/pnm_scheme.h"

#include <span>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "crypto/sha256_multi.h"
#include "marking/mark.h"
#include "sink/anon_lookup.h"
#include "util/counters.h"

namespace pnm::marking {

void PnmScheme::mark(net::Packet& p, NodeId self, ByteView key, Rng& rng) const {
  if (!rng.chance(cfg_.mark_probability)) return;
  p.marks.push_back(make_mark(p, self, key, rng));
}

net::Mark PnmScheme::make_mark(const net::Packet& p, NodeId claimed, ByteView key,
                               Rng&) const {
  // The anonymous ID binds to the ORIGINAL report M, not to M_{i-1}: the sink
  // must be able to precompute one table per report that resolves every
  // mark in the packet, regardless of how many marks precede each.
  //
  // Both hashes run through the node's memoized key schedule and the
  // multi-buffer engine (campaign simulations re-mark under the same few
  // thousand node keys millions of times); output is bit-identical to the
  // raw-key path and no Rng is consulted, so scenario goldens are unaffected.
  const crypto::HmacKey& schedule = crypto::cached_hmac_key(key);
  Bytes id_field = crypto::anon_id(schedule, p.report, claimed, cfg_.anon_len);
  Bytes mac = crypto::truncated_mac(schedule,
                                    nested_mac_input(p, p.marks.size(), id_field),
                                    cfg_.mac_len);
  return net::Mark{std::move(id_field), std::move(mac)};
}

namespace {

/// Nodes per step of verify()'s lazy sweep: 32 ids is a whole number of
/// multi-lane sweeps on every rung (1, 4 or 8 lanes), and rounding up to the
/// active rung's lanes keeps that true for any wider one.
std::size_t sweep_chunk() {
  constexpr std::size_t kTarget = 32;
  const std::size_t lanes = crypto::sha_backend_lanes(crypto::active_sha_backend());
  return (kTarget + lanes - 1) / lanes * lanes;
}

/// The first of `candidates` (ascending ids) whose MAC over `input` matches
/// `mac`, or kInvalidNode. kMacChecks meters candidates walked up to and
/// including the resolving one. Colliding candidates share one MAC input
/// (same mark, different keys), so two or more run as one multi-lane sweep.
NodeId first_verifying(std::span<const NodeId> candidates, const crypto::KeyStore& keys,
                       ByteView input, ByteView mac, util::Counters& metrics) {
  if (candidates.size() == 1) {
    metrics.add(util::Metric::kMacChecks);
    return keys.hmac_key(candidates[0]).verify(input, mac) ? candidates[0]
                                                          : kInvalidNode;
  }
  thread_local std::vector<crypto::HmacBatchJob> jobs;
  thread_local std::vector<crypto::Sha256Digest> macs;
  jobs.clear();
  for (NodeId candidate : candidates) jobs.push_back({&keys.hmac_key(candidate), input});
  macs.resize(jobs.size());
  crypto::hmac_batch(jobs, macs.data());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    metrics.add(util::Metric::kMacChecks);
    if (mac.size() >= 1 && mac.size() <= crypto::kSha256DigestSize &&
        constant_time_equal(ByteView(macs[c].data(), mac.size()), mac)) {
      return candidates[c];
    }
  }
  return kInvalidNode;
}

}  // namespace

VerifyResult PnmScheme::verify(const net::Packet& p, const crypto::KeyStore& keys) const {
  return verify(p, keys, util::Counters::global());
}

VerifyResult PnmScheme::verify(const net::Packet& p, const crypto::KeyStore& keys,
                               util::Counters& metrics) const {
  VerifyResult out;
  out.total_marks = p.marks.size();
  metrics.add(util::Metric::kPacketsVerified);
  if (p.marks.empty()) return out;

  // Nested backward pass over an ascending, lazily extended anon-ID sweep.
  // The table covers nodes 1..table.size() and grows one chunk at a time,
  // only while the mark in hand is unresolved. A mark scans the rows it has
  // not seen yet and MAC-checks the matches in ascending id, so it resolves
  // to the lowest-id candidate whose MAC verifies, after the same MAC checks
  // as a lookup in the full table would make. Marks that resolve inside the
  // swept prefix cost no PRFs; an invalid mark sweeps every node before it
  // is declared invalid.
  thread_local sink::AnonIdTable table;
  thread_local std::vector<NodeId> candidates;
  table.clear(cfg_.anon_len);
  const std::size_t chunk = sweep_chunk();
  std::size_t prf_evals = 0;
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    NodeId resolved = kInvalidNode;
    Bytes input;  // nested MAC input, built on the first candidate
    for (std::size_t scanned = 0;;) {
      candidates.clear();
      table.collect(m.id_field, scanned, candidates);
      scanned = table.size();
      if (!candidates.empty()) {
        if (input.empty()) input = nested_mac_input(p, j, m.id_field);
        resolved = first_verifying(candidates, keys, input, m.mac, metrics);
        if (resolved != kInvalidNode) break;
      }
      const std::size_t swept = table.extend(keys, p.report, chunk);
      if (swept == 0) break;
      prf_evals += swept;
    }
    if (resolved == kInvalidNode) {
      out.invalid_marks = j + 1;
      out.truncated_by_invalid = true;
      break;
    }
    out.chain.insert(out.chain.begin(), VerifiedMark{resolved, j});
  }
  if (prf_evals > 0) metrics.add(util::Metric::kPrfEvals, prf_evals);
  return out;
}

}  // namespace pnm::marking
