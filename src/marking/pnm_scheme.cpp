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
  // Both hashes run through the node's memoized key schedule and build
  // their inputs in per-thread scratch (campaign simulations re-mark under
  // the same few thousand node keys millions of times), so only the mark's
  // two fields allocate. Output is bit-identical to the raw-key path and no
  // Rng is consulted, so scenario goldens are unaffected.
  const crypto::HmacKey& schedule = crypto::cached_hmac_key(key);
  Bytes id_field = crypto::anon_id(schedule, p.report, claimed, cfg_.anon_len);
  Bytes mac = nested_mac(schedule, p, p.marks.size(), id_field, cfg_.mac_len);
  return net::Mark{std::move(id_field), std::move(mac)};
}

namespace {

/// Nodes per step of verify()'s lazy sweep: 16 ids is a whole number of
/// multi-lane sweeps on every rung (1, 4, 8 or 16 lanes), and rounding up to
/// the active rung's lanes keeps that true for any wider one. The sweep must
/// reach the highest-id marker, so a smaller step overshoots it by fewer
/// PRFs (half a step on average).
std::size_t sweep_chunk() {
  constexpr std::size_t kTarget = 16;
  const std::size_t lanes = crypto::sha_backend_lanes(crypto::active_sha_backend());
  return (kTarget + lanes - 1) / lanes * lanes;
}

/// The first of `candidates` (ascending ids) whose MAC over `input` matches
/// `mac`, or kInvalidNode. `mac_checks` counts candidates walked up to and
/// including the resolving one. Colliding candidates share one MAC input
/// (same mark, different keys), so two or more run as one multi-lane sweep.
NodeId first_verifying(std::span<const NodeId> candidates, const crypto::KeyStore& keys,
                       ByteView input, ByteView mac, std::uint64_t& mac_checks) {
  if (candidates.size() == 1) {
    ++mac_checks;
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
    ++mac_checks;
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
  thread_local sink::AnonIdTable table;
  table.clear(cfg_.anon_len);
  return verify(p, keys, metrics, table);
}

NodeId AnonSweep::resolve(ByteView anon, ByteView input, ByteView mac) {
  // The table covers nodes 1..table.size() and grows one chunk at a time,
  // only while this mark is unresolved. The mark scans the rows it has not
  // seen yet and MAC-checks the matches in ascending id, so it resolves to
  // the lowest-id candidate whose MAC verifies, after the same MAC checks as
  // a lookup in the full table would make. A mark that resolves inside the
  // swept prefix costs no PRFs; an invalid one sweeps every node first.
  thread_local std::vector<NodeId> candidates;
  for (std::size_t scanned = 0;;) {
    candidates.clear();
    table.collect(anon, scanned, candidates);
    scanned = table.size();
    if (!candidates.empty()) {
      const NodeId resolved = first_verifying(candidates, keys, input, mac, mac_checks);
      if (resolved != kInvalidNode) return resolved;
    }
    const std::size_t swept = table.extend(keys, report, sweep_chunk());
    if (swept == 0) return kInvalidNode;
    prf_evals += swept;
  }
}

VerifyResult PnmScheme::verify(const net::Packet& p, const crypto::KeyStore& keys,
                               util::Counters& metrics, sink::AnonIdTable& table) const {
  metrics.add(util::Metric::kPacketsVerified);
  AnonSweep sweep{table, keys, p.report};
  VerifyResult out = nested_backward_pass(p, [&](const net::Mark& m, ByteView input) {
    return sweep.resolve(m.id_field, input, m.mac);
  });
  if (sweep.prf_evals > 0) metrics.add(util::Metric::kPrfEvals, sweep.prf_evals);
  if (sweep.mac_checks > 0) metrics.add(util::Metric::kMacChecks, sweep.mac_checks);
  return out;
}

}  // namespace pnm::marking
