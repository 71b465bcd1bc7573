#include "crypto/anon_id.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256_compress.h"
#include "crypto/sha256_multi.h"

namespace pnm::crypto {

namespace {

/// Write `report`'s padded PRF inner message — [0xA1][len16 LE][report]
/// [id16 LE], then padding whose bit length counts the ipad block — into
/// `slot` (sha256_padded_blocks(5 + |report|) * 64 bytes) with both id bytes
/// zero. Its length is independent of the id, so one report's sweep builds
/// it once. Returns the block count.
std::size_t build_template(std::uint8_t* slot, ByteView report) {
  const std::size_t len = 5 + report.size();
  slot[0] = 0xA1;  // domain separation: anonymous-ID PRF, never a marking MAC
  slot[1] = static_cast<std::uint8_t>(report.size());
  slot[2] = static_cast<std::uint8_t>(report.size() >> 8);
  if (!report.empty()) std::memcpy(slot + 3, report.data(), report.size());
  slot[len - 2] = 0;
  slot[len - 1] = 0;
  return sha256_pad_in_place(slot, len, 64);  // after the ipad block
}

/// Sweep `ids` through hmac_batch_padded: the report's template is
/// replicated per lane with only the two id bytes patched, so every lane has
/// the same padded length and the block core runs them in lockstep.
void sweep_blocks(const KeyStore& keys, ByteView report, std::span<const NodeId> ids,
                  std::size_t anon_len, std::uint8_t* out) {
  const std::size_t n = ids.size();
  if (n == 0) return;
  const std::size_t len = 5 + report.size();
  const std::size_t stride = sha256_padded_blocks(len) * 64;

  thread_local Bytes arena;
  thread_local std::vector<HmacPaddedJob> jobs;
  thread_local std::vector<Sha256Digest> full;
  arena.resize(n * stride);
  jobs.resize(n);
  full.resize(n);

  const std::size_t nb = build_template(arena.data(), report);
  for (std::size_t i = 1; i < n; ++i)
    std::memcpy(arena.data() + i * stride, arena.data(), stride);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* slot = arena.data() + i * stride;
    slot[len - 2] = static_cast<std::uint8_t>(ids[i]);
    slot[len - 1] = static_cast<std::uint8_t>(ids[i] >> 8);
    jobs[i] = {&keys.hmac_key(ids[i]), slot, nb};
  }

  hmac_batch_padded(jobs, full.data());
  for (std::size_t i = 0; i < n; ++i)
    std::memcpy(out + i * anon_len, full[i].data(), anon_len);
}

#ifdef PNM_SHA256_AVX512
/// Smallest group the fused kernel takes. One call costs the same for 1 or
/// 16 live lanes: ~1.0–1.2 µs for a one-block report, about as much as six
/// single-lane SHA-NI PRFs (~0.95 µs for 5, ~1.1 µs for 6; 4-vCPU Sapphire
/// Rapids guest). A sweep's last partial group of fewer ids — and a scoped
/// ring probe of ~3 — stays on the single-lane path.
constexpr std::size_t kFusedMinLanes = 6;

/// Run the leading `ids` through the fused 16-lane kernel: every full group
/// of 16, plus the remainder when it has at least kFusedMinLanes ids.
/// Returns how many ids it swept (a prefix of `ids`).
std::size_t sweep_fused(const KeyStore& keys, ByteView report, std::span<const NodeId> ids,
                        std::size_t anon_len, std::uint8_t* out) {
  const std::size_t n = ids.size();
  const std::size_t fused = n % 16 >= kFusedMinLanes ? n : n - n % 16;
  if (fused == 0) return 0;

  thread_local Bytes slot;
  thread_local std::vector<std::uint32_t> tmpl;
  const std::size_t len = 5 + report.size();
  slot.resize(sha256_padded_blocks(len) * 64);
  const std::size_t nb = build_template(slot.data(), report);
  tmpl.resize(nb * 16);
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    const std::uint8_t* p = slot.data() + 4 * i;
    tmpl[i] = (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
              (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
  }

  const std::uint32_t* rows[16];
  for (std::size_t g = 0; g < fused; g += 16) {
    const std::size_t lanes = std::min<std::size_t>(16, fused - g);
    for (std::size_t l = 0; l < lanes; ++l) rows[l] = keys.hmac_key(ids[g + l]).words();
    detail::prf_sweep_x16_avx512(rows, tmpl.data(), nb, len - 2, ids.data() + g, lanes,
                                 anon_len, out + g * anon_len);
    detail::record_lanes_filled(lanes);
  }
  return fused;
}
#endif  // PNM_SHA256_AVX512

}  // namespace

Bytes anon_id(ByteView node_key, ByteView original_message, NodeId real_id,
              std::size_t anon_len) {
  return anon_id(HmacKey(node_key), original_message, real_id, anon_len);
}

Bytes anon_id(const HmacKey& node_key, ByteView original_message, NodeId real_id,
              std::size_t anon_len) {
  assert(anon_len >= 1 && anon_len <= kSha256DigestSize);
  // One lane of sweep_blocks: the padded template in per-thread scratch with
  // this id patched in, so only the returned ID allocates.
  thread_local Bytes slot;
  const std::size_t len = 5 + original_message.size();
  slot.resize(sha256_padded_blocks(len) * 64);
  const std::size_t nb = build_template(slot.data(), original_message);
  slot[len - 2] = static_cast<std::uint8_t>(real_id);
  slot[len - 1] = static_cast<std::uint8_t>(real_id >> 8);
  const HmacPaddedJob job{&node_key, slot.data(), nb};
  Sha256Digest full;
  hmac_batch_padded({&job, 1}, &full);
  return Bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(anon_len));
}

void anon_id_batch(const KeyStore& keys, ByteView report, std::span<const NodeId> ids,
                   std::size_t anon_len, std::uint8_t* out) {
  assert(anon_len >= 1 && anon_len <= kSha256DigestSize);
  std::size_t done = 0;
#ifdef PNM_SHA256_AVX512
  // 16 ids per fused call; what the fused kernel leaves (a short tail, a
  // scoped probe) goes single-lane.
  if (active_sha_backend() == Sha256Backend::kAvx512)
    done = sweep_fused(keys, report, ids, anon_len, out);
#endif
  sweep_blocks(keys, report, ids.subspan(done), anon_len, out + done * anon_len);
}

}  // namespace pnm::crypto
