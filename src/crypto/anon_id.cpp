#include "crypto/anon_id.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256_multi.h"

namespace pnm::crypto {

namespace {

Bytes anon_id_input(ByteView original_message, NodeId real_id) {
  ByteWriter w;
  w.u8(0xA1);  // domain separation: anonymous-ID PRF, never a marking MAC
  w.blob16(original_message);
  w.u16(real_id);
  return w.bytes();
}

}  // namespace

Bytes anon_id(ByteView node_key, ByteView original_message, NodeId real_id,
              std::size_t anon_len) {
  assert(anon_len >= 1 && anon_len <= kSha256DigestSize);
  return truncated_mac(node_key, anon_id_input(original_message, real_id), anon_len);
}

Bytes anon_id(const HmacKey& node_key, ByteView original_message, NodeId real_id,
              std::size_t anon_len) {
  assert(anon_len >= 1 && anon_len <= kSha256DigestSize);
  return truncated_mac(node_key, anon_id_input(original_message, real_id), anon_len);
}

void anon_id_batch(const KeyStore& keys, ByteView report, std::span<const NodeId> ids,
                   std::size_t anon_len, std::uint8_t* out) {
  AnonIdSweepJob job{report, ids, out};
  anon_id_batch_multi(keys, {&job, 1}, anon_len);
}

void anon_id_batch_multi(const KeyStore& keys, std::span<const AnonIdSweepJob> sweep_jobs,
                         std::size_t anon_len) {
  assert(anon_len >= 1 && anon_len <= kSha256DigestSize);
  // Per lane, the fully padded inner message of [0xA1][len16 LE][report]
  // [id16 LE]. Its length is 5 + |report|, independent of the id, so each
  // report's slot is built and padded once, then replicated with only the
  // two id bytes patched.
  std::size_t total = 0;
  std::size_t arena_bytes = 0;
  for (const AnonIdSweepJob& sj : sweep_jobs) {
    total += sj.ids.size();
    arena_bytes += sj.ids.size() * sha256_padded_blocks(5 + sj.report.size()) * 64;
  }
  if (total == 0) return;

  // All reports' lanes share one arena and one hmac_batch_padded call;
  // reports of equal padded length still form one lockstep group downstream.
  thread_local Bytes arena;
  thread_local std::vector<HmacPaddedJob> jobs;
  thread_local std::vector<Sha256Digest> full;
  arena.resize(arena_bytes);
  jobs.resize(total);
  full.resize(total);

  std::size_t lane = 0;
  std::uint8_t* cursor = arena.data();
  for (const AnonIdSweepJob& sj : sweep_jobs) {
    const std::size_t n = sj.ids.size();
    if (n == 0) continue;
    const std::size_t len = 5 + sj.report.size();
    std::uint8_t* slot0 = cursor;
    slot0[0] = 0xA1;  // domain separation: anonymous-ID PRF, never a marking MAC
    slot0[1] = static_cast<std::uint8_t>(sj.report.size());
    slot0[2] = static_cast<std::uint8_t>(sj.report.size() >> 8);
    if (!sj.report.empty()) std::memcpy(slot0 + 3, sj.report.data(), sj.report.size());
    const std::size_t nb = sha256_pad_in_place(slot0, len, 64);  // after the ipad block
    const std::size_t stride = nb * 64;
    for (std::size_t i = 1; i < n; ++i) std::memcpy(cursor + i * stride, slot0, stride);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t* slot = cursor + i * stride;
      slot[len - 2] = static_cast<std::uint8_t>(sj.ids[i]);
      slot[len - 1] = static_cast<std::uint8_t>(sj.ids[i] >> 8);
      jobs[lane + i] = {&keys.hmac_key(sj.ids[i]), slot, nb};
    }
    lane += n;
    cursor += n * stride;
  }

  hmac_batch_padded(std::span<const HmacPaddedJob>(jobs.data(), total), full.data());

  lane = 0;
  for (const AnonIdSweepJob& sj : sweep_jobs) {
    for (std::size_t i = 0; i < sj.ids.size(); ++i)
      std::memcpy(sj.out + i * anon_len, full[lane + i].data(), anon_len);
    lane += sj.ids.size();
  }
}

}  // namespace pnm::crypto
