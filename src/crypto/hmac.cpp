#include "crypto/hmac.h"

#include <array>
#include <cassert>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/sha256_compress.h"
#include "crypto/sha256_multi.h"

namespace pnm::crypto {

// Two 8-word midstates and nothing else: one KeyStore row per node.
static_assert(sizeof(HmacKey) == 64);

HmacKey::HmacKey(ByteView key) {
  std::uint8_t block[64];
  std::memset(block, 0, sizeof(block));
  if (key.size() > 64) {
    Sha256Digest kh = Sha256::hash(key);
    std::memcpy(block, kh.data(), kh.size());
  } else if (!key.empty()) {
    std::memcpy(block, key.data(), key.size());
  }

  std::uint8_t pad[64];
  Sha256 ctx;
  for (int i = 0; i < 64; ++i) pad[i] = static_cast<std::uint8_t>(block[i] ^ 0x36);
  ctx.update(ByteView(pad, 64));
  std::memcpy(words_, ctx.chaining_words(), 32);
  ctx.reset();
  for (int i = 0; i < 64; ++i) pad[i] = static_cast<std::uint8_t>(block[i] ^ 0x5c);
  ctx.update(ByteView(pad, 64));
  std::memcpy(words_ + 8, ctx.chaining_words(), 32);
}

Sha256Digest HmacKey::mac(ByteView data) const {
  HmacBatchJob job{this, data};
  Sha256Digest full;
  hmac_batch({&job, 1}, &full);
  return full;
}

Bytes HmacKey::truncated(ByteView data, std::size_t mac_len) const {
  assert(mac_len >= 1 && mac_len <= kSha256DigestSize);
  Sha256Digest full = mac(data);
  return Bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(mac_len));
}

bool HmacKey::verify(ByteView data, ByteView mac_bytes) const {
  if (mac_bytes.empty() || mac_bytes.size() > kSha256DigestSize) return false;
  Sha256Digest full = mac(data);
  return constant_time_equal(ByteView(full.data(), mac_bytes.size()), mac_bytes);
}

Sha256Digest hmac_sha256(ByteView key, ByteView data) { return HmacKey(key).mac(data); }

void hmac_batch(std::span<const HmacBatchJob> jobs, Sha256Digest* outs) {
  const std::size_t n = jobs.size();
  if (n == 0) return;
  // Every inner message is padded into one thread-local arena (no per-MAC
  // heap traffic once warm).
  thread_local Bytes padded;
  thread_local std::vector<HmacPaddedJob> pjobs;
  std::size_t total = 0;
  for (const HmacBatchJob& j : jobs) total += sha256_padded_blocks(j.data.size()) * 64;
  padded.resize(total);
  pjobs.resize(n);
  std::uint8_t* cursor = padded.data();
  for (std::size_t i = 0; i < n; ++i) {
    ByteView data = jobs[i].data;
    if (!data.empty()) std::memcpy(cursor, data.data(), data.size());
    const std::size_t nb = sha256_pad_in_place(cursor, data.size(), 64);
    pjobs[i] = {jobs[i].key, cursor, nb};
    cursor += nb * 64;
  }
  hmac_batch_padded(pjobs, outs);
}

void hmac_batch_padded(std::span<const HmacPaddedJob> jobs, Sha256Digest* outs) {
  const std::size_t n = jobs.size();
  if (n == 0) return;
  // The outer message is always the 32-byte inner digest, so its padding is
  // the same for every HMAC-SHA256: 0x80, zeros, bit length (64 + 32) * 8.
  struct alignas(64) OuterBlock {
    std::uint8_t bytes[64];
  };
  static constexpr std::uint8_t kOuterTail[32] = {0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                                  0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                                  0,    0, 0, 0, 0, 0, 0, 0, 0x03, 0x00};
  thread_local std::vector<std::array<std::uint32_t, 8>> states;
  thread_local std::vector<OuterBlock> outer;
  thread_local std::vector<Sha256BlockJob> block_jobs;
  states.resize(n);
  outer.resize(n);
  block_jobs.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(states[i].data(), jobs[i].key->inner_words(), 32);
    block_jobs[i] = {states[i].data(), jobs[i].blocks, jobs[i].nblocks};
  }
  sha256_multi_blocks(block_jobs);

  for (std::size_t i = 0; i < n; ++i) {
    detail::store_words_be(states[i].data(), outer[i].bytes);
    std::memcpy(outer[i].bytes + 32, kOuterTail, sizeof(kOuterTail));
    std::memcpy(states[i].data(), jobs[i].key->outer_words(), 32);
    block_jobs[i] = {states[i].data(), outer[i].bytes, 1};
  }
  sha256_multi_blocks(block_jobs);

  for (std::size_t i = 0; i < n; ++i) detail::store_words_be(states[i].data(), outs[i].data());
}

Bytes truncated_mac(ByteView key, ByteView data, std::size_t mac_len) {
  assert(mac_len >= 1 && mac_len <= kSha256DigestSize);
  Sha256Digest full = hmac_sha256(key, data);
  return Bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(mac_len));
}

Bytes truncated_mac(const HmacKey& key, ByteView data, std::size_t mac_len) {
  return key.truncated(data, mac_len);
}

const HmacKey& cached_hmac_key(ByteView key) {
  // Simulated networks hold a few thousand node keys; the cap is far above
  // that, so the flush only ever fires on pathological key churn.
  constexpr std::size_t kMaxCachedSchedules = 1 << 14;
  thread_local std::unordered_map<std::string, HmacKey> schedules;
  std::string k(reinterpret_cast<const char*>(key.data()), key.size());
  auto it = schedules.find(k);
  if (it != schedules.end()) return it->second;
  if (schedules.size() >= kMaxCachedSchedules) schedules.clear();
  return schedules.emplace(std::move(k), HmacKey(key)).first->second;
}

bool verify_mac(ByteView key, ByteView data, ByteView mac) {
  if (mac.empty() || mac.size() > kSha256DigestSize) return false;
  Sha256Digest full = hmac_sha256(key, data);
  return constant_time_equal(ByteView(full.data(), mac.size()), mac);
}

}  // namespace pnm::crypto
