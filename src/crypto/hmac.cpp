#include "crypto/hmac.h"

#include <array>
#include <cassert>
#include <cstring>
#include <memory>
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
  // Direct-mapped: a key hashes to one slot, a hit compares the key bytes in
  // full, and a colliding key simply rebuilds the slot. Simulated networks
  // mark under a few dozen to a few thousand node keys, so most calls hit.
  // A thread allocates its table on its first call: held in static TLS,
  // 50 KiB would be zeroed at every thread's creation, marking or not. A key
  // longer than a slot holds is rebuilt into a spare schedule on every call.
  constexpr std::size_t kSlotBits = 9;
  constexpr std::size_t kMaxKey = 32;
  struct Slot {
    HmacKey schedule;
    std::uint8_t key[kMaxKey];
    std::uint8_t len;
    bool used;
  };
  static_assert(sizeof(Slot) << kSlotBits <= 64 * 1024);
  thread_local std::unique_ptr<Slot[]> slots;
  thread_local HmacKey spare;
  if (key.size() > kMaxKey) return spare = HmacKey(key);
  if (!slots) slots = std::make_unique<Slot[]>(std::size_t{1} << kSlotBits);

  std::uint64_t h = key.size();
  std::size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, key.data() + i, 8);
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  }
  for (; i < key.size(); ++i) h = (h ^ key[i]) * 0x9e3779b97f4a7c15ULL;
  Slot& slot = slots[h >> (64 - kSlotBits)];
  if (slot.used && slot.len == key.size() &&
      (key.empty() || std::memcmp(slot.key, key.data(), key.size()) == 0))
    return slot.schedule;
  slot.schedule = HmacKey(key);
  if (!key.empty()) std::memcpy(slot.key, key.data(), key.size());
  slot.len = static_cast<std::uint8_t>(key.size());
  slot.used = true;
  return slot.schedule;
}

bool verify_mac(ByteView key, ByteView data, ByteView mac) {
  if (mac.empty() || mac.size() > kSha256DigestSize) return false;
  Sha256Digest full = hmac_sha256(key, data);
  return constant_time_equal(ByteView(full.data(), mac.size()), mac);
}

}  // namespace pnm::crypto
