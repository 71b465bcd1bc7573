// HMAC-SHA256 (RFC 2104) and the truncated-MAC helper used by every marking
// scheme. Sensor marks carry short MACs (default 4 bytes) to respect the
// paper's tight per-packet budget; truncation width is configurable so the
// security/overhead trade-off can be swept in benchmarks.
#pragma once

#include <span>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace pnm::crypto {

/// Full 32-byte HMAC-SHA256 of `data` under `key`.
Sha256Digest hmac_sha256(ByteView key, ByteView data);

/// Precomputed HMAC key schedule (RFC 2104 §4 note): the SHA-256 midstates
/// after absorbing the ipad/opad blocks are fixed per key, so a long-lived
/// key pays the two pad compressions once instead of on every MAC. For the
/// short inputs marks carry this halves HMAC cost — the sink's key table
/// holds one of these per node (crypto::KeyStore::hmac_key). Just the two
/// 8-word midstates: 64 bytes.
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(ByteView key);

  /// Full HMAC-SHA256 of `data` (a one-job hmac_batch); identical output to
  /// hmac_sha256(key, data).
  Sha256Digest mac(ByteView data) const;
  /// Leftmost `mac_len` bytes (RFC 2104 §5); mac_len in [1, 32].
  Bytes truncated(ByteView data, std::size_t mac_len) const;
  /// Verify a truncated MAC in constant time.
  bool verify(ByteView data, ByteView mac) const;

  /// Chaining words after the ipad / opad block (internal): the midstates
  /// the multi-buffer engine seeds lanes from, each one block (64 bytes) in.
  const std::uint32_t* inner_words() const { return words_; }
  const std::uint32_t* outer_words() const { return words_ + 8; }
  /// Both midstates as one 16-word row, ipad first: the row the fused
  /// AVX-512 PRF sweep loads and transposes per lane.
  const std::uint32_t* words() const { return words_; }

 private:
  std::uint32_t words_[16] = {};  // ipad midstate, then opad midstate
};

/// One batched MAC evaluation: HMAC-SHA256 of `data` through `key`'s
/// precomputed schedule.
struct HmacBatchJob {
  const HmacKey* key = nullptr;
  ByteView data;
};

/// Evaluate every job through the multi-buffer SHA-256 engine: pads each
/// inner message into scratch, then runs hmac_batch_padded.
/// outs[i] == jobs[i].key->mac(jobs[i].data), bit-identical on every backend.
/// Equal-length jobs — the PRF-table and candidate-MAC shapes — fill SIMD
/// lanes perfectly.
void hmac_batch(std::span<const HmacBatchJob> jobs, Sha256Digest* outs);

/// One MAC whose inner message the caller has already padded: `blocks` holds
/// `nblocks` 64-byte blocks of data || 0x80 || zeros || bit length, where the
/// bit length counts the 64-byte ipad block (sha256_pad_in_place(buf, len,
/// 64)). Sweeps that share one template per report pad it once.
struct HmacPaddedJob {
  const HmacKey* key = nullptr;
  const std::uint8_t* blocks = nullptr;
  std::size_t nblocks = 0;
};

/// The one HMAC path: two lockstep passes of the block core. The inner pass
/// runs each job's blocks from its key's ipad midstate; the outer pass
/// writes each inner state big-endian into a pre-padded one-block outer
/// message (32 digest bytes, 0x80, bit length 768 — fixed for every
/// HMAC-SHA256) and compresses it from the opad midstate. No digest
/// round-trip, no re-padding.
void hmac_batch_padded(std::span<const HmacPaddedJob> jobs, Sha256Digest* outs);

/// HMAC-SHA256 truncated to `mac_len` bytes (RFC 2104 §5 leftmost bytes).
/// mac_len must be in [1, 32].
Bytes truncated_mac(ByteView key, ByteView data, std::size_t mac_len);

/// Truncated MAC through a precomputed schedule (key.truncated()).
/// Bit-identical to truncated_mac(raw_key, data, mac_len); the pad
/// compressions are already paid.
Bytes truncated_mac(const HmacKey& key, ByteView data, std::size_t mac_len);

/// Thread-local memo of HMAC key schedules keyed by raw key bytes — the
/// marking-side counterpart of KeyStore::hmac_key for callers that only hold
/// a key (simulated nodes re-MAC under their own key per packet; rebuilding
/// the schedule costs two pad compressions per mark otherwise). A
/// direct-mapped table of 512 slots (under 64 KiB per thread): a hit
/// compares the key bytes in full, so it is right whatever memory the key
/// came from, and a colliding key rebuilds its slot. Only a thread's first
/// call allocates (its table). The returned reference is only valid until
/// the next cached_hmac_key call on this thread.
const HmacKey& cached_hmac_key(ByteView key);

/// Verify a truncated MAC in constant time.
bool verify_mac(ByteView key, ByteView data, ByteView mac);

}  // namespace pnm::crypto
