// Internal SHA-256 compression kernels shared between the single-buffer
// context (sha256.cpp) and the multi-buffer engine (sha256_multi.cpp). Not
// part of the public crypto API — include only from src/crypto TUs.
//
// The multi-lane kernels live in their own translation units so CMake can
// attach -msse2 / -mavx2 / -mavx512* to exactly those files (see
// src/CMakeLists.txt);
// every call site is guarded by the runtime dispatch in sha256_multi.cpp, so
// release binaries stay portable to any x86-64.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256_multi.h"

namespace pnm::crypto::detail {

/// FIPS 180-4 round constants (cube roots of the first 64 primes).
extern const std::uint32_t kSha256K[64];

/// FIPS 180-4 initial hash value H(0).
inline constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                                               0x1f83d9ab, 0x5be0cd19};

/// Serialize 8 chaining words big-endian into out[0..32) — the digest bytes,
/// or the first half of an HMAC outer block.
inline void store_words_be(const std::uint32_t state[8], std::uint8_t* out) {
  for (int w = 0; w < 8; ++w) {
    out[4 * w] = static_cast<std::uint8_t>(state[w] >> 24);
    out[4 * w + 1] = static_cast<std::uint8_t>(state[w] >> 16);
    out[4 * w + 2] = static_cast<std::uint8_t>(state[w] >> 8);
    out[4 * w + 3] = static_cast<std::uint8_t>(state[w]);
  }
}

/// Advance `state` (8 words) by one 64-byte block. Portable reference
/// implementation; every other kernel must be bit-identical to it.
void compress_portable(std::uint32_t state[8], const std::uint8_t* block);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PNM_SHA256_X86 1

/// One block through the SHA-NI extension (caller must check cpu_has_shani).
/// Straight-line quad-rounds so the schedule stays in registers.
void compress_shani(std::uint32_t state[8], const std::uint8_t* block);

bool cpu_has_shani();
bool cpu_has_avx2();
/// AVX-512 F + BW + VL, with the OS saving zmm state.
bool cpu_has_avx512();
#endif  // x86-64

/// True when single-lane work on `backend` runs on SHA-NI: the shani rung,
/// and the avx512 rung on a CPU that also has SHA-NI.
bool single_lane_shani(Sha256Backend backend);

/// Meter one compression sweep's filled lanes in `crypto_lanes_filled`.
void record_lanes_filled(std::size_t lanes);

#ifdef PNM_SHA256_MB_SIMD
// Multi-buffer kernels: advance L independent lane states by one block each,
// in lockstep. State is SoA — state[word][lane]; blocks[lane] points at that
// lane's 64-byte block. Compiled with per-file SIMD flags; call only when the
// matching CPUID bit is set (SSE2 is x86-64 baseline, AVX2 is checked).
void compress_x4_sse2(std::uint32_t state[8][4], const std::uint8_t* const blocks[4]);
void compress_x8_avx2(std::uint32_t state[8][8], const std::uint8_t* const blocks[8]);
#endif  // PNM_SHA256_MB_SIMD

#ifdef PNM_SHA256_AVX512
/// Fused one-report anonymous-ID sweep over `n` (1..16) node ids, one lane
/// each: the whole HMAC (inner blocks from each key's ipad midstate, then
/// the outer block from its opad midstate) runs in registers.
///  - key_rows[l], l < n: lane l's 16 key words (ipad midstate, then opad midstate;
///    HmacKey::words()).
///  - tmpl: the report's padded inner message as `nblocks` * 16 big-endian
///    words, with the two id bytes zeroed; they sit at byte `id_pos` (low
///    byte) and `id_pos + 1` (high byte), any word or block position.
///  - out: lane l's leading `anon_len` digest bytes land at out[l*anon_len].
/// Idle lanes (l >= n) rehash lane 0 and write nothing. Call only when
/// cpu_has_avx512().
void prf_sweep_x16_avx512(const std::uint32_t* const* key_rows, const std::uint32_t* tmpl,
                          std::size_t nblocks, std::size_t id_pos, const std::uint16_t* ids,
                          std::size_t n, std::size_t anon_len, std::uint8_t* out);
#endif  // PNM_SHA256_AVX512

}  // namespace pnm::crypto::detail
