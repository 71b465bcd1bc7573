// Internal SHA-256 compression kernels shared between the single-buffer
// context (sha256.cpp) and the multi-buffer engine (sha256_multi.cpp). Not
// part of the public crypto API — include only from src/crypto TUs.
//
// The multi-lane kernels live in their own translation units so CMake can
// attach -msse2 / -mavx2 to exactly those files (see src/CMakeLists.txt);
// every call site is guarded by the runtime dispatch in sha256_multi.cpp, so
// release binaries stay portable to any x86-64.
#pragma once

#include <cstdint>

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
#endif  // x86-64

#ifdef PNM_SHA256_MB_SIMD
// Multi-buffer kernels: advance L independent lane states by one block each,
// in lockstep. State is SoA — state[word][lane]; blocks[lane] points at that
// lane's 64-byte block. Compiled with per-file SIMD flags; call only when the
// matching CPUID bit is set (SSE2 is x86-64 baseline, AVX2 is checked).
void compress_x4_sse2(std::uint32_t state[8][4], const std::uint8_t* const blocks[4]);
void compress_x8_avx2(std::uint32_t state[8][8], const std::uint8_t* const blocks[8]);
#endif  // PNM_SHA256_MB_SIMD

}  // namespace pnm::crypto::detail
