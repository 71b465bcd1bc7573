// Fused 16-lane AVX-512 anonymous-ID sweep: sixteen node ids of ONE report
// run the whole HMAC-SHA256 PRF in zmm registers, one lane per id.
//
//  - Key midstates: the 16 HmacKey rows (ipad midstate, then opad midstate:
//    16 words each) are loaded and transposed once, 16x16 dwords, giving
//    SoA inner and outer states.
//  - Inner blocks: the report's padded template words are broadcast to
//    every lane; only the two id bytes differ, ORed in per lane wherever
//    they fall (any word, any block).
//  - Rounds: vprord for the rotations, vpternlogd for Ch, Maj and the
//    three-way XORs.
//  - Outer block: the inner state is fed straight in as words 0-7; words
//    8-15 are the fixed HMAC-SHA256 padding (0x80000000, zeros, 768).
//  - Output: only the leading anon_len digest bytes of each lane.
//
// There is no arena, no block staging and no digest round-trip. Compiled
// with -mavx512f -mavx512bw -mavx512vl only (see src/CMakeLists.txt) and
// called strictly behind the runtime cpu_has_avx512() dispatch.
#include "crypto/sha256_compress.h"

#ifdef PNM_SHA256_AVX512

// GCC 12's AVX-512 intrinsics seed their "undefined" passthrough operands
// from themselves, which -Wuninitialized flags inside the header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace pnm::crypto::detail {

namespace {

#define PNM_AVX512_INLINE __attribute__((always_inline)) inline

template <int N>
PNM_AVX512_INLINE __m512i ror(__m512i x) {
  return _mm512_ror_epi32(x, N);
}

PNM_AVX512_INLINE __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

PNM_AVX512_INLINE __m512i add(__m512i a, __m512i b) { return _mm512_add_epi32(a, b); }

/// One SHA-256 compression over 16 lanes. `load_w(t)` yields message word t
/// (t < 16) for every lane; the schedule extends it in registers.
template <class LoadW>
PNM_AVX512_INLINE void compress(__m512i s[8], LoadW load_w) {
  __m512i w[16];
  __m512i a = s[0], b = s[1], c = s[2], d = s[3];
  __m512i e = s[4], f = s[5], g = s[6], h = s[7];
#pragma GCC unroll 64
  for (int t = 0; t < 64; ++t) {
    if (t < 16) {
      w[t] = load_w(t);
    } else {
      const __m512i w15 = w[(t - 15) & 15];
      const __m512i w2 = w[(t - 2) & 15];
      const __m512i s0 = xor3(ror<7>(w15), ror<18>(w15), _mm512_srli_epi32(w15, 3));
      const __m512i s1 = xor3(ror<17>(w2), ror<19>(w2), _mm512_srli_epi32(w2, 10));
      w[t & 15] = add(add(w[t & 15], s0), add(w[(t - 7) & 15], s1));
    }
    const __m512i ch = _mm512_ternarylogic_epi32(e, f, g, 0xCA);   // e ? f : g
    const __m512i maj = _mm512_ternarylogic_epi32(a, b, c, 0xE8);  // majority
    const __m512i t1 = add(add(h, xor3(ror<6>(e), ror<11>(e), ror<25>(e))),
                           add(ch, add(w[t & 15], _mm512_set1_epi32(
                                                      static_cast<int>(kSha256K[t])))));
    const __m512i t2 = add(xor3(ror<2>(a), ror<13>(a), ror<22>(a)), maj);
    h = g;
    g = f;
    f = e;
    e = add(d, t1);
    d = c;
    c = b;
    b = a;
    a = add(t1, t2);
  }
  s[0] = add(s[0], a);
  s[1] = add(s[1], b);
  s[2] = add(s[2], c);
  s[3] = add(s[3], d);
  s[4] = add(s[4], e);
  s[5] = add(s[5], f);
  s[6] = add(s[6], g);
  s[7] = add(s[7], h);
}

/// rows[l] holds lane l's 16 words; cols[c] receives word c of every lane.
PNM_AVX512_INLINE void transpose16(const __m512i rows[16], __m512i cols[16]) {
  // Within each 128-bit lane k, unpacking 32- then 64-bit elements of rows
  // 4g..4g+3 leaves u[4g+j] holding word 4k+j of those four rows.
  __m512i u[16];
#pragma GCC unroll 4
  for (int g = 0; g < 4; ++g) {
    const __m512i* r = rows + 4 * g;
    const __m512i t0 = _mm512_unpacklo_epi32(r[0], r[1]);
    const __m512i t1 = _mm512_unpackhi_epi32(r[0], r[1]);
    const __m512i t2 = _mm512_unpacklo_epi32(r[2], r[3]);
    const __m512i t3 = _mm512_unpackhi_epi32(r[2], r[3]);
    u[4 * g + 0] = _mm512_unpacklo_epi64(t0, t2);
    u[4 * g + 1] = _mm512_unpackhi_epi64(t0, t2);
    u[4 * g + 2] = _mm512_unpacklo_epi64(t1, t3);
    u[4 * g + 3] = _mm512_unpackhi_epi64(t1, t3);
  }
  // A 4x4 transpose of 128-bit lanes across groups: column 4k+j takes lane
  // k of u[j], u[4+j], u[8+j], u[12+j].
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    const __m512i v0 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0x44);
    const __m512i v1 = _mm512_shuffle_i32x4(u[j], u[4 + j], 0xEE);
    const __m512i v2 = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0x44);
    const __m512i v3 = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0xEE);
    cols[j] = _mm512_shuffle_i32x4(v0, v2, 0x88);
    cols[4 + j] = _mm512_shuffle_i32x4(v0, v2, 0xDD);
    cols[8 + j] = _mm512_shuffle_i32x4(v1, v3, 0x88);
    cols[12 + j] = _mm512_shuffle_i32x4(v1, v3, 0xDD);
  }
}

#undef PNM_AVX512_INLINE

}  // namespace

void prf_sweep_x16_avx512(const std::uint32_t* const* key_rows, const std::uint32_t* tmpl,
                          std::size_t nblocks, std::size_t id_pos, const std::uint16_t* ids,
                          std::size_t n, std::size_t anon_len, std::uint8_t* out) {
  __m512i rows[16];
  for (std::size_t l = 0; l < 16; ++l)
    rows[l] = _mm512_loadu_si512(key_rows[l < n ? l : 0]);
  __m512i key[16];
  transpose16(rows, key);

  // Per-lane id bytes, pre-shifted into their big-endian byte slots. Idle
  // lanes read id 0; their results are never stored.
  const __mmask16 live = static_cast<__mmask16>((1u << n) - 1);
  const __m512i id = _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(live, ids));
  const std::size_t hi_pos = id_pos + 1;
  const __m512i lo_shift = _mm512_set1_epi32(static_cast<int>(8 * (3 - id_pos % 4)));
  const __m512i hi_shift = _mm512_set1_epi32(static_cast<int>(8 * (3 - hi_pos % 4)));
  const __m512i lo_byte = _mm512_and_si512(id, _mm512_set1_epi32(0xFF));
  const __m512i lo = _mm512_sllv_epi32(lo_byte, lo_shift);
  const __m512i hi = _mm512_sllv_epi32(_mm512_srli_epi32(id, 8), hi_shift);

  __m512i inner[8];
  for (int i = 0; i < 8; ++i) inner[i] = key[i];
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint32_t* words = tmpl + 16 * b;
    // Word indices of the id bytes inside this block (16 = not here).
    const std::size_t lo_word = id_pos / 64 == b ? id_pos % 64 / 4 : 16;
    const std::size_t hi_word = hi_pos / 64 == b ? hi_pos % 64 / 4 : 16;
    compress(inner, [&](int t) {
      __m512i x = _mm512_set1_epi32(static_cast<int>(words[t]));
      if (static_cast<std::size_t>(t) == lo_word) x = _mm512_or_si512(x, lo);
      if (static_cast<std::size_t>(t) == hi_word) x = _mm512_or_si512(x, hi);
      return x;
    });
  }

  // Outer block: the 32-byte inner digest, 0x80, zeros, bit length
  // (64 + 32) * 8 — the same for every HMAC-SHA256.
  __m512i outer[8];
  for (int i = 0; i < 8; ++i) outer[i] = key[8 + i];
  compress(outer, [&](int t) {
    if (t < 8) return inner[t];
    if (t == 8) return _mm512_set1_epi32(static_cast<int>(0x80000000u));
    if (t == 15) return _mm512_set1_epi32(768);
    return _mm512_setzero_si512();
  });

  alignas(64) std::uint32_t digest[8][16];
  const std::size_t words = (anon_len + 3) / 4;
  for (std::size_t w = 0; w < words; ++w) _mm512_store_si512(digest[w], outer[w]);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t k = 0; k < anon_len; ++k) {
      const std::uint32_t word = digest[k / 4][l];
      out[l * anon_len + k] = static_cast<std::uint8_t>(word >> (24 - 8 * (k % 4)));
    }
  }
}

}  // namespace pnm::crypto::detail

#endif  // PNM_SHA256_AVX512
