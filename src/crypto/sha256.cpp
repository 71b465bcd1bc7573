#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_compress.h"
#include "crypto/sha256_multi.h"

#ifdef PNM_SHA256_X86
#include <immintrin.h>
#endif

namespace pnm::crypto {

namespace detail {

const std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

namespace {
inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

void compress_portable(std::uint32_t state[8], const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#ifdef PNM_SHA256_X86
namespace {

#define PNM_SHANI __attribute__((target("sha,sse4.1"), always_inline)) inline

/// Schedule words w[4i..4i+3] of `block`, big-endian.
PNM_SHANI __m128i shani_load(const std::uint8_t* block, int i, __m128i byte_swap) {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), byte_swap);
}

/// Rounds 4q..4q+3: `w` holds schedule words w[4q..4q+3]; each sha256rnds2
/// retires two rounds on the ABEF/CDGH state pair.
PNM_SHANI void shani_quad(__m128i& abef, __m128i& cdgh, __m128i w, int q) {
  __m128i msg = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * q])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
}

/// Next four schedule words from the last sixteen (w0 oldest, w3 newest):
/// w[i+16] = w[i] + s0(w[i+1]) + w[i+9] + s1(w[i+14]), four at a time.
PNM_SHANI __m128i shani_extend(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  __m128i x = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(x, w3);
}

#undef PNM_SHANI

}  // namespace

// SHA-NI compression (one block). Same schedule recurrence as the portable
// loop above, expressed with the x86 SHA extension: state lives in two
// lanes as ABEF/CDGH, the message schedule advances four w's at a time via
// sha256msg1/msg2, and each sha256rnds2 retires two rounds. Round constants
// come straight from kSha256K, four per group. Guarded by the runtime
// dispatch ladder; the portable path stays the reference implementation.
//
// Written out as 16 straight-line quad-rounds on purpose: as a 16-iteration
// loop indexing w[i & 3], the compiler kept it rolled and spilled the
// schedule to the stack (~100 ns/block vs ~66 ns unrolled, same output).
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t* state,
                                                          const std::uint8_t* block) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);              // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);            // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);    // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);         // CDGH

  const __m128i abef_save = abef;
  const __m128i cdgh_save = cdgh;

  __m128i w0 = shani_load(block, 0, kByteSwap), w1 = shani_load(block, 1, kByteSwap);
  __m128i w2 = shani_load(block, 2, kByteSwap), w3 = shani_load(block, 3, kByteSwap);

  shani_quad(abef, cdgh, w0, 0);
  shani_quad(abef, cdgh, w1, 1);
  shani_quad(abef, cdgh, w2, 2);
  shani_quad(abef, cdgh, w3, 3);
  w0 = shani_extend(w0, w1, w2, w3);
  shani_quad(abef, cdgh, w0, 4);
  w1 = shani_extend(w1, w2, w3, w0);
  shani_quad(abef, cdgh, w1, 5);
  w2 = shani_extend(w2, w3, w0, w1);
  shani_quad(abef, cdgh, w2, 6);
  w3 = shani_extend(w3, w0, w1, w2);
  shani_quad(abef, cdgh, w3, 7);
  w0 = shani_extend(w0, w1, w2, w3);
  shani_quad(abef, cdgh, w0, 8);
  w1 = shani_extend(w1, w2, w3, w0);
  shani_quad(abef, cdgh, w1, 9);
  w2 = shani_extend(w2, w3, w0, w1);
  shani_quad(abef, cdgh, w2, 10);
  w3 = shani_extend(w3, w0, w1, w2);
  shani_quad(abef, cdgh, w3, 11);
  w0 = shani_extend(w0, w1, w2, w3);
  shani_quad(abef, cdgh, w0, 12);
  w1 = shani_extend(w1, w2, w3, w0);
  shani_quad(abef, cdgh, w1, 13);
  w2 = shani_extend(w2, w3, w0, w1);
  shani_quad(abef, cdgh, w2, 14);
  w3 = shani_extend(w3, w0, w1, w2);
  shani_quad(abef, cdgh, w3, 15);

  abef = _mm_add_epi32(abef, abef_save);
  cdgh = _mm_add_epi32(cdgh, cdgh_save);

  tmp = _mm_shuffle_epi32(abef, 0x1B);             // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);            // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);         // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);            // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

bool cpu_has_shani() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
}
#endif  // PNM_SHA256_X86

}  // namespace detail

void Sha256::reset() {
  std::memcpy(state_, detail::kSha256Iv, sizeof(state_));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) {
#ifdef PNM_SHA256_X86
  // Consult the dispatch ladder per block (one relaxed atomic read — noise
  // next to a compression) so PNM_FORCE_SHA_BACKEND and the test hook steer
  // the single-buffer path too, not just the multi-lane engine.
  if (detail::single_lane_shani(active_sha_backend())) {
    detail::compress_shani(state_, block);
    return;
  }
#endif
  detail::compress_portable(state_, block);
}

void Sha256::update(ByteView data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buffer_len_, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (data.size() - offset >= 64) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finish() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72];
  std::size_t pad_len = (buffer_len_ < 56) ? 56 - buffer_len_ : 120 - buffer_len_;
  std::memset(pad, 0, sizeof(pad));
  pad[0] = 0x80;
  for (int i = 0; i < 8; ++i)
    pad[pad_len + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  update(ByteView(pad, pad_len + 8));

  Sha256Digest out;
  detail::store_words_be(state_, out.data());
  return out;
}

Sha256Digest Sha256::hash(ByteView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace pnm::crypto
