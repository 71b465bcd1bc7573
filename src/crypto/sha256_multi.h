// Multi-buffer SHA-256 engine: hash many independent messages in lockstep
// SIMD lanes (8-wide AVX2, 4-wide SSE2) with scalar and SHA-NI single-lane
// fallbacks, selected by a runtime CPUID dispatch ladder
//
//     AVX-512 (fused x16 PRF sweep) > SHA-NI (1 lane, hardware rounds)
//         > AVX2 x8 > SSE2 x4 > scalar
//
// Auto dispatch is simply the best supported rung. The avx512 rung has one
// wide kernel only: the fused 16-lane anonymous-ID sweep behind
// anon_id_batch (one report, 16 node ids per call; see anon_id.h).
// Everything else on that rung — Sha256::process_block, lone MACs and
// block-core batches — is single-lane: SHA-NI when the CPU has it, else the
// portable kernel. A generic x16 block core was measured and dropped: it
// ran 43–68 ns/block against SHA-NI's 48–59, so only the fused sweep, which
// never stages blocks or digests through memory, pays for the width. On the
// SHA-NI rung batched calls stay single-lane too: SHA-NI beats full 8-lane
// AVX2 per PRF.
//
// The sink's hot loops — anonymous-ID table rebuilds (one PRF per node per
// report, §4.2) and nested MAC verification — are embarrassingly
// lane-parallel: thousands of independent HMACs over near-identical inputs.
// This engine is their substrate; hmac_batch() / anon_id_batch() sit on top.
//
// One engine, two doors. The core, sha256_multi_blocks(), only advances lane
// states over 64-byte blocks the caller has already padded: it does no
// copying, padding or digest serialization, so a caller whose messages share
// a template (one report's PRF sweep: every lane differs in two id bytes)
// or a fixed shape (the HMAC outer block: 32 digest bytes, 0x80, bit length
// 768) builds the padded blocks once and pays only for compressions.
// sha256_multi() is the raw-message front door: it pads each message into
// scratch (sha256_pad_in_place) and calls the core.
//
// Every backend is bit-identical to the portable reference (asserted by
// tests/sha256_multi_test.cpp across ragged lengths and batch sizes), so
// verdicts, corpus golden digests and metrics JSON never depend on the
// dispatch outcome. `PNM_FORCE_SHA_BACKEND=scalar|sse2|avx2|shani|avx512`
// (env) or force_sha_backend() (API, used by benches/tests) pin a backend
// for A/B runs; forcing an unsupported backend warns once and falls back to
// auto.
//
// Observability: `sha256_backend` gauge (numeric Sha256Backend of the active
// ladder rung) and `crypto_lanes_filled` histogram (jobs per compression
// sweep — 16 means a full fused AVX-512 sweep, 8 full AVX2 lanes, 1
// single-lane traffic) in the global registry.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace pnm::crypto {

/// Dispatch ladder rungs, ordered by preference (gauge value = enum value).
enum class Sha256Backend : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kShaNi = 3,
  kAvx512 = 4,
};

/// Stable lowercase name ("scalar", "sse2", "avx2", "shani", "avx512").
const char* sha_backend_name(Sha256Backend backend);

/// Parse a backend name as accepted by PNM_FORCE_SHA_BACKEND
/// ("scalar", "sse2", "avx2", "shani" / "sha-ni" / "sha_ni", "avx512";
/// case-insensitive).
std::optional<Sha256Backend> parse_sha_backend(std::string_view name);

/// True when this CPU can run `backend`.
bool sha_backend_supported(Sha256Backend backend);

/// The backend every hash in the process currently routes through: the
/// force_sha_backend() override if set, else PNM_FORCE_SHA_BACKEND (read
/// once at startup), else the best supported ladder rung.
Sha256Backend active_sha_backend();

/// Lanes a compression sweep of `backend` retires (avx512: 16 — its fused
/// PRF sweep; the block core runs single-lane on that rung — avx2: 8,
/// sse2: 4, else 1).
std::size_t sha_backend_lanes(Sha256Backend backend);

/// Pin (or with nullopt, unpin) the backend at runtime — the bench/test
/// A/B hook behind BM_AnonTableRebuild and the backend-equivalence property
/// test. The backend must be supported. Takes effect on the next hash;
/// in-flight contexts switch kernels mid-stream, which is safe because every
/// kernel computes the identical compression function.
void force_sha_backend(std::optional<Sha256Backend> backend);

/// 64-byte blocks a `len`-byte message occupies once padded (0x80, zeros,
/// 8-byte big-endian bit length).
constexpr std::size_t sha256_padded_blocks(std::size_t len) { return (len + 9 + 63) / 64; }

/// Pad the `len` message bytes at `buf` in place: buf must have room for
/// sha256_padded_blocks(len) * 64 bytes. The encoded bit length counts
/// `prefix_bytes` already absorbed into the starting state (64 for an HMAC
/// pass seeded from an ipad/opad midstate). Returns the block count.
std::size_t sha256_pad_in_place(std::uint8_t* buf, std::size_t len,
                                std::uint64_t prefix_bytes);

/// One block-level job for the core: advance the 8 chaining words at `state`
/// (in/out) over `nblocks` pre-padded 64-byte blocks at `blocks`.
struct Sha256BlockJob {
  std::uint32_t* state = nullptr;
  const std::uint8_t* blocks = nullptr;
  std::size_t nblocks = 0;
};

/// The engine core: advance every job's state through the active backend.
/// Jobs are grouped by block count (equal-length jobs — the batched PRF/MAC
/// shape — form one group and fill lanes perfectly) and each group runs in
/// lockstep sweeps of the rung's block-core lanes (avx2: 8, sse2: 4; one at a
/// time on scalar, SHA-NI and avx512). Bit-identical to compressing
/// each job's blocks serially with the portable kernel, for every backend.
void sha256_multi_blocks(std::span<const Sha256BlockJob> jobs);

/// One raw-message hashing job. The digest of (implicit prefix || data) is
/// written big-endian to `out` (32 bytes). `init` points at 8 chaining words
/// that have already absorbed `prefix_blocks` 64-byte blocks (HMAC ipad/opad
/// midstates); null means the standard IV with prefix_blocks == 0.
struct Sha256MultiJob {
  const std::uint32_t* init = nullptr;
  std::uint64_t prefix_blocks = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  std::uint8_t* out = nullptr;
};

/// Hash every job: pads each message into thread-local scratch, then runs
/// the core. Bit-identical to hashing each job through Sha256 serially.
void sha256_multi(std::span<const Sha256MultiJob> jobs);

}  // namespace pnm::crypto
