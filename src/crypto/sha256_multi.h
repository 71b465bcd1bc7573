// Multi-buffer SHA-256 engine: hash many independent messages in lockstep
// SIMD lanes (8-wide AVX2, 4-wide SSE2) with scalar and SHA-NI single-lane
// fallbacks, selected by a runtime CPUID dispatch ladder
//
//     SHA-NI (1 lane, hardware rounds) > AVX2 x8 > SSE2 x4 > scalar
//
// Auto dispatch is simply the best supported rung: on the anonymous-ID
// sweeps SHA-NI beats full 8-lane AVX2 per PRF, so batched calls stay on it.
//
// The sink's hot loops — anonymous-ID table rebuilds (one PRF per node per
// report, §4.2) and nested MAC verification — are embarrassingly
// lane-parallel: thousands of independent HMACs over near-identical inputs.
// This engine is their substrate; hmac_batch() / anon_id_batch() sit on top.
//
// Every backend is bit-identical to the portable reference (asserted by
// tests/sha256_multi_test.cpp across ragged lengths and batch sizes), so
// verdicts, corpus golden digests and metrics JSON never depend on the
// dispatch outcome. `PNM_FORCE_SHA_BACKEND=scalar|sse2|avx2|shani` (env) or
// force_sha_backend() (API, used by benches/tests) pin a backend for A/B
// runs; forcing an unsupported backend warns once and falls back to auto.
//
// Observability: `sha256_backend` gauge (numeric Sha256Backend of the active
// ladder rung) and `crypto_lanes_filled` histogram (jobs per compression
// sweep — 8 means full AVX2 lanes, 1 means single-lane traffic) in the
// global registry.
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
};

/// Stable lowercase name ("scalar", "sse2", "avx2", "shani").
const char* sha_backend_name(Sha256Backend backend);

/// Parse a backend name as accepted by PNM_FORCE_SHA_BACKEND / --sha-backend
/// ("scalar", "sse2", "avx2", "shani" / "sha-ni" / "sha_ni"; case-insensitive).
std::optional<Sha256Backend> parse_sha_backend(std::string_view name);

/// True when this CPU can run `backend`.
bool sha_backend_supported(Sha256Backend backend);

/// The backend every hash in the process currently routes through: the
/// force_sha_backend() override if set, else PNM_FORCE_SHA_BACKEND (read
/// once at startup), else the best supported ladder rung.
Sha256Backend active_sha_backend();

/// Lanes a compression sweep of `backend` retires (avx2: 8, sse2: 4, else 1).
std::size_t sha_backend_lanes(Sha256Backend backend);

/// Pin (or with nullopt, unpin) the backend at runtime — the bench/test
/// A/B hook behind BM_AnonTableRebuild and the backend-equivalence property
/// test. The backend must be supported. Takes effect on the next hash;
/// in-flight contexts switch kernels mid-stream, which is safe because every
/// kernel computes the identical compression function.
void force_sha_backend(std::optional<Sha256Backend> backend);

/// One multi-buffer hashing job. The digest of (implicit prefix || data) is
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

/// Hash every job through the active backend. Jobs are grouped by padded
/// block count (equal-length jobs — the batched PRF/MAC shape — form one
/// group and fill lanes perfectly) and each group runs in lockstep sweeps of
/// sha_backend_lanes() jobs. Bit-identical to hashing each job through
/// Sha256 serially, for every backend.
void sha256_multi(std::span<const Sha256MultiJob> jobs);

}  // namespace pnm::crypto
