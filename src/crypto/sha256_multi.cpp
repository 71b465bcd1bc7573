#include "crypto/sha256_multi.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha256_compress.h"
#include "obs/metrics.h"

namespace pnm::crypto {

namespace {

constexpr std::size_t kMaxLanes = 8;

obs::Gauge& backend_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("sha256_backend");
  return g;
}

obs::Histogram& lanes_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("crypto_lanes_filled");
  return h;
}

bool supported(Sha256Backend b) {
  switch (b) {
    case Sha256Backend::kScalar:
      return true;
#ifdef PNM_SHA256_X86
    case Sha256Backend::kShaNi:
      return detail::cpu_has_shani();
#ifdef PNM_SHA256_MB_SIMD
    case Sha256Backend::kSse2:
      return true;  // x86-64 baseline
    case Sha256Backend::kAvx2:
      return detail::cpu_has_avx2();
#endif
#endif
    default:
      return false;
  }
}

Sha256Backend best_supported() {
  for (Sha256Backend b : {Sha256Backend::kShaNi, Sha256Backend::kAvx2,
                          Sha256Backend::kSse2, Sha256Backend::kScalar}) {
    if (supported(b)) return b;
  }
  return Sha256Backend::kScalar;
}

/// Ladder rung after CPUID detection and the (startup-read) env override.
Sha256Backend resolve_default() {
  if (const char* env = std::getenv("PNM_FORCE_SHA_BACKEND")) {
    if (auto parsed = parse_sha_backend(env)) {
      if (supported(*parsed)) return *parsed;
      std::fprintf(stderr,
                   "pnm: PNM_FORCE_SHA_BACKEND=%s not supported on this CPU; "
                   "using %s\n",
                   env, sha_backend_name(best_supported()));
    } else {
      std::fprintf(stderr,
                   "pnm: unrecognized PNM_FORCE_SHA_BACKEND=%s "
                   "(want scalar|sse2|avx2|shani); using %s\n",
                   env, sha_backend_name(best_supported()));
    }
  }
  return best_supported();
}

/// force_sha_backend override; -1 = none. Relaxed: a stale read during a
/// switch only picks the other (bit-identical) kernel for a few blocks.
std::atomic<int> g_forced{-1};

// Register the engine's instruments before main so the replay metrics key
// set is identical on every backend and workload (the golden pins it).
const bool g_metrics_registered = [] {
  lanes_hist();
  backend_gauge().set(static_cast<int>(best_supported()));
  return true;
}();

/// 64-byte blocks `len` bytes of message expand to once padded (0x80 + zeros
/// + 8-byte bit length).
std::size_t padded_blocks(std::size_t len) { return (len + 9 + 63) / 64; }

/// Pointer to job `j`'s block `b` (of nb total): directly into the message
/// for full interior blocks, else materialized (tail + padding) in `scratch`.
const std::uint8_t* lane_block(const Sha256MultiJob& j, std::size_t b, std::size_t nb,
                               std::uint8_t* scratch) {
  if ((b + 1) * 64 <= j.len) return j.data + b * 64;
  std::memset(scratch, 0, 64);
  std::size_t off = b * 64;
  if (off < j.len) std::memcpy(scratch, j.data + off, j.len - off);
  if (j.len >= off && j.len < off + 64) scratch[j.len - off] = 0x80;
  if (b == nb - 1) {
    std::uint64_t bit_len = (j.prefix_blocks * 64 + j.len) * 8;
    for (int i = 0; i < 8; ++i)
      scratch[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  return scratch;
}

constexpr std::uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Run `n` (<= lanes) equal-block-count jobs through one lockstep sweep set.
void run_chunk(Sha256Backend backend, const Sha256MultiJob* const* jobs, std::size_t n,
               std::size_t nb) {
  lanes_hist().record(n);

  alignas(32) std::uint32_t st[8][kMaxLanes];
  for (std::size_t l = 0; l < n; ++l) {
    const std::uint32_t* init = jobs[l]->init ? jobs[l]->init : kIv;
    for (std::size_t w = 0; w < 8; ++w) st[w][l] = init[w];
  }

  alignas(32) std::uint8_t scratch[kMaxLanes][64];
  const std::uint8_t* ptrs[kMaxLanes];

#ifdef PNM_SHA256_MB_SIMD
  if (backend == Sha256Backend::kAvx2 && n > 1) {
    // Idle lanes rehash lane 0's block into a dummy state slot: the kernel
    // is branch-free across all 8 lanes.
    alignas(32) std::uint32_t soa[8][8];
    for (std::size_t w = 0; w < 8; ++w)
      for (std::size_t l = 0; l < 8; ++l) soa[w][l] = st[w][l < n ? l : 0];
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t l = 0; l < 8; ++l)
        ptrs[l] = lane_block(*jobs[l < n ? l : 0], b, nb, scratch[l]);
      detail::compress_x8_avx2(soa, ptrs);
    }
    for (std::size_t w = 0; w < 8; ++w)
      for (std::size_t l = 0; l < n; ++l) st[w][l] = soa[w][l];
  } else if (backend == Sha256Backend::kSse2 && n > 1) {
    for (std::size_t base = 0; base < n; base += 4) {
      alignas(16) std::uint32_t soa[8][4];
      std::size_t span = std::min<std::size_t>(4, n - base);
      for (std::size_t w = 0; w < 8; ++w)
        for (std::size_t l = 0; l < 4; ++l)
          soa[w][l] = st[w][base + (l < span ? l : 0)];
      for (std::size_t b = 0; b < nb; ++b) {
        for (std::size_t l = 0; l < 4; ++l)
          ptrs[l] = lane_block(*jobs[base + (l < span ? l : 0)], b, nb, scratch[l]);
        detail::compress_x4_sse2(soa, ptrs);
      }
      for (std::size_t w = 0; w < 8; ++w)
        for (std::size_t l = 0; l < span; ++l) st[w][base + l] = soa[w][l];
    }
  } else
#endif
  {
    // Single-lane rungs: SHA-NI's hardware rounds already outrun the SIMD
    // schedule math per block; scalar is the portable floor.
    for (std::size_t l = 0; l < n; ++l) {
      std::uint32_t s[8];
      for (std::size_t w = 0; w < 8; ++w) s[w] = st[w][l];
      for (std::size_t b = 0; b < nb; ++b) {
        const std::uint8_t* block = lane_block(*jobs[l], b, nb, scratch[0]);
#ifdef PNM_SHA256_X86
        if (backend == Sha256Backend::kShaNi) {
          detail::compress_shani(s, block);
          continue;
        }
#endif
        detail::compress_portable(s, block);
      }
      for (std::size_t w = 0; w < 8; ++w) st[w][l] = s[w];
    }
  }

  for (std::size_t l = 0; l < n; ++l) {
    std::uint8_t* out = jobs[l]->out;
    for (std::size_t w = 0; w < 8; ++w) {
      out[4 * w] = static_cast<std::uint8_t>(st[w][l] >> 24);
      out[4 * w + 1] = static_cast<std::uint8_t>(st[w][l] >> 16);
      out[4 * w + 2] = static_cast<std::uint8_t>(st[w][l] >> 8);
      out[4 * w + 3] = static_cast<std::uint8_t>(st[w][l]);
    }
  }
}

}  // namespace

const char* sha_backend_name(Sha256Backend backend) {
  switch (backend) {
    case Sha256Backend::kScalar:
      return "scalar";
    case Sha256Backend::kSse2:
      return "sse2";
    case Sha256Backend::kAvx2:
      return "avx2";
    case Sha256Backend::kShaNi:
      return "shani";
  }
  return "unknown";
}

std::optional<Sha256Backend> parse_sha_backend(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name)
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  if (lower == "scalar") return Sha256Backend::kScalar;
  if (lower == "sse2") return Sha256Backend::kSse2;
  if (lower == "avx2") return Sha256Backend::kAvx2;
  if (lower == "shani" || lower == "sha-ni" || lower == "sha_ni" || lower == "sha")
    return Sha256Backend::kShaNi;
  return std::nullopt;
}

bool sha_backend_supported(Sha256Backend backend) { return supported(backend); }

Sha256Backend active_sha_backend() {
  int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Sha256Backend>(forced);
  static const Sha256Backend resolved = resolve_default();
  return resolved;
}

std::size_t sha_backend_lanes(Sha256Backend backend) {
  switch (backend) {
    case Sha256Backend::kAvx2:
      return 8;
    case Sha256Backend::kSse2:
      return 4;
    default:
      return 1;
  }
}

void force_sha_backend(std::optional<Sha256Backend> backend) {
  assert(!backend || supported(*backend));
  g_forced.store(backend ? static_cast<int>(*backend) : -1, std::memory_order_relaxed);
  backend_gauge().set(static_cast<int>(active_sha_backend()));
}

void sha256_multi(std::span<const Sha256MultiJob> jobs) {
  if (jobs.empty()) return;
  const Sha256Backend backend = active_sha_backend();
  backend_gauge().set(static_cast<int>(backend));
  const std::size_t lanes =
      std::max<std::size_t>(1, std::min(kMaxLanes, sha_backend_lanes(backend)));

  if (lanes == 1) {
    // Single-lane rungs (SHA-NI, scalar) never pack lanes: skip the group
    // sort and the per-chunk SoA staging, and meter one occupancy-1 sample
    // per batch call instead of one per job — the hardware rounds are fast
    // enough that per-job atomics would be a measurable tax.
    lanes_hist().record(1);
    for (const Sha256MultiJob& j : jobs) {
      std::uint32_t s[8];
      std::memcpy(s, j.init ? j.init : kIv, sizeof(s));
      const std::size_t nb = padded_blocks(j.len);
      alignas(16) std::uint8_t scratch[64];
      for (std::size_t b = 0; b < nb; ++b) {
        const std::uint8_t* block = lane_block(j, b, nb, scratch);
#ifdef PNM_SHA256_X86
        if (backend == Sha256Backend::kShaNi) {
          detail::compress_shani(s, block);
          continue;
        }
#endif
        detail::compress_portable(s, block);
      }
      for (std::size_t w = 0; w < 8; ++w) {
        j.out[4 * w] = static_cast<std::uint8_t>(s[w] >> 24);
        j.out[4 * w + 1] = static_cast<std::uint8_t>(s[w] >> 16);
        j.out[4 * w + 2] = static_cast<std::uint8_t>(s[w] >> 8);
        j.out[4 * w + 3] = static_cast<std::uint8_t>(s[w]);
      }
    }
    return;
  }

  // Group jobs by padded block count so every sweep is lockstep. The hot
  // callers (one report's PRF table, one mark's candidate MACs) pass
  // equal-length jobs — a single group, full lanes — so the sort is skipped
  // entirely; ragged batches still come out right, just in more groups.
  thread_local std::vector<std::pair<std::size_t, const Sha256MultiJob*>> order;
  order.clear();
  order.reserve(jobs.size());
  bool presorted = true;
  for (const Sha256MultiJob& j : jobs) {
    std::size_t nb = padded_blocks(j.len);
    if (!order.empty() && nb < order.back().first) presorted = false;
    order.emplace_back(nb, &j);
  }
  if (!presorted) {
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  const Sha256MultiJob* chunk[kMaxLanes];
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t nb = order[i].first;
    std::size_t n = 0;
    while (i < order.size() && order[i].first == nb && n < lanes)
      chunk[n++] = order[i++].second;
    run_chunk(backend, chunk, n, nb);
  }
}

}  // namespace pnm::crypto
