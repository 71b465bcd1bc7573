#include "crypto/sha256_multi.h"

#include <algorithm>
#include <array>
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
#ifdef PNM_SHA256_AVX512
    case Sha256Backend::kAvx512:
      return detail::cpu_has_avx512();
#endif
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
  for (Sha256Backend b : {Sha256Backend::kAvx512, Sha256Backend::kShaNi,
                          Sha256Backend::kAvx2, Sha256Backend::kSse2,
                          Sha256Backend::kScalar}) {
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
                   "(want scalar|sse2|avx2|shani|avx512); using %s\n",
                   env, sha_backend_name(best_supported()));
    }
  }
  return best_supported();
}

/// force_sha_backend override; -1 = none. Relaxed: a stale read during a
/// switch only picks the other (bit-identical) kernel for a few blocks.
std::atomic<int> g_forced{-1};

// Register the engine's instruments before main so the replay metrics key
// set is identical on every backend and workload (the golden pins it). The
// gauge holds the rung batches will run on, the env override included;
// force_sha_backend is the only other place that changes it.
const bool g_metrics_registered = [] {
  lanes_hist();
  backend_gauge().set(static_cast<int>(active_sha_backend()));
  return true;
}();

/// Advance one lane's state over its blocks single-lane. SHA-NI's hardware
/// rounds already outrun the SIMD schedule math per block; scalar is the
/// portable floor.
void run_single(Sha256Backend backend, const Sha256BlockJob& j) {
#ifdef PNM_SHA256_X86
  if (detail::single_lane_shani(backend)) {
    for (std::size_t b = 0; b < j.nblocks; ++b) detail::compress_shani(j.state, j.blocks + 64 * b);
    return;
  }
#endif
  (void)backend;
  for (std::size_t b = 0; b < j.nblocks; ++b) detail::compress_portable(j.state, j.blocks + 64 * b);
}

/// Run `n` (<= lanes) equal-block-count jobs through one lockstep sweep set.
void run_chunk(Sha256Backend backend, const Sha256BlockJob* const* jobs, std::size_t n,
               std::size_t nb) {
  lanes_hist().record(n);

#ifdef PNM_SHA256_MB_SIMD
  const std::uint8_t* ptrs[kMaxLanes];
  if (backend == Sha256Backend::kAvx2 && n > 1) {
    // Idle lanes rehash lane 0's blocks into a dummy state slot: the kernel
    // is branch-free across all 8 lanes.
    alignas(32) std::uint32_t soa[8][8];
    for (std::size_t w = 0; w < 8; ++w)
      for (std::size_t l = 0; l < 8; ++l) soa[w][l] = jobs[l < n ? l : 0]->state[w];
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t l = 0; l < 8; ++l) ptrs[l] = jobs[l < n ? l : 0]->blocks + 64 * b;
      detail::compress_x8_avx2(soa, ptrs);
    }
    for (std::size_t w = 0; w < 8; ++w)
      for (std::size_t l = 0; l < n; ++l) jobs[l]->state[w] = soa[w][l];
    return;
  }
  if (backend == Sha256Backend::kSse2 && n > 1) {
    for (std::size_t base = 0; base < n; base += 4) {
      alignas(16) std::uint32_t soa[8][4];
      std::size_t span = std::min<std::size_t>(4, n - base);
      const Sha256BlockJob* const* quad = jobs + base;
      for (std::size_t w = 0; w < 8; ++w)
        for (std::size_t l = 0; l < 4; ++l) soa[w][l] = quad[l < span ? l : 0]->state[w];
      for (std::size_t b = 0; b < nb; ++b) {
        for (std::size_t l = 0; l < 4; ++l) ptrs[l] = quad[l < span ? l : 0]->blocks + 64 * b;
        detail::compress_x4_sse2(soa, ptrs);
      }
      for (std::size_t w = 0; w < 8; ++w)
        for (std::size_t l = 0; l < span; ++l) quad[l]->state[w] = soa[w][l];
    }
    return;
  }
#endif
  for (std::size_t l = 0; l < n; ++l) run_single(backend, *jobs[l]);
}

}  // namespace

namespace detail {

bool single_lane_shani(Sha256Backend backend) {
#ifdef PNM_SHA256_X86
  static const bool has_shani = cpu_has_shani();
  return backend == Sha256Backend::kShaNi ||
         (backend == Sha256Backend::kAvx512 && has_shani);
#else
  (void)backend;
  return false;
#endif
}

void record_lanes_filled(std::size_t lanes) { lanes_hist().record(lanes); }

}  // namespace detail

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
    case Sha256Backend::kAvx512:
      return "avx512";
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
  if (lower == "avx512") return Sha256Backend::kAvx512;
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
    case Sha256Backend::kAvx512:
      return 16;
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

std::size_t sha256_pad_in_place(std::uint8_t* buf, std::size_t len,
                                std::uint64_t prefix_bytes) {
  const std::size_t nb = sha256_padded_blocks(len);
  std::uint8_t* tail = buf + len;
  std::memset(tail, 0, nb * 64 - len);
  tail[0] = 0x80;
  const std::uint64_t bit_len = (prefix_bytes + len) * 8;
  std::uint8_t* end = buf + nb * 64;
  for (int i = 0; i < 8; ++i) end[-1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  return nb;
}

void sha256_multi_blocks(std::span<const Sha256BlockJob> jobs) {
  if (jobs.empty()) return;
  const Sha256Backend backend = active_sha_backend();
  if (jobs.size() == 1) {
    // A lone job has nothing to pack (HmacKey::mac/verify, serial anon_id):
    // it runs on the single-lane kernel and is not metered as a sweep.
    run_single(backend, jobs[0]);
    return;
  }
  // The avx512 rung's only wide kernel is the fused PRF sweep, so its block
  // core is single-lane.
  const std::size_t lanes = backend == Sha256Backend::kAvx512
                                ? 1
                                : std::min(kMaxLanes, sha_backend_lanes(backend));

  if (lanes == 1) {
    // Single-lane rungs (SHA-NI, avx512, scalar) never pack lanes: skip the group
    // sort and the per-chunk staging, and meter one occupancy-1 sample per
    // batch call instead of one per job — the hardware rounds are fast
    // enough that per-job atomics would be a measurable tax.
    lanes_hist().record(1);
    for (const Sha256BlockJob& j : jobs) run_single(backend, j);
    return;
  }

  // Group jobs by block count so every sweep is lockstep. The hot callers
  // (one report's PRF table, one mark's candidate MACs, every HMAC outer
  // pass) pass equal-length jobs — a single group, full lanes — so the sort
  // is skipped entirely; ragged batches still come out right, just in more
  // groups.
  thread_local std::vector<const Sha256BlockJob*> order;
  order.clear();
  order.reserve(jobs.size());
  bool presorted = true;
  for (const Sha256BlockJob& j : jobs) {
    if (!order.empty() && j.nblocks < order.back()->nblocks) presorted = false;
    order.push_back(&j);
  }
  if (!presorted) {
    std::stable_sort(order.begin(), order.end(),
                     [](const auto* a, const auto* b) { return a->nblocks < b->nblocks; });
  }

  std::size_t i = 0;
  while (i < order.size()) {
    const std::size_t nb = order[i]->nblocks;
    std::size_t n = 1;
    while (i + n < order.size() && order[i + n]->nblocks == nb && n < lanes) ++n;
    run_chunk(backend, order.data() + i, n, nb);
    i += n;
  }
}

void sha256_multi(std::span<const Sha256MultiJob> jobs) {
  const std::size_t n = jobs.size();
  if (n == 0) return;
  thread_local Bytes padded;
  thread_local std::vector<std::array<std::uint32_t, 8>> states;
  thread_local std::vector<Sha256BlockJob> block_jobs;
  std::size_t total = 0;
  for (const Sha256MultiJob& j : jobs) total += sha256_padded_blocks(j.len) * 64;
  padded.resize(total);
  states.resize(n);
  block_jobs.resize(n);

  std::uint8_t* cursor = padded.data();
  for (std::size_t i = 0; i < n; ++i) {
    const Sha256MultiJob& j = jobs[i];
    std::memcpy(states[i].data(), j.init ? j.init : detail::kSha256Iv, 32);
    if (j.len > 0) std::memcpy(cursor, j.data, j.len);
    const std::size_t nb = sha256_pad_in_place(cursor, j.len, j.prefix_blocks * 64);
    block_jobs[i] = {states[i].data(), cursor, nb};
    cursor += nb * 64;
  }
  sha256_multi_blocks(block_jobs);
  for (std::size_t i = 0; i < n; ++i) detail::store_words_be(states[i].data(), jobs[i].out);
}

}  // namespace pnm::crypto
