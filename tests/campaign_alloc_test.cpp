// Heap allocations per delivered packet in the campaign-sweep cell set.
//
// This binary replaces the global operator new/delete with counting versions
// (every form, aligned ones included, so the pairs match under ASan), then
// runs the sweep that sinkbench's campaign-sweep workload times: 20
// forwarders, 120 packets, every attack, two seeds each, base seed 1, one
// job. The count is machine-independent, like the PRF/MAC pins in
// tests/corpus/*.work: per-hop marking and the in-simulation verify work in
// reused scratch, so what is left is mostly the packets' own fields.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/sweep.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0))) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_alloc(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pnm {
namespace {

/// Before marks and in-simulation checks moved into reused scratch, the
/// sweep made 56.4 allocations per delivered packet; afterwards about 18.
constexpr double kMaxAllocsPerDelivered = 24.0;

TEST(CampaignAlloc, SweepCellsStayUnderTheAllocationBudget) {
  core::SweepConfig cfg;
  cfg.forwarders = 20;
  cfg.packets = 120;
  cfg.runs = 2;
  cfg.seed = 1;
  cfg.jobs = 1;
  // Warm every thread-local scratch buffer, so the count is the steady state
  // whatever else this process ran first.
  core::run_sweep(cfg);

  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  const core::SweepResult r = core::run_sweep(cfg);
  const std::size_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  // The sweep digest campaign-sweep pins for seed 1 (sinkbench/pins.json):
  // the counted work is the benchmark's, bit for bit.
  EXPECT_EQ(r.sweep_digest, "9116eba463c8a1c412adb995e039bc9959d8b53e17784656d2f171c234d042cd");
  std::size_t delivered = 0;
  for (const core::SweepRow& row : r.rows) delivered += row.result.packets_delivered;
  ASSERT_GT(delivered, 0u);
  const double cells = static_cast<double>(r.rows.size());
  const double per_packet = static_cast<double>(allocs) / static_cast<double>(delivered);
  std::printf("%zu cells, %zu delivered, %zu allocations: %.1f per cell, %.2f per delivered\n",
              r.rows.size(), delivered, allocs, static_cast<double>(allocs) / cells, per_packet);
  EXPECT_LE(per_packet, kMaxAllocsPerDelivered);
}

}  // namespace
}  // namespace pnm
