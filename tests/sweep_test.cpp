// CampaignRunner / run_sweep determinism: byte-identical output for any
// worker count, index-ordered aggregation, stable per-cell seeds.
#include <gtest/gtest.h>

#include <atomic>

#include "core/sweep.h"
#include "net/campaign_runner.h"

namespace pnm {
namespace {

TEST(CampaignRunnerTest, PreservesIndexOrder) {
  net::CampaignRunner runner(4);
  std::function<std::size_t(std::size_t)> square = [](std::size_t i) {
    return i * i;
  };
  std::vector<std::size_t> out = runner.run_all<std::size_t>(17, square);
  ASSERT_EQ(out.size(), 17u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(CampaignRunnerTest, InlineWhenSingleJob) {
  net::CampaignRunner runner(1);
  std::atomic<int> calls{0};
  std::function<int(std::size_t)> fn = [&](std::size_t i) {
    ++calls;
    return static_cast<int>(i) + 1;
  };
  std::vector<int> out = runner.run_all<int>(5, fn);
  EXPECT_EQ(calls.load(), 5);
  EXPECT_EQ(out.back(), 5);
}

TEST(CampaignRunnerTest, PropagatesExceptions) {
  net::CampaignRunner runner(2);
  std::function<int(std::size_t)> fn = [](std::size_t i) -> int {
    if (i == 3) throw std::runtime_error("cell 3 failed");
    return 0;
  };
  EXPECT_THROW(runner.run_all<int>(8, fn), std::runtime_error);
}

core::SweepConfig small_sweep(std::size_t jobs) {
  core::SweepConfig cfg;
  cfg.forwarders = 5;
  cfg.packets = 30;
  cfg.runs = 2;
  cfg.seed = 99;
  cfg.attacks = {attack::AttackKind::kSourceOnly, attack::AttackKind::kRemoval,
                 attack::AttackKind::kIdentitySwap};
  cfg.jobs = jobs;
  return cfg;
}

/// What `pnm sweep --forwarders 6 --packets 40 --runs 2 --seed 9` runs: every
/// attack (an empty list), two seeds each.
core::SweepConfig every_attack_sweep(std::size_t jobs) {
  core::SweepConfig cfg;
  cfg.forwarders = 6;
  cfg.packets = 40;
  cfg.runs = 2;
  cfg.seed = 9;
  cfg.jobs = jobs;
  return cfg;
}

TEST(SweepTest, ByteIdenticalAcrossJobCounts) {
  // format_sweep is exactly what `pnm sweep` prints, so equal text here is
  // equal tool output for any --jobs.
  for (auto sweep : {small_sweep, every_attack_sweep}) {
    core::SweepConfig c1 = sweep(1);
    core::SweepResult r1 = core::run_sweep(c1);
    for (std::size_t jobs : {4, 8}) {
      core::SweepConfig cj = sweep(jobs);
      core::SweepResult rj = core::run_sweep(cj);
      ASSERT_EQ(r1.rows.size(), rj.rows.size()) << "jobs " << jobs;
      for (std::size_t i = 0; i < r1.rows.size(); ++i) {
        EXPECT_EQ(r1.rows[i].seed, rj.rows[i].seed);
        EXPECT_EQ(r1.rows[i].digest, rj.rows[i].digest) << "jobs " << jobs << ", row " << i;
      }
      EXPECT_EQ(r1.sweep_digest, rj.sweep_digest) << "jobs " << jobs;
      EXPECT_EQ(core::format_sweep(c1, r1), core::format_sweep(cj, rj)) << "jobs " << jobs;
    }
  }
}

TEST(SweepTest, RowsFollowAttackThenRunOrder) {
  core::SweepConfig cfg = small_sweep(1);
  core::SweepResult r = core::run_sweep(cfg);
  ASSERT_EQ(r.rows.size(), cfg.attacks.size() * cfg.runs);
  for (std::size_t a = 0; a < cfg.attacks.size(); ++a) {
    for (std::size_t run = 0; run < cfg.runs; ++run) {
      const core::SweepRow& row = r.rows[a * cfg.runs + run];
      EXPECT_EQ(row.attack, cfg.attacks[a]);
      EXPECT_EQ(row.seed, core::sweep_cell_seed(cfg.seed, a, run));
    }
  }
}

TEST(SweepTest, SeedChangesEveryDigest) {
  core::SweepConfig cfg = small_sweep(1);
  core::SweepResult r1 = core::run_sweep(cfg);
  cfg.seed = 100;
  core::SweepResult r2 = core::run_sweep(cfg);
  EXPECT_NE(r1.sweep_digest, r2.sweep_digest);
}

}  // namespace
}  // namespace pnm
