// Shared helpers for the experiment harnesses: a tiny CLI (every bench
// accepts `--runs N` / `--seed S` to scale statistical power) and consistent
// output (ASCII table to stdout, optional CSV).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/stats.h"
#include "util/table.h"

namespace pnm::bench {

struct BenchArgs {
  std::size_t runs = 0;  ///< 0 = use the bench's default
  std::uint64_t seed = 1;
  std::size_t jobs = 1;  ///< worker threads for independent runs (0 = all cores)
  bool csv = false;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      args.runs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      args.jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      args.csv = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--runs N] [--seed S] [--jobs J] [--csv]\n", argv[0]);
      std::exit(0);
    }
  }
  return args;
}

/// Half-width of the normal-approximation 95% interval of `a`'s mean:
/// 1.96 standard errors (0 below two samples).
inline double ci95(const Accumulator& a) {
  if (a.count() < 2) return 0.0;
  return 1.96 * a.stddev() / std::sqrt(static_cast<double>(a.count()));
}

/// Half-width of the normal-approximation 95% interval of a count of `k`
/// events in `n` runs: 1.96·√(k(n−k)/n), the binomial standard deviation of
/// the count (0 when n is 0).
inline double count_ci95(std::size_t k, std::size_t n) {
  if (n == 0) return 0.0;
  const double kd = static_cast<double>(k), nd = static_cast<double>(n);
  return 1.96 * std::sqrt(kd * (nd - kd) / nd);
}

inline void emit(const Table& table, const BenchArgs& args) {
  if (args.csv) {
    std::fputs(table.csv().c_str(), stdout);
  } else {
    std::fputs(table.render().c_str(), stdout);
  }
  std::fputs("\n", stdout);
}

}  // namespace pnm::bench
