// sinkbench — the sink benchmark's command-line entry point.
//
//   sinkbench --workload <replay-flood|serve-flows|campaign-sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--pin <digest>] [--tmp <dir>]
//
// Prints context, digests, samples and (with --trace 1) the per-layer ledger
// as plain lines, then one JSON result object as the last line. Exits 0 only
// when every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sinkbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--pin <digest>] [--tmp <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sinkbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.traced = value == "1";
    } else if (key == "--pin") {
      opts.pin = value;
    } else if (key == "--tmp") {
      opts.tmp_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || opts.seconds <= 0) return usage();

  sinkbench::print_context(opts);
  sinkbench::Report report;
  try {
    if (!sinkbench::run_workload(opts, report)) {
      std::fprintf(stderr, "sinkbench: unknown workload '%s'\n", opts.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sinkbench: %s\n", e.what());
    return 1;
  }
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              report.attempted() ? static_cast<double>(report.failed()) /
                                       static_cast<double>(report.attempted())
                                 : 1.0,
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
