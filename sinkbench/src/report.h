// Result reporting for the sink benchmark: named metrics with units, the
// human-readable lines printed while a run proceeds, and the one-line JSON
// result that must end standard output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sinkbench {

/// Every printed metric or ledger name matches [A-Za-z0-9_.-]+.
bool valid_name(const std::string& name);

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// A metric for the JSON result; also printed as `metric <name> <value>
  /// <unit>`. Throws std::invalid_argument on a malformed name.
  void add(const std::string& name, double value, const std::string& unit);

  /// An informational line (`<tag> <text>`), not part of the JSON result.
  static void line(const std::string& tag, const std::string& text);

  /// Count operations and failures; failed_frac = failed / attempted.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace sinkbench
