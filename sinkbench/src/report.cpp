#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sinkbench {

namespace {

bool alnum(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
}

/// Units additionally admit '/' and '%' ("1/s"), at most 16 characters.
bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-' || c == '/' || c == '%';
  });
}

}  // namespace

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : std::min(rank, v.size()) - 1];
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!valid_name(name) || !valid_unit(unit))
    throw std::invalid_argument("malformed metric name or unit: " + name + " " + unit);
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
}

void Report::line(const std::string& tag, const std::string& text) {
  std::printf("%s %s\n", tag.c_str(), text.c_str());
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  std::printf("FAIL %s\n", why.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace sinkbench
