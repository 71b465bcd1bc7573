#include "analysis/models.h"

#include <algorithm>
#include <cmath>

namespace pnm::analysis {

double prob_all_marks_within(std::size_t n, double p, std::size_t L) {
  if (n == 0) return 1.0;
  p = std::clamp(p, 0.0, 1.0);
  if (p == 0.0) return 0.0;
  double per_node = 1.0 - std::pow(1.0 - p, static_cast<double>(L));
  return std::pow(per_node, static_cast<double>(n));
}

std::size_t packets_for_confidence(std::size_t n, double p, double confidence) {
  for (std::size_t L = 1; L < 1000000; ++L) {
    if (prob_all_marks_within(n, p, L) >= confidence) return L;
  }
  return 1000000;
}

double expected_packets_to_order_first_pair(double p) {
  p = std::clamp(p, 1e-12, 1.0);
  return 1.0 / (p * p);
}

double prob_identification_failure(double p, std::size_t L) {
  p = std::clamp(p, 0.0, 1.0);
  return std::pow(1.0 - p * p, static_cast<double>(L));
}

double expected_marks_per_packet(std::size_t n, double p) {
  return static_cast<double>(n) * std::clamp(p, 0.0, 1.0);
}

double expected_mark_bytes(std::size_t n, double p, std::size_t id_len,
                           std::size_t mac_len) {
  // Two bytes of length framing per mark (one per field) in our wire format.
  double per_mark = static_cast<double>(id_len + mac_len + 2);
  return expected_marks_per_packet(n, p) * per_mark;
}

double sink_verifiable_packets_per_second(double hashes_per_second,
                                          std::size_t network_nodes,
                                          double marks_per_packet) {
  // Per distinct report, worst case: one anon-ID hash per node to build the
  // whole table, then ~one MAC verification per mark (collisions are rare
  // enough to ignore at first order, matching the paper's back-of-envelope).
  double hashes_per_packet = static_cast<double>(network_nodes) + marks_per_packet;
  if (hashes_per_packet <= 0.0) return 0.0;
  return hashes_per_second / hashes_per_packet;
}

}  // namespace pnm::analysis
