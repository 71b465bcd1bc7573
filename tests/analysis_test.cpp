// Analytical model tests — including the paper's own Fig. 4 anchor points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "analysis/models.h"

namespace pnm::analysis {
namespace {

TEST(CollectionProbability, MatchesPaperFig4Anchors) {
  // §6.1: with np = 3 fixed, 90% confidence needs ~13 / ~33 / ~54 packets
  // for paths of 10 / 20 / 30 nodes.
  EXPECT_NEAR(prob_all_marks_within(10, 0.3, 13), 0.906, 0.01);
  EXPECT_NEAR(prob_all_marks_within(20, 0.15, 33), 0.910, 0.01);
  EXPECT_NEAR(prob_all_marks_within(30, 0.10, 54), 0.904, 0.01);
}

TEST(CollectionProbability, PacketsForConfidenceMatchesPaper) {
  EXPECT_EQ(packets_for_confidence(10, 0.3, 0.90), 13u);
  EXPECT_EQ(packets_for_confidence(20, 0.15, 0.90), 33u);
  EXPECT_EQ(packets_for_confidence(30, 0.10, 0.90), 54u);
}

TEST(CollectionProbability, FiftyFivePacketsCoverTwentyHops) {
  // §6.2: "with 55 packets, the sink has over 99% probability of having
  // collected marks from all the 20 forwarding nodes".
  EXPECT_GT(prob_all_marks_within(20, 0.15, 55), 0.99);
}

TEST(CollectionProbability, MonotoneInL) {
  double prev = 0.0;
  for (std::size_t L = 1; L <= 100; ++L) {
    double p = prob_all_marks_within(15, 0.2, L);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(prev, 0.999);
}

TEST(CollectionProbability, Extremes) {
  EXPECT_DOUBLE_EQ(prob_all_marks_within(0, 0.5, 1), 1.0);
  EXPECT_DOUBLE_EQ(prob_all_marks_within(5, 0.0, 100), 0.0);
  EXPECT_DOUBLE_EQ(prob_all_marks_within(5, 1.0, 1), 1.0);
}

TEST(IdentificationFailure, MatchesFig6Regime) {
  // n = 50, p = 0.06, 800 packets: failure just under 5% (§6.2's "less than
  // 5% for very long paths with 800 packets").
  double f = prob_identification_failure(0.06, 800);
  EXPECT_GT(f, 0.03);
  EXPECT_LT(f, 0.07);
  // n = 20, p = 0.15, 200 packets: nearly always identified.
  EXPECT_LT(prob_identification_failure(0.15, 200), 0.02);
}

TEST(IdentificationFailure, PairOrderingExpectation) {
  EXPECT_DOUBLE_EQ(expected_packets_to_order_first_pair(0.1), 100.0);
  EXPECT_DOUBLE_EQ(expected_packets_to_order_first_pair(1.0), 1.0);
}

TEST(Overhead, ExpectedMarksAndBytes) {
  EXPECT_DOUBLE_EQ(expected_marks_per_packet(10, 0.3), 3.0);
  EXPECT_DOUBLE_EQ(expected_marks_per_packet(30, 0.1), 3.0);
  // 3 marks * (2 id + 4 mac + 2 framing) = 24 bytes.
  EXPECT_DOUBLE_EQ(expected_mark_bytes(10, 0.3, 2, 4), 24.0);
}

TEST(SinkThroughput, MatchesPaperFeasibilityArgument) {
  // §4.2: ~2.5 M hashes/s, a few thousand nodes => several hundred packets
  // per second, far above the ~50 pkt/s sensor radio ceiling.
  double rate = sink_verifiable_packets_per_second(2.5e6, 3000, 3.0);
  EXPECT_GT(rate, 500.0);
  EXPECT_GT(rate, 50.0 * 5);
  EXPECT_EQ(sink_verifiable_packets_per_second(1e6, 0, 0.0), 0.0);
}

/// The exhaustive-sweep expectation by enumeration: every subset of marking
/// forwarders V1..Vn (bit m-1 = Vm marks), weighted by its probability.
double brute_force_sweep(std::size_t n, double p, std::size_t chunk) {
  double expected = 0.0;
  for (std::size_t set = 0; set < (std::size_t{1} << n); ++set) {
    std::size_t marks = 0, highest = 0;
    for (std::size_t m = 1; m <= n; ++m) {
      if ((set >> (m - 1)) & 1) {
        ++marks;
        highest = m;
      }
    }
    const std::size_t swept =
        highest == 0 ? 0 : std::min((highest + chunk - 1) / chunk * chunk, n + 1);
    expected += std::pow(p, static_cast<double>(marks)) *
                std::pow(1.0 - p, static_cast<double>(n - marks)) *
                static_cast<double>(swept);
  }
  return expected;
}

TEST(ExhaustiveSweep, MatchesEnumerationOverMarkingSubsets) {
  for (std::size_t n = 0; n <= 12; ++n)
    for (double p : {0.05, 0.375, 0.8, 1.0})
      for (std::size_t chunk : {1, 3, 4, 16}) {
        const double want = brute_force_sweep(n, p, chunk);
        EXPECT_NEAR(expected_exhaustive_sweep(n, p, chunk), want, 1e-12 * (1.0 + want))
            << "n=" << n << " p=" << p << " chunk=" << chunk;
      }
}

TEST(ExhaustiveSweep, Extremes) {
  // Nobody marks: no packet carries a mark to resolve, so nothing is swept.
  EXPECT_EQ(expected_exhaustive_sweep(200, 0.0, 16), 0.0);
  // Everybody marks: Vn is always the highest marker, ceil(200/16)*16 = 208
  // is capped at the 201-id table.
  EXPECT_DOUBLE_EQ(expected_exhaustive_sweep(200, 1.0, 16), 201.0);
  // A one-id step sweeps exactly to the highest marker.
  EXPECT_DOUBLE_EQ(expected_exhaustive_sweep(3, 1.0, 1), 3.0);
}

}  // namespace
}  // namespace pnm::analysis
