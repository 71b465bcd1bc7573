// Differential oracle for the exhaustive PNM verifier (PnmScheme::verify).
//
// The production path sweeps anonymous-ID PRFs in ascending node id, one
// chunk at a time, and stops once every mark has resolved. The oracle below
// is the plain serial §4.2 procedure instead: one PRF per node through the
// raw key, a sorted anon-ID -> node table, and a first-match backward MAC
// pass. The two must agree on the verified chain, invalid_marks and
// truncated_by_invalid, and meter the same kMacChecks; kPrfEvals may only
// shrink, and must be the full sweep whenever a mark is invalid.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "marking/mark.h"
#include "marking/pnm_scheme.h"
#include "net/report.h"
#include "util/counters.h"
#include "util/rng.h"

namespace pnm::marking {
namespace {

struct OracleResult {
  VerifyResult result;
  std::uint64_t mac_checks = 0;
};

OracleResult oracle_verify(const net::Packet& p, const crypto::KeyStore& keys,
                           std::size_t anon_len) {
  OracleResult out;
  out.result.total_marks = p.marks.size();
  if (p.marks.empty()) return out;
  // Sorted by (anon ID, node id): equal_range yields candidates ascending.
  std::multimap<Bytes, NodeId> table;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    table.emplace(crypto::anon_id(keys.key_unchecked(id), p.report, id, anon_len), id);
  }
  for (std::size_t j = p.marks.size(); j-- > 0;) {
    const net::Mark& m = p.marks[j];
    NodeId resolved = kInvalidNode;
    if (m.id_field.size() == anon_len) {
      const Bytes input = nested_mac_input(p, j, m.id_field);
      auto [lo, hi] = table.equal_range(m.id_field);
      for (auto it = lo; it != hi; ++it) {
        ++out.mac_checks;
        if (crypto::verify_mac(keys.key_unchecked(it->second), input, m.mac)) {
          resolved = it->second;
          break;
        }
      }
    }
    if (resolved == kInvalidNode) {
      out.result.invalid_marks = j + 1;
      out.result.truncated_by_invalid = true;
      break;
    }
    out.result.chain.insert(out.result.chain.begin(), VerifiedMark{resolved, j});
  }
  return out;
}

class OracleFixture : public ::testing::Test {
 protected:
  /// Honest marks from `path` (most upstream first), each appended by the
  /// scheme's own marking code.
  static net::Packet marked(const PnmScheme& scheme, const crypto::KeyStore& keys,
                            std::uint32_t seq, const std::vector<NodeId>& path) {
    Rng rng(seq);
    net::Packet p;
    p.report = net::Report{seq, 3, 4, 5000 + seq}.encode();
    for (NodeId v : path) p.marks.push_back(scheme.make_mark(p, v, keys.key_unchecked(v), rng));
    return p;
  }

  /// Verify `p` both ways and compare everything the contract pins.
  void expect_matches_oracle(const PnmScheme& scheme, const crypto::KeyStore& keys,
                             const net::Packet& p, const std::string& what) {
    SCOPED_TRACE(what);
    const std::size_t anon_len = scheme.config().anon_len;
    util::Counters counters;
    VerifyResult got = scheme.verify(p, keys, counters);
    OracleResult want = oracle_verify(p, keys, anon_len);

    EXPECT_EQ(got.total_marks, want.result.total_marks);
    EXPECT_EQ(got.invalid_marks, want.result.invalid_marks);
    EXPECT_EQ(got.truncated_by_invalid, want.result.truncated_by_invalid);
    ASSERT_EQ(got.chain.size(), want.result.chain.size());
    for (std::size_t i = 0; i < got.chain.size(); ++i) {
      EXPECT_EQ(got.chain[i].node, want.result.chain[i].node) << "chain " << i;
      EXPECT_EQ(got.chain[i].mark_index, want.result.chain[i].mark_index) << "chain " << i;
    }
    EXPECT_EQ(counters.get(util::Metric::kMacChecks), want.mac_checks);
    EXPECT_EQ(counters.get(util::Metric::kPacketsVerified), 1u);

    const std::uint64_t nodes = keys.size() - 1;
    const std::uint64_t prfs = counters.get(util::Metric::kPrfEvals);
    EXPECT_LE(prfs, nodes);
    if (want.result.invalid_marks > 0) {
      EXPECT_EQ(prfs, nodes);
    }
    ++checked_;
  }

  std::size_t checked_ = 0;
};

// Honest paths of random nodes over key stores whose sizes straddle the
// sweep chunk, for 1-byte (forced collisions), 2-byte and 9-byte (wide-ID
// path) anonymous IDs. Every path also ends at node N-1, the last chunk.
TEST_F(OracleFixture, HonestPathsMatchAcrossWidthsAndSizes) {
  for (std::size_t anon_len : {std::size_t{1}, std::size_t{2}, std::size_t{9}}) {
    SchemeConfig cfg;
    cfg.anon_len = anon_len;
    PnmScheme scheme(cfg);
    for (std::size_t n : {std::size_t{2}, std::size_t{33}, std::size_t{37},
                          std::size_t{65}, std::size_t{150}, std::size_t{201}}) {
      crypto::KeyStore keys(Bytes{0x0a, static_cast<std::uint8_t>(n)}, n);
      Rng rng(n * 31 + anon_len);
      for (std::uint32_t seq = 0; seq < 12; ++seq) {
        std::vector<NodeId> path;
        const std::size_t marks = 1 + rng.next_below(5);
        for (std::size_t k = 0; k < marks; ++k)
          path.push_back(static_cast<NodeId>(1 + rng.next_below(n - 1)));
        if (seq % 3 == 0) path.push_back(static_cast<NodeId>(n - 1));
        expect_matches_oracle(scheme, keys, marked(scheme, keys, seq, path),
                              "anon_len=" + std::to_string(anon_len) +
                                  " n=" + std::to_string(n) +
                                  " seq=" + std::to_string(seq));
      }
    }
  }
  EXPECT_EQ(checked_, 3u * 6u * 12u);
}

// With 1-byte IDs and 200 nodes nearly every anon ID collides; the
// lowest-id candidate whose MAC verifies must win even when higher-id
// colliders sit in a later sweep chunk.
TEST_F(OracleFixture, CollidingCandidatesResolveToLowestVerifyingId) {
  SchemeConfig cfg;
  cfg.anon_len = 1;
  PnmScheme scheme(cfg);
  crypto::KeyStore keys(Bytes{0x51}, 201);
  for (std::uint32_t seq = 0; seq < 40; ++seq) {
    std::vector<NodeId> path{static_cast<NodeId>(200 - seq), static_cast<NodeId>(1 + seq),
                             static_cast<NodeId>(100 + seq)};
    expect_matches_oracle(scheme, keys, marked(scheme, keys, seq, path),
                          "seq=" + std::to_string(seq));
  }
}

// A forged MAC at every position of the mark list: the backward pass must
// truncate at exactly that mark, after a full sweep.
TEST_F(OracleFixture, ForgedMacAtEveryPosition) {
  for (std::size_t anon_len : {std::size_t{1}, std::size_t{2}, std::size_t{9}}) {
    SchemeConfig cfg;
    cfg.anon_len = anon_len;
    PnmScheme scheme(cfg);
    crypto::KeyStore keys(Bytes{0x77}, 101);
    const std::vector<NodeId> path{5, 99, 40, 100, 1, 63};
    const net::Packet honest = marked(scheme, keys, 7, path);
    for (std::size_t pos = 0; pos < path.size(); ++pos) {
      net::Packet forged = honest;
      forged.marks[pos].mac[0] ^= 0x5a;
      expect_matches_oracle(scheme, keys, forged,
                            "anon_len=" + std::to_string(anon_len) +
                                " forged=" + std::to_string(pos));
    }
  }
}

// Malformed identity fields (empty, short, long) can never resolve.
TEST_F(OracleFixture, EmptyOrWrongLengthIdField) {
  SchemeConfig cfg;
  PnmScheme scheme(cfg);
  crypto::KeyStore keys(Bytes{0x13}, 70);
  const net::Packet honest = marked(scheme, keys, 11, {3, 69, 20});
  for (std::size_t pos = 0; pos < honest.marks.size(); ++pos) {
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      net::Packet bad = honest;
      bad.marks[pos].id_field.resize(len, 0x00);
      expect_matches_oracle(scheme, keys, bad,
                            "pos=" + std::to_string(pos) + " len=" + std::to_string(len));
    }
  }
}

// A key store holding only the sink: no node can resolve any mark, and
// there is nothing to sweep.
TEST_F(OracleFixture, SinkOnlyKeyStore) {
  SchemeConfig cfg;
  PnmScheme scheme(cfg);
  crypto::KeyStore keys(Bytes{0x21}, 1);
  net::Packet p;
  p.report = net::Report{1, 2, 3, 4}.encode();
  p.marks.push_back(net::Mark{Bytes{0x01, 0x02}, Bytes{0x03, 0x04, 0x05, 0x06}});
  expect_matches_oracle(scheme, keys, p, "sink only");

  net::Packet unmarked;
  unmarked.report = p.report;
  expect_matches_oracle(scheme, keys, unmarked, "no marks");
}

// Marks that resolve early stop the sweep early: a path confined to the
// lowest ids never pays for the whole field.
TEST_F(OracleFixture, LowIdPathSweepsLessThanTheField) {
  SchemeConfig cfg;
  PnmScheme scheme(cfg);
  crypto::KeyStore keys(Bytes{0x42}, 201);
  util::Counters counters;
  VerifyResult r = scheme.verify(marked(scheme, keys, 3, {2, 4, 6}), keys, counters);
  EXPECT_EQ(r.chain.size(), 3u);
  EXPECT_EQ(r.invalid_marks, 0u);
  EXPECT_GT(counters.get(util::Metric::kPrfEvals), 0u);
  EXPECT_LT(counters.get(util::Metric::kPrfEvals), 200u);
}

}  // namespace
}  // namespace pnm::marking
