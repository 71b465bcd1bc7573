// Cross-packet batch planner (sink/batch_plan.h) determinism contract:
// --pack-mode=cross must produce verdicts bit-identical to the per-packet
// path across SHA backends, strategies (exhaustive / scoped), thread counts,
// and ragged batch shapes — on honest traffic, duplicate-heavy flow traffic,
// and corrupted marks that exercise the truncation paths. Also unit-covers
// the planner's building blocks (anon_id_batch_multi, AnonIdTable::
// from_precomputed, PackMode parsing/pinning).
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/keys.h"
#include "crypto/sha256_multi.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "net/topology.h"
#include "sink/anon_lookup.h"
#include "sink/batch_plan.h"
#include "sink/batch_verifier.h"
#include "util/counters.h"
#include "util/rng.h"

namespace pnm::sink {
namespace {

Bytes str_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

bool same_result(const marking::VerifyResult& a, const marking::VerifyResult& b) {
  if (a.total_marks != b.total_marks || a.invalid_marks != b.invalid_marks ||
      a.truncated_by_invalid != b.truncated_by_invalid ||
      a.chain.size() != b.chain.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    if (a.chain[i].node != b.chain[i].node ||
        a.chain[i].mark_index != b.chain[i].mark_index) {
      return false;
    }
  }
  return true;
}

class BatchPlanFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kForwarders = 12;

  BatchPlanFixture()
      : topo_(net::Topology::chain(kForwarders)),
        keys_(str_bytes("plan-master"), topo_.node_count()) {
    cfg_.mark_probability = 0.35;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg_);
  }

  /// Marked chain traffic. flows == 0 gives every packet a distinct report;
  /// flows > 0 cycles `count` packets over `flows` reports (duplicate-heavy,
  /// the shape the planner dedups). corrupt != 0 deterministically damages
  /// every corrupt-th packet — alternately flipping a MAC byte, truncating a
  /// mark's id_field, and dropping all marks — to exercise the
  /// truncated_by_invalid and markless scatter paths.
  std::vector<net::Packet> make_traffic(std::size_t count, std::uint64_t seed,
                                        std::size_t flows = 0,
                                        std::size_t corrupt = 0) {
    Rng rng(seed);
    std::vector<net::Packet> out;
    for (std::size_t n = 0; n < count; ++n) {
      std::size_t flow = flows == 0 ? n : n % flows;
      net::Packet p;
      p.report =
          net::Report{static_cast<std::uint32_t>(flow), 1, 2, 1000 + flow}.encode();
      for (NodeId v = kForwarders; v >= 1; --v) {
        scheme_->mark(p, v, keys_.key_unchecked(v), rng);
      }
      p.delivered_by = 1;
      if (corrupt != 0 && n % corrupt == corrupt - 1 && !p.marks.empty()) {
        switch ((n / corrupt) % 3) {
          case 0: p.marks[p.marks.size() / 2].mac[0] ^= 0x5a; break;
          case 1: p.marks.back().id_field.pop_back(); break;
          default: p.marks.clear(); break;
        }
      }
      out.push_back(std::move(p));
    }
    return out;
  }

  std::vector<marking::VerifyResult> serial_reference(
      const std::vector<net::Packet>& batch) {
    std::vector<marking::VerifyResult> out;
    out.reserve(batch.size());
    for (const net::Packet& p : batch) out.push_back(scheme_->verify(p, keys_));
    return out;
  }

  std::vector<marking::VerifyResult> run(const std::vector<net::Packet>& batch,
                                         PackMode mode, BatchStrategy strategy,
                                         std::size_t threads, bool use_cache = false) {
    BatchVerifierConfig bcfg;
    bcfg.threads = threads;
    bcfg.strategy = strategy;
    bcfg.use_cache = use_cache;
    bcfg.pack_mode = mode;
    const net::Topology* topo =
        strategy == BatchStrategy::kScoped ? &topo_ : nullptr;
    BatchVerifier engine(*scheme_, keys_, bcfg, topo);
    return engine.verify_batch(batch);
  }

  void expect_cross_matches_packet(const std::vector<net::Packet>& batch,
                                   BatchStrategy strategy, std::size_t threads,
                                   bool use_cache = false) {
    auto expected = run(batch, PackMode::kPacket, strategy, threads, use_cache);
    auto got = run(batch, PackMode::kCross, strategy, threads, use_cache);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], expected[i]))
          << "strategy=" << (strategy == BatchStrategy::kScoped ? "scoped" : "exhaustive")
          << " threads=" << threads << " cache=" << use_cache << " packet=" << i;
    }
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  marking::SchemeConfig cfg_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST(PackModeTest, Names) {
  EXPECT_STREQ(pack_mode_name(PackMode::kPacket), "packet");
  EXPECT_STREQ(pack_mode_name(PackMode::kCross), "cross");
}

TEST(PackModeTest, Parse) {
  EXPECT_EQ(parse_pack_mode("packet"), PackMode::kPacket);
  EXPECT_EQ(parse_pack_mode("per-packet"), PackMode::kPacket);
  EXPECT_EQ(parse_pack_mode("per_packet"), PackMode::kPacket);
  EXPECT_EQ(parse_pack_mode("cross"), PackMode::kCross);
  EXPECT_EQ(parse_pack_mode("batch"), PackMode::kCross);
  EXPECT_EQ(parse_pack_mode("CROSS"), PackMode::kCross);
  EXPECT_EQ(parse_pack_mode("Packet"), PackMode::kPacket);
  EXPECT_FALSE(parse_pack_mode("").has_value());
  EXPECT_FALSE(parse_pack_mode("simd").has_value());
}

TEST(PackModeTest, ForceOverridesDefault) {
  // Tests do not set PNM_PACK_MODE, so the unforced default is kCross.
  ASSERT_EQ(std::getenv("PNM_PACK_MODE"), nullptr);
  EXPECT_EQ(active_pack_mode(), PackMode::kCross);
  force_pack_mode(PackMode::kPacket);
  EXPECT_EQ(active_pack_mode(), PackMode::kPacket);
  force_pack_mode(std::nullopt);
  EXPECT_EQ(active_pack_mode(), PackMode::kCross);
}

TEST_F(BatchPlanFixture, AnonIdBatchMultiMatchesSerial) {
  std::vector<Bytes> reports;
  for (std::uint32_t r = 0; r < 5; ++r)
    reports.push_back(net::Report{r, 1, 2, 2000 + r}.encode());
  std::vector<NodeId> all_ids;
  for (NodeId v = 1; v <= kForwarders; ++v) all_ids.push_back(v);
  std::vector<NodeId> sparse_ids{3, 7, 11};

  for (std::size_t anon_len : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                               std::size_t{16}}) {
    // Mixed sweep: full node sets, a sparse set, and an empty job.
    std::vector<Bytes> outs(reports.size() + 1);
    std::vector<crypto::AnonIdSweepJob> jobs;
    for (std::size_t r = 0; r < reports.size(); ++r) {
      outs[r].resize(all_ids.size() * anon_len);
      jobs.push_back({reports[r], all_ids, outs[r].data()});
    }
    outs.back().resize(sparse_ids.size() * anon_len);
    jobs.push_back({reports[0], sparse_ids, outs.back().data()});
    jobs.push_back({reports[1], {}, nullptr});
    crypto::anon_id_batch_multi(keys_, jobs, anon_len);

    for (std::size_t r = 0; r < reports.size(); ++r) {
      for (std::size_t i = 0; i < all_ids.size(); ++i) {
        Bytes expect = crypto::anon_id(keys_.hmac_key(all_ids[i]), reports[r],
                                       all_ids[i], anon_len);
        Bytes got(outs[r].begin() + static_cast<std::ptrdiff_t>(i * anon_len),
                  outs[r].begin() + static_cast<std::ptrdiff_t>((i + 1) * anon_len));
        EXPECT_EQ(got, expect) << "report=" << r << " i=" << i
                               << " anon_len=" << anon_len;
      }
    }
    for (std::size_t i = 0; i < sparse_ids.size(); ++i) {
      Bytes expect = crypto::anon_id(keys_.hmac_key(sparse_ids[i]), reports[0],
                                     sparse_ids[i], anon_len);
      Bytes got(outs.back().begin() + static_cast<std::ptrdiff_t>(i * anon_len),
                outs.back().begin() + static_cast<std::ptrdiff_t>((i + 1) * anon_len));
      EXPECT_EQ(got, expect) << "sparse i=" << i << " anon_len=" << anon_len;
    }
  }
}

TEST_F(BatchPlanFixture, FromPrecomputedMatchesHashingCtor) {
  Bytes report = net::Report{9, 1, 2, 3000}.encode();
  for (std::size_t anon_len : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    AnonIdTable built(keys_, report, anon_len);

    std::vector<NodeId> ids;
    for (NodeId v = 1; v < keys_.size(); ++v) ids.push_back(v);
    Bytes anons(ids.size() * anon_len);
    crypto::anon_id_batch(keys_, report, ids, anon_len, anons.data());
    AnonIdTable pre = AnonIdTable::from_precomputed(anons, anon_len);

    EXPECT_EQ(pre.size(), built.size()) << "anon_len=" << anon_len;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ByteView anon(anons.data() + i * anon_len, anon_len);
      auto a = built.candidates(anon);
      auto b = pre.candidates(anon);
      ASSERT_EQ(a.size(), b.size()) << "anon_len=" << anon_len << " i=" << i;
      for (std::size_t c = 0; c < a.size(); ++c) EXPECT_EQ(a[c], b[c]);
    }
    Bytes missing(anon_len, 0xee);
    EXPECT_EQ(built.candidates(missing).size(), pre.candidates(missing).size());
  }
  // Degenerate inputs build empty tables rather than crashing.
  AnonIdTable empty = AnonIdTable::from_precomputed({}, 2);
  Bytes probe{0x00, 0x00};
  EXPECT_TRUE(empty.candidates(probe).empty());
  EXPECT_EQ(empty.size(), 0u);
}

TEST_F(BatchPlanFixture, ExhaustiveCrossMatchesSerialReference) {
  // The planner IS the default; pin both modes explicitly and also compare
  // against the serial PnmScheme::verify ground truth.
  auto batch = make_traffic(48, 101, /*flows=*/8);
  auto expected = serial_reference(batch);
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    auto got = run(batch, PackMode::kCross, BatchStrategy::kExhaustive, threads);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], expected[i]))
          << "threads=" << threads << " packet=" << i;
    }
  }
}

TEST_F(BatchPlanFixture, ExhaustiveMetersIntoVerifierCounters) {
  // Both pack modes meter into the verifier's own Counters, never the global
  // instance, and agree on MAC checks (the planner sweeps every PRF, the
  // per-packet path may stop early, so only their PRF counts may differ).
  auto batch = make_traffic(48, 109, /*flows=*/8, /*corrupt=*/5);
  util::Counters& global = util::Counters::global();
  const std::uint64_t prf0 = global.get(util::Metric::kPrfEvals);
  const std::uint64_t mac0 = global.get(util::Metric::kMacChecks);
  std::uint64_t mac_checks[2] = {0, 0};
  for (PackMode mode : {PackMode::kPacket, PackMode::kCross}) {
    util::Counters counters;
    BatchVerifierConfig bcfg;
    bcfg.threads = 1;
    bcfg.pack_mode = mode;
    BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);
    engine.verify_batch(batch);
    EXPECT_GT(counters.get(util::Metric::kPrfEvals), 0u) << pack_mode_name(mode);
    EXPECT_EQ(counters.get(util::Metric::kPacketsVerified), batch.size())
        << pack_mode_name(mode);
    mac_checks[static_cast<int>(mode)] = counters.get(util::Metric::kMacChecks);
  }
  EXPECT_GT(mac_checks[0], 0u);
  EXPECT_EQ(mac_checks[0], mac_checks[1]);
  EXPECT_EQ(global.get(util::Metric::kPrfEvals), prf0);
  EXPECT_EQ(global.get(util::Metric::kMacChecks), mac0);
}

TEST_F(BatchPlanFixture, ScopedCrossMatchesPacketMode) {
  auto batch = make_traffic(40, 103, /*flows=*/6);
  for (bool use_cache : {false, true}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      expect_cross_matches_packet(batch, BatchStrategy::kScoped, threads, use_cache);
    }
  }
}

TEST_F(BatchPlanFixture, AllShaBackendsAgree) {
  auto batch = make_traffic(32, 107, /*flows=*/5, /*corrupt=*/7);
  auto expected = serial_reference(batch);
  for (auto backend : {crypto::Sha256Backend::kScalar, crypto::Sha256Backend::kSse2,
                       crypto::Sha256Backend::kAvx2, crypto::Sha256Backend::kShaNi}) {
    if (!crypto::sha_backend_supported(backend)) continue;
    crypto::force_sha_backend(backend);
    for (auto strategy : {BatchStrategy::kExhaustive, BatchStrategy::kScoped}) {
      auto got = run(batch, PackMode::kCross, strategy, 2,
                     /*use_cache=*/strategy == BatchStrategy::kScoped);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(same_result(got[i], expected[i]))
            << crypto::sha_backend_name(backend) << " packet=" << i;
      }
    }
  }
  crypto::force_sha_backend(std::nullopt);
}

TEST_F(BatchPlanFixture, RaggedBatchStress) {
  // Ragged sizes straddling chunk boundaries and lane widths, duplicate-heavy
  // and all-distinct, with periodic corruption so some lanes truncate early
  // while their neighbors keep walking.
  for (std::size_t size : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                           std::size_t{17}, std::size_t{64}, std::size_t{127},
                           std::size_t{257}}) {
    for (std::size_t flows : {std::size_t{0}, std::size_t{5}}) {
      auto batch = make_traffic(size, 1000 + size, flows, /*corrupt=*/5);
      expect_cross_matches_packet(batch, BatchStrategy::kExhaustive,
                                  /*threads=*/4);
      expect_cross_matches_packet(batch, BatchStrategy::kScoped, /*threads=*/4,
                                  /*use_cache=*/true);
    }
  }
}

TEST_F(BatchPlanFixture, DedupCounterCountsSharedTables) {
  util::Counters counters;
  BatchVerifierConfig bcfg;
  bcfg.threads = 1;
  bcfg.pack_mode = PackMode::kCross;
  BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);

  // 24 packets over 6 flows: every marked packet whose report was already
  // seen (markless packets never touch a table) rides the earlier packet's
  // table and counts as deduped.
  auto batch = make_traffic(24, 109, /*flows=*/6);
  std::set<Bytes> seen;
  std::uint64_t expect_deduped = 0;
  for (const net::Packet& p : batch) {
    if (p.marks.empty()) continue;
    if (!seen.insert(p.report).second) ++expect_deduped;
  }
  ASSERT_GT(expect_deduped, 0u);
  engine.verify_batch(batch);
  EXPECT_EQ(counters.registry().counter("sink_reports_deduped").value(),
            expect_deduped);

  // All-distinct traffic dedups nothing further.
  auto distinct = make_traffic(10, 113);
  engine.verify_batch(distinct);
  EXPECT_EQ(counters.registry().counter("sink_reports_deduped").value(),
            expect_deduped);
}

}  // namespace
}  // namespace pnm::sink
