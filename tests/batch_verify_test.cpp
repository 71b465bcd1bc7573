// sink::BatchVerifier determinism contract: the parallel engine must be
// bit-identical to serial PnmScheme::verify across seeds, batch sizes and
// thread counts — including on attack traffic (selective dropping, identity
// swapping, altering, removal) — and the scoped+cached strategy must match
// the exhaustive one while actually hitting the memo cache.
//
// Batches that repeat reports share one anonymous-ID table per report group
// (exhaustive) or the lane's PrfCache (scoped). Every batch shape below —
// each SHA rung, ragged sizes, duplicate-heavy flows, corrupted marks — must
// give each packet the verdict it gets verified alone, and for exhaustive the
// scalar §4.2 oracle's verdict too.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>

#include "attack/attacks.h"
#include "crypto/keys.h"
#include "crypto/sha256_multi.h"
#include "marking/scheme.h"
#include "net/report.h"
#include "net/topology.h"
#include "pnm_verify_oracle.h"
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

class BatchVerifyFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kForwarders = 12;

  BatchVerifyFixture()
      : topo_(net::Topology::chain(kForwarders)),
        keys_(str_bytes("batch-master"), topo_.node_count()) {
    cfg_.mark_probability = 0.35;
    scheme_ = marking::make_scheme(marking::SchemeKind::kPnm, cfg_);
  }

  /// Marked traffic along the chain, optionally transited by a forwarding
  /// mole at hop `mole_at` running `mole`. Dropped packets never reach the
  /// sink, exactly as in the simulator.
  std::vector<net::Packet> make_traffic(std::size_t count, std::uint64_t seed,
                                        attack::MoleBehavior* mole = nullptr,
                                        NodeId mole_at = 6,
                                        const attack::KeyRing* ring = nullptr) {
    Rng rng(seed);
    std::vector<net::Packet> out;
    for (std::size_t n = 0; n < count; ++n) {
      net::Packet p;
      p.report =
          net::Report{static_cast<std::uint32_t>(n), 1, 2, 1000 + n}.encode();
      bool dropped = false;
      for (NodeId v = kForwarders; v >= 1; --v) {  // path order: far node first
        if (mole != nullptr && v == mole_at) {
          attack::MoleContext ctx{v, scheme_.get(), ring, &rng};
          if (mole->on_forward(p, ctx) == attack::ForwardAction::kDrop) {
            dropped = true;
            break;
          }
        } else {
          scheme_->mark(p, v, keys_.key_unchecked(v), rng);
        }
      }
      if (dropped) continue;
      p.delivered_by = 1;
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

  void expect_parallel_matches_serial(const std::vector<net::Packet>& batch) {
    auto expected = serial_reference(batch);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{8}}) {
      BatchVerifierConfig bcfg;
      bcfg.threads = threads;
      BatchVerifier engine(*scheme_, keys_, bcfg);
      auto got = engine.verify_batch(batch);
      ASSERT_EQ(got.size(), expected.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(same_result(got[i], expected[i]))
            << "threads=" << threads << " packet=" << i;
      }
    }
  }

  /// Marked chain traffic. flows == 0 gives every packet a distinct report;
  /// flows > 0 cycles `count` packets over `flows` reports (duplicate-heavy:
  /// report groups share a table). corrupt != 0 damages every corrupt-th
  /// packet — alternately flipping a MAC byte, truncating a mark's id_field,
  /// and dropping all marks — to exercise truncation and markless packets.
  std::vector<net::Packet> make_flows(std::size_t count, std::uint64_t seed,
                                      std::size_t flows, std::size_t corrupt = 0) {
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

  std::vector<marking::VerifyResult> run(const std::vector<net::Packet>& batch,
                                         BatchStrategy strategy, std::size_t threads,
                                         util::Counters* counters = nullptr) {
    BatchVerifierConfig bcfg;
    bcfg.threads = threads;
    bcfg.strategy = strategy;
    BatchVerifier engine(*scheme_, keys_, bcfg, &topo_, counters);
    return engine.verify_batch(batch);
  }

  /// Each packet verified alone: a batch of one through its own verifier.
  std::vector<marking::VerifyResult> run_alone(const std::vector<net::Packet>& batch,
                                               BatchStrategy strategy,
                                               util::Counters* counters = nullptr) {
    std::vector<marking::VerifyResult> out;
    for (const net::Packet& p : batch)
      out.push_back(run({p}, strategy, 1, counters).front());
    return out;
  }

  void expect_batch_matches_alone(const std::vector<net::Packet>& batch,
                                  BatchStrategy strategy, std::size_t threads) {
    const bool scoped = strategy == BatchStrategy::kScoped;
    auto alone = run_alone(batch, strategy);
    auto got = run(batch, strategy, threads);
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], alone[i]))
          << (scoped ? "scoped" : "exhaustive") << " threads=" << threads
          << " packet=" << i;
      if (!scoped) {
        EXPECT_TRUE(same_result(
            got[i], marking::oracle_verify(batch[i], keys_, cfg_.anon_len).result))
            << "oracle, threads=" << threads << " packet=" << i;
      }
    }
  }

  net::Topology topo_;
  crypto::KeyStore keys_;
  marking::SchemeConfig cfg_;
  std::unique_ptr<marking::MarkingScheme> scheme_;
};

TEST_F(BatchVerifyFixture, EmptyBatch) {
  BatchVerifier engine(*scheme_, keys_);
  EXPECT_TRUE(engine.verify_batch({}).empty());
}

TEST_F(BatchVerifyFixture, SinglePacketMatchesSerial) {
  expect_parallel_matches_serial(make_traffic(1, 11));
}

TEST_F(BatchVerifyFixture, HonestTrafficAcrossSeedsAndSizes) {
  for (std::uint64_t seed : {1ULL, 23ULL, 456ULL}) {
    for (std::size_t size : {std::size_t{7}, std::size_t{64}}) {
      expect_parallel_matches_serial(make_traffic(size, seed));
    }
  }
}

TEST_F(BatchVerifyFixture, SelectiveDropTraffic) {
  // The anonymized mole is reduced to dropping any marked packet; survivors
  // are the ones unmarked before the mole's hop.
  attack::SelectiveDropMole mole(attack::DropPolicy::kAnyMarked);
  auto batch = make_traffic(80, 7, &mole);
  ASSERT_FALSE(batch.empty());
  expect_parallel_matches_serial(batch);
}

TEST_F(BatchVerifyFixture, IdentitySwapTraffic) {
  // Colluding forwarder leaves valid marks claiming its peer: marks verify
  // but name the wrong node — verification must stay bit-identical.
  attack::KeyRing ring(keys_, {6, 9});
  attack::IdentitySwapForwarder mole(/*peer=*/9, /*claim_peer_prob=*/0.6,
                                     /*own_mark_prob=*/0.3);
  auto batch = make_traffic(60, 13, &mole, /*mole_at=*/6, &ring);
  ASSERT_FALSE(batch.empty());
  expect_parallel_matches_serial(batch);
}

TEST_F(BatchVerifyFixture, AlteredAndRemovedMarksTraffic) {
  attack::KeyRing ring(keys_, {6});
  attack::AlterMole alter(attack::AlterPolicy::kFirst);
  auto altered = make_traffic(40, 17, &alter, 6, &ring);
  ASSERT_FALSE(altered.empty());
  expect_parallel_matches_serial(altered);

  attack::RemovalMole removal(attack::RemovalPolicy::kFirstK, 2);
  auto removed = make_traffic(40, 19, &removal, 6, &ring);
  ASSERT_FALSE(removed.empty());
  expect_parallel_matches_serial(removed);
}

TEST_F(BatchVerifyFixture, ScopedCachedStrategyMatchesExhaustive) {
  auto batch = make_traffic(40, 29);
  auto expected = serial_reference(batch);

  util::Counters counters;
  BatchVerifierConfig bcfg;
  bcfg.threads = 4;
  bcfg.strategy = BatchStrategy::kScoped;
  BatchVerifier engine(*scheme_, keys_, bcfg, &topo_, &counters);
  auto got = engine.verify_batch(batch);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_result(got[i], expected[i])) << "packet " << i;
  }
  // The ring search probes the same (node, report) repeatedly across marks;
  // the memo cache must absorb those repeats.
  EXPECT_GT(counters.get(util::Metric::kCacheHits), 0u);
  EXPECT_GT(counters.get(util::Metric::kPrfEvals), 0u);
  EXPECT_EQ(counters.get(util::Metric::kPacketsVerified), batch.size());
  EXPECT_GT(engine.cache().size(), 0u);
}

TEST_F(BatchVerifyFixture, RepeatedBatchesAreDeterministic) {
  auto batch = make_traffic(32, 31);
  BatchVerifierConfig bcfg;
  bcfg.threads = 8;
  BatchVerifier engine(*scheme_, keys_, bcfg);
  auto first = engine.verify_batch(batch);
  auto second = engine.verify_batch(batch);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_result(first[i], second[i]));
  }
}

TEST_F(BatchVerifyFixture, BatchMetricsRecorded) {
  util::Counters counters;
  auto batch = make_traffic(16, 37);
  BatchVerifierConfig bcfg;
  bcfg.threads = 2;
  BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);
  engine.verify_batch(batch);
  engine.verify_batch(batch);
  EXPECT_EQ(counters.get(util::Metric::kBatches), 2u);
  EXPECT_EQ(counters.latency_summary().count, 2u);
}

TEST_F(BatchVerifyFixture, ScopedWithoutTopologyThrows) {
  BatchVerifierConfig bcfg;
  bcfg.strategy = BatchStrategy::kScoped;
  EXPECT_THROW(BatchVerifier(*scheme_, keys_, bcfg), std::invalid_argument);
}

TEST_F(BatchVerifyFixture, FlowBatchesMatchPacketsAloneAcrossThreads) {
  auto batch = make_flows(48, 101, /*flows=*/8);
  for (auto strategy : {BatchStrategy::kExhaustive, BatchStrategy::kScoped}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      expect_batch_matches_alone(batch, strategy, threads);
    }
  }
}

// Duplicate-heavy batches: packets of one report share a table (exhaustive)
// or the lane's PrfCache (scoped) across the whole batch.
class BatchPlanFixture : public BatchVerifyFixture {};

TEST_F(BatchPlanFixture, ExhaustiveCrossMatchesSerialReference) {
  // Shared report-group tables against serial PnmScheme::verify.
  auto batch = make_flows(48, 101, /*flows=*/8);
  auto expected = serial_reference(batch);
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    auto got = run(batch, BatchStrategy::kExhaustive, threads);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_result(got[i], expected[i]))
          << "threads=" << threads << " packet=" << i;
    }
  }
}

TEST_F(BatchPlanFixture, ScopedCrossMatchesPacketMode) {
  // The lane's cache, warmed by earlier packets of a report, against each
  // packet verified alone with a cold cache.
  auto batch = make_flows(40, 103, /*flows=*/6);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    expect_batch_matches_alone(batch, BatchStrategy::kScoped, threads);
  }
}

TEST_F(BatchVerifyFixture, EveryShaRungMatchesPacketsAlone) {
  auto batch = make_flows(32, 107, /*flows=*/5, /*corrupt=*/7);
  for (auto backend : {crypto::Sha256Backend::kScalar, crypto::Sha256Backend::kSse2,
                       crypto::Sha256Backend::kAvx2, crypto::Sha256Backend::kShaNi,
                       crypto::Sha256Backend::kAvx512}) {
    if (!crypto::sha_backend_supported(backend)) continue;
    SCOPED_TRACE(crypto::sha_backend_name(backend));
    crypto::force_sha_backend(backend);
    for (auto strategy : {BatchStrategy::kExhaustive, BatchStrategy::kScoped}) {
      expect_batch_matches_alone(batch, strategy, /*threads=*/2);
    }
  }
  crypto::force_sha_backend(std::nullopt);
}

TEST_F(BatchVerifyFixture, RaggedBatchesMatchPacketsAlone) {
  // Ragged sizes straddling chunk boundaries and lane widths, all-distinct
  // and duplicate-heavy, with periodic corruption so some packets of a
  // report group truncate while the others keep walking.
  for (std::size_t size : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                           std::size_t{17}, std::size_t{64}, std::size_t{127},
                           std::size_t{257}}) {
    for (std::size_t flows : {std::size_t{0}, std::size_t{5}}) {
      SCOPED_TRACE("size=" + std::to_string(size) + " flows=" + std::to_string(flows));
      auto batch = make_flows(size, 1000 + size, flows, /*corrupt=*/5);
      expect_batch_matches_alone(batch, BatchStrategy::kExhaustive, /*threads=*/1);
      expect_batch_matches_alone(batch, BatchStrategy::kExhaustive, /*threads=*/4);
      expect_batch_matches_alone(batch, BatchStrategy::kScoped, /*threads=*/4);
    }
  }
}

TEST_F(BatchVerifyFixture, ExhaustiveMetersIntoVerifierCounters) {
  // A batch meters into the verifier's own Counters, never the global
  // instance. Shared tables never change MAC checks; they only save PRFs.
  auto batch = make_flows(48, 109, /*flows=*/8, /*corrupt=*/5);
  util::Counters& global = util::Counters::global();
  const std::uint64_t prf0 = global.get(util::Metric::kPrfEvals);
  const std::uint64_t mac0 = global.get(util::Metric::kMacChecks);
  util::Counters alone;
  run_alone(batch, BatchStrategy::kExhaustive, &alone);
  util::Counters counters;
  BatchVerifierConfig bcfg;
  bcfg.threads = 1;
  BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);
  engine.verify_batch(batch);
  EXPECT_EQ(counters.get(util::Metric::kPacketsVerified), batch.size());
  EXPECT_GT(counters.get(util::Metric::kMacChecks), 0u);
  EXPECT_EQ(counters.get(util::Metric::kMacChecks), alone.get(util::Metric::kMacChecks));
  EXPECT_GT(counters.get(util::Metric::kPrfEvals), 0u);
  EXPECT_LT(counters.get(util::Metric::kPrfEvals), alone.get(util::Metric::kPrfEvals));
  EXPECT_EQ(global.get(util::Metric::kPrfEvals), prf0);
  EXPECT_EQ(global.get(util::Metric::kMacChecks), mac0);
  EXPECT_EQ(engine.cache().size(), 0u);  // the exhaustive path never caches
}

TEST_F(BatchVerifyFixture, DedupCounterCountsSharedTables) {
  util::Counters counters;
  BatchVerifierConfig bcfg;
  bcfg.threads = 1;
  BatchVerifier engine(*scheme_, keys_, bcfg, nullptr, &counters);

  // 24 packets over 6 flows: every marked packet whose report was already
  // seen (markless packets never touch a table) rides the earlier packet's
  // table and counts as deduped.
  auto batch = make_flows(24, 109, /*flows=*/6);
  std::set<Bytes> seen;
  std::uint64_t expect_deduped = 0;
  for (const net::Packet& p : batch) {
    if (p.marks.empty()) continue;
    if (!seen.insert(p.report).second) ++expect_deduped;
  }
  ASSERT_GT(expect_deduped, 0u);
  engine.verify_batch(batch);
  obs::Counter& deduped = counters.registry().counter("sink_reports_deduped");
  EXPECT_EQ(deduped.value(), expect_deduped);

  // All-distinct traffic dedups nothing further, and the scoped path shares
  // work through its cache instead of tables.
  engine.verify_batch(make_flows(10, 113, /*flows=*/0));
  run(batch, BatchStrategy::kScoped, 1, &counters);
  EXPECT_EQ(deduped.value(), expect_deduped);
}

TEST_F(BatchVerifyFixture, SharedTableGrowthKeepsEarlierVerdicts) {
  // One report, two packets: `low` carries markers in the first sweep chunk
  // only, `high` a marker near the top id, so `high` grows the table `low`
  // started. One-byte anonymous IDs make candidate collisions common, so
  // MAC checks depend on which candidates a mark walks. Either order must
  // give each packet its verdict and MAC checks alone; the group sweeps no
  // further than `high` alone does.
  const std::size_t forwarders = 200;
  net::Topology chain = net::Topology::chain(forwarders);
  crypto::KeyStore keys(str_bytes("grow-master"), chain.node_count());
  marking::SchemeConfig cfg;
  cfg.anon_len = 1;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);
  const Bytes report = net::Report{77, 1, 2, 3}.encode();
  auto marked = [&](std::vector<NodeId> path) {
    Rng rng(5);
    net::Packet p;
    p.report = report;
    for (NodeId v : path)
      p.marks.push_back(scheme->make_mark(p, v, keys.key_unchecked(v), rng));
    p.delivered_by = 1;
    return p;
  };
  const net::Packet low = marked({9, 5, 2});
  const net::Packet high = marked({190, 100, 3});

  auto verify = [&](const std::vector<net::Packet>& batch, util::Counters& counters) {
    BatchVerifierConfig bcfg;
    bcfg.threads = 1;
    return BatchVerifier(*scheme, keys, bcfg, nullptr, &counters).verify_batch(batch);
  };
  util::Counters low_alone, high_alone;
  const marking::VerifyResult low_result = verify({low}, low_alone).front();
  const marking::VerifyResult high_result = verify({high}, high_alone).front();
  ASSERT_EQ(low_result.chain.size(), 3u);
  ASSERT_EQ(high_result.chain.size(), 3u);
  ASSERT_LT(low_alone.get(util::Metric::kPrfEvals),
            high_alone.get(util::Metric::kPrfEvals));

  for (bool low_first : {true, false}) {
    SCOPED_TRACE(low_first ? "low first" : "high first");
    util::Counters counters;
    auto got = low_first ? verify({low, high}, counters) : verify({high, low}, counters);
    const std::size_t li = low_first ? 0 : 1;
    EXPECT_TRUE(same_result(got[li], low_result));
    EXPECT_TRUE(same_result(got[1 - li], high_result));
    EXPECT_EQ(counters.get(util::Metric::kMacChecks),
              low_alone.get(util::Metric::kMacChecks) +
                  high_alone.get(util::Metric::kMacChecks));
    EXPECT_EQ(counters.get(util::Metric::kPrfEvals),
              high_alone.get(util::Metric::kPrfEvals));
  }
}

}  // namespace
}  // namespace pnm::sink
