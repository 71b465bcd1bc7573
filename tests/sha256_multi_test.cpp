// Multi-buffer SHA-256 engine: backend equivalence and batched-crypto
// properties.
//
// The whole design leans on one invariant: every dispatch ladder rung —
// scalar, SSE2 x4, AVX2 x8, SHA-NI — computes the identical function, so
// verdicts, corpus digests and metrics never depend on the CPU. These tests
// pin that invariant across ragged message lengths (0..3 blocks, including
// every padding boundary) and ragged batch sizes (1..17, so lanes are
// under-, exactly- and over-subscribed), plus the batched HMAC/PRF layers
// and the PRF-cache lane-bypass contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "crypto/sha256.h"
#include "crypto/sha256_multi.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sink/anon_lookup.h"
#include "sink/scoped_verify.h"
#include "util/rng.h"

namespace {

using namespace pnm;
using namespace pnm::crypto;

std::vector<Sha256Backend> supported_backends() {
  std::vector<Sha256Backend> out;
  for (Sha256Backend b : {Sha256Backend::kScalar, Sha256Backend::kSse2,
                          Sha256Backend::kAvx2, Sha256Backend::kShaNi}) {
    if (sha_backend_supported(b)) out.push_back(b);
  }
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

/// RAII backend pin that always restores auto dispatch.
struct ForcedBackend {
  explicit ForcedBackend(Sha256Backend b) { force_sha_backend(b); }
  ~ForcedBackend() { force_sha_backend(std::nullopt); }
};

TEST(Sha256MultiTest, ScalarBackendAlwaysSupported) {
  EXPECT_TRUE(sha_backend_supported(Sha256Backend::kScalar));
  EXPECT_GE(supported_backends().size(), 1u);
}

TEST(Sha256MultiTest, ParseBackendNames) {
  EXPECT_EQ(parse_sha_backend("scalar"), Sha256Backend::kScalar);
  EXPECT_EQ(parse_sha_backend("SSE2"), Sha256Backend::kSse2);
  EXPECT_EQ(parse_sha_backend("avx2"), Sha256Backend::kAvx2);
  EXPECT_EQ(parse_sha_backend("shani"), Sha256Backend::kShaNi);
  EXPECT_EQ(parse_sha_backend("sha-ni"), Sha256Backend::kShaNi);
  EXPECT_EQ(parse_sha_backend("SHA_NI"), Sha256Backend::kShaNi);
  EXPECT_EQ(parse_sha_backend("neon"), std::nullopt);
  EXPECT_EQ(parse_sha_backend(""), std::nullopt);
}

TEST(Sha256MultiTest, BackendLaneWidths) {
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kScalar), 1u);
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kShaNi), 1u);
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kSse2), 4u);
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kAvx2), 8u);
}

// Every backend must hash ragged batches bit-identically to the serial
// single-buffer reference: lengths sweep 0..3 blocks crossing the 55/56/64
// padding boundaries, batch sizes sweep 1..17 so each lane width is under-
// and over-subscribed.
TEST(Sha256MultiTest, BackendsBitIdenticalOnRaggedBatches) {
  Rng rng(20260806);
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t batch = 1; batch <= 17; ++batch) {
      std::vector<Bytes> msgs;
      for (std::size_t i = 0; i < batch; ++i) {
        std::size_t len = (i % 4 == 0) ? static_cast<std::size_t>(rng.next_below(193))
                                       : static_cast<std::size_t>(rng.next_below(130));
        msgs.push_back(random_bytes(rng, len));
      }
      // Boundary lengths in every sweep.
      if (batch >= 4) {
        msgs[0].resize(0);
        msgs[1].resize(55);
        msgs[2].resize(56);
        msgs[3].resize(64);
      }
      std::vector<Sha256Digest> outs(batch);
      std::vector<Sha256MultiJob> jobs(batch);
      for (std::size_t i = 0; i < batch; ++i)
        jobs[i] = {nullptr, 0, msgs[i].data(), msgs[i].size(), outs[i].data()};
      sha256_multi(jobs);
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(outs[i], Sha256::hash(msgs[i]))
            << "batch=" << batch << " lane=" << i << " len=" << msgs[i].size();
      }
    }
  }
}

// Midstate-seeded lanes (the HMAC ipad/opad shape) must equal hashing the
// concatenated prefix || data serially.
TEST(Sha256MultiTest, MidstateSeededLanesMatchConcatenation) {
  Rng rng(7);
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t trial = 0; trial < 20; ++trial) {
      Bytes prefix = random_bytes(rng, 64);
      Bytes data = random_bytes(rng, static_cast<std::size_t>(rng.next_below(150)));
      Sha256 mid;
      mid.update(prefix);  // exactly one block: chaining words are valid
      Sha256Digest batched;
      Sha256MultiJob job{mid.chaining_words(), 1, data.data(), data.size(),
                         batched.data()};
      sha256_multi(std::span<const Sha256MultiJob>(&job, 1));

      Bytes concat = prefix;
      append(concat, data);
      EXPECT_EQ(batched, Sha256::hash(concat)) << "trial=" << trial;
    }
  }
}

TEST(Sha256MultiTest, HmacBatchMatchesSerialEveryBackend) {
  Rng rng(99);
  std::vector<HmacKey> hkeys;
  std::vector<Bytes> key_bytes;
  for (int i = 0; i < 9; ++i) {
    key_bytes.push_back(random_bytes(rng, 16 + (static_cast<std::size_t>(i) % 70)));
    hkeys.emplace_back(key_bytes.back());
  }
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t batch = 1; batch <= 17; ++batch) {
      std::vector<Bytes> msgs;
      std::vector<HmacBatchJob> jobs;
      for (std::size_t i = 0; i < batch; ++i) {
        msgs.push_back(random_bytes(rng, static_cast<std::size_t>(rng.next_below(180))));
      }
      for (std::size_t i = 0; i < batch; ++i)
        jobs.push_back({&hkeys[i % hkeys.size()], msgs[i]});
      std::vector<Sha256Digest> outs(batch);
      hmac_batch(jobs, outs.data());
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(outs[i], hkeys[i % hkeys.size()].mac(msgs[i]))
            << "batch=" << batch << " lane=" << i;
        EXPECT_EQ(outs[i], hmac_sha256(key_bytes[i % hkeys.size()], msgs[i]));
      }
    }
  }
}

TEST(Sha256MultiTest, AnonIdBatchMatchesSerialEveryBackend) {
  Rng rng(4242);
  KeyStore keys(Bytes{0xaa, 0xbb, 0xcc}, 64);
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t anon_len : {1u, 2u, 4u, 32u}) {
      Bytes report = random_bytes(rng, 24);
      std::vector<NodeId> ids;
      for (std::size_t i = 1; i < keys.size(); i += 3)
        ids.push_back(static_cast<NodeId>(i));
      Bytes out(ids.size() * anon_len);
      anon_id_batch(keys, report, ids, anon_len, out.data());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        Bytes serial = anon_id(keys.hmac_key(ids[i]), report, ids[i], anon_len);
        EXPECT_EQ(Bytes(out.begin() + static_cast<std::ptrdiff_t>(i * anon_len),
                        out.begin() + static_cast<std::ptrdiff_t>((i + 1) * anon_len)),
                  serial)
            << "anon_len=" << anon_len << " i=" << i;
      }
    }
  }
}

// The single-buffer context follows the forced backend too (SHA-NI vs
// portable rounds), and stays bit-identical.
TEST(Sha256MultiTest, SingleBufferIdenticalAcrossBackends) {
  Rng rng(3);
  Bytes msg = random_bytes(rng, 157);
  ForcedBackend pin(Sha256Backend::kScalar);
  Sha256Digest scalar = Sha256::hash(msg);
  for (Sha256Backend backend : supported_backends()) {
    force_sha_backend(backend);
    EXPECT_EQ(Sha256::hash(msg), scalar) << sha_backend_name(backend);
  }
}

// The AnonIdTable rebuild (now one multi-lane sweep) must produce the same
// candidate sets as per-node serial PRF evaluation, on every backend.
TEST(Sha256MultiTest, AnonIdTableIdenticalAcrossBackends) {
  KeyStore keys(Bytes{0x01, 0x02}, 200);
  Bytes report = {9, 8, 7, 6, 5};
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    sink::AnonIdTable table(keys, report, kDefaultAnonIdSize);
    for (std::size_t i = 1; i < keys.size(); ++i) {
      NodeId id = static_cast<NodeId>(i);
      Bytes anon = anon_id(keys.hmac_key(id), report, id, kDefaultAnonIdSize);
      std::vector<NodeId> cands = table.candidates(anon);
      EXPECT_NE(std::find(cands.begin(), cands.end(), id), cands.end())
          << "node " << i << " missing from its own candidate set";
    }
  }
}

std::uint64_t lanes_hist_count() {
  pnm::obs::MetricsSnapshot snap = pnm::obs::MetricsRegistry::global().scrape();
  const pnm::obs::MetricSample* s = snap.find("crypto_lanes_filled");
  return s ? s->hist.count : 0;
}

// PRF-cache stress: a warm cache must (a) keep results bit-identical and
// (b) bypass lane packing entirely — no new multi-lane sweeps — because
// hits are filtered out before jobs are packed.
TEST(Sha256MultiTest, PrfCacheHitsBypassLanePackingWithoutChangingResults) {
  net::Topology topo = net::Topology::chain(12);
  KeyStore keys(Bytes{0xaa, 0xbb, 0xcc}, topo.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 1.0;  // every hop marks: plenty of ring probes
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);

  Rng rng(11);
  net::Packet p;
  p.report = Bytes{1, 2, 3, 4, 5, 6};
  for (std::size_t h = 12; h >= 1; --h) {
    auto v = static_cast<NodeId>(h);
    scheme->mark(p, v, keys.key_unchecked(v), rng);
  }
  p.delivered_by = 1;

  marking::VerifyResult no_cache =
      sink::scoped_verify_pnm(p, keys, topo, cfg, nullptr, nullptr);

  PrfCache cache;
  marking::VerifyResult cold =
      sink::scoped_verify_pnm(p, keys, topo, cfg, nullptr, &cache);
  EXPECT_GT(cache.size(), 0u);

  std::uint64_t sweeps_before_warm = lanes_hist_count();
  marking::VerifyResult warm =
      sink::scoped_verify_pnm(p, keys, topo, cfg, nullptr, &cache);
  std::uint64_t sweeps_after_warm = lanes_hist_count();
  EXPECT_EQ(sweeps_before_warm, sweeps_after_warm)
      << "warm-cache verify packed lanes for cached PRFs";

  auto same = [](const marking::VerifyResult& a, const marking::VerifyResult& b) {
    if (a.total_marks != b.total_marks || a.invalid_marks != b.invalid_marks ||
        a.truncated_by_invalid != b.truncated_by_invalid ||
        a.chain.size() != b.chain.size())
      return false;
    for (std::size_t i = 0; i < a.chain.size(); ++i) {
      if (a.chain[i].node != b.chain[i].node ||
          a.chain[i].mark_index != b.chain[i].mark_index)
        return false;
    }
    return true;
  };
  EXPECT_TRUE(same(no_cache, cold));
  EXPECT_TRUE(same(no_cache, warm));
}

// Scoped and exhaustive verification agree on every backend (the paper's
// §7 equivalence, now also a backend-dispatch property).
TEST(Sha256MultiTest, ScopedMatchesExhaustiveEveryBackend) {
  net::Topology topo = net::Topology::chain(10);
  KeyStore keys(Bytes{0x5a}, topo.node_count());
  marking::SchemeConfig cfg;
  cfg.mark_probability = 0.4;
  auto scheme = marking::make_scheme(marking::SchemeKind::kPnm, cfg);

  Rng rng(77);
  net::Packet p;
  p.report = Bytes{42, 42};
  for (std::size_t h = 10; h >= 1; --h) {
    auto v = static_cast<NodeId>(h);
    scheme->mark(p, v, keys.key_unchecked(v), rng);
  }
  p.delivered_by = 1;

  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    marking::VerifyResult ex = scheme->verify(p, keys);
    marking::VerifyResult sc = sink::scoped_verify_pnm(p, keys, topo, cfg);
    ASSERT_EQ(ex.chain.size(), sc.chain.size());
    for (std::size_t i = 0; i < ex.chain.size(); ++i) {
      EXPECT_EQ(ex.chain[i].node, sc.chain[i].node);
      EXPECT_EQ(ex.chain[i].mark_index, sc.chain[i].mark_index);
    }
    EXPECT_EQ(ex.invalid_marks, sc.invalid_marks);
  }
}

}  // namespace
