// Multi-buffer SHA-256 engine: backend equivalence and batched-crypto
// properties.
//
// The whole design leans on one invariant: every dispatch ladder rung —
// scalar, SSE2 x4, AVX2 x8, SHA-NI, AVX-512 (fused x16 PRF sweep) —
// computes the identical function, so
// verdicts, corpus digests and metrics never depend on the CPU. These tests
// pin that invariant across ragged message lengths (0..3 blocks, including
// every padding boundary) and ragged batch sizes (1..17, so lanes are
// under-, exactly- and over-subscribed), plus the batched HMAC/PRF layers
// the fused AVX-512 sweep's id-byte, group-size and truncation edges, and
// the PRF-cache lane-bypass contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
                          Sha256Backend::kAvx2, Sha256Backend::kShaNi,
                          Sha256Backend::kAvx512}) {
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
  EXPECT_EQ(parse_sha_backend("avx512"), Sha256Backend::kAvx512);
  EXPECT_EQ(parse_sha_backend("AVX512"), Sha256Backend::kAvx512);
  EXPECT_STREQ(sha_backend_name(Sha256Backend::kAvx512), "avx512");
  EXPECT_EQ(parse_sha_backend("neon"), std::nullopt);
  EXPECT_EQ(parse_sha_backend(""), std::nullopt);
}

TEST(Sha256MultiTest, BackendLaneWidths) {
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kScalar), 1u);
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kShaNi), 1u);
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kSse2), 4u);
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kAvx2), 8u);
  EXPECT_EQ(sha_backend_lanes(Sha256Backend::kAvx512), 16u);
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

/// anon_id_batch output slot `i` of `anon_len` bytes.
Bytes slot(const Bytes& out, std::size_t i, std::size_t anon_len) {
  return Bytes(out.begin() + static_cast<std::ptrdiff_t>(i * anon_len),
               out.begin() + static_cast<std::ptrdiff_t>((i + 1) * anon_len));
}

// The PRF sweeps build each report's padded inner message once and patch
// two id bytes per lane. Report lengths put the 5 + |M| byte message on
// every padding edge (5, 6, 55, 56, 64, 119, 120: one, two and three
// blocks), and ids above 255 exercise the high id byte.
constexpr std::size_t kEdgeReportLens[] = {0, 1, 50, 51, 59, 114, 115};

std::vector<NodeId> wide_ids(std::size_t node_count) {
  std::vector<NodeId> ids;
  for (std::size_t i : {1u, 2u, 63u, 64u, 255u, 256u, 257u, 300u, 511u, 512u}) {
    if (i < node_count) ids.push_back(static_cast<NodeId>(i));
  }
  ids.push_back(static_cast<NodeId>(node_count - 1));
  return ids;
}

TEST(Sha256MultiTest, AnonIdBatchPaddingEdgesAndHighIdsEveryBackend) {
  Rng rng(1300);
  KeyStore keys(Bytes{0x13, 0x37}, 600);
  const std::vector<NodeId> ids = wide_ids(keys.size());
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t report_len : kEdgeReportLens) {
      Bytes report = random_bytes(rng, report_len);
      for (std::size_t anon_len : {2u, 32u}) {
        Bytes out(ids.size() * anon_len);
        anon_id_batch(keys, report, ids, anon_len, out.data());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          EXPECT_EQ(slot(out, i, anon_len),
                    anon_id(keys.key_unchecked(ids[i]), report, ids[i], anon_len))
              << "report_len=" << report_len << " anon_len=" << anon_len
              << " id=" << ids[i];
        }
      }
    }
  }
}

// One cross-report call mixing one-, two- and three-block reports (and an
// empty id list) must match serial anon_id for every lane.
TEST(Sha256MultiTest, AnonIdBatchMultiMixesBlockCountsEveryBackend) {
  Rng rng(1301);
  KeyStore keys(Bytes{0x42}, 400);
  const std::vector<NodeId> ids = wide_ids(keys.size());
  const std::size_t anon_len = 3;
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    std::vector<Bytes> reports;
    for (std::size_t report_len : kEdgeReportLens)
      reports.push_back(random_bytes(rng, report_len));
    std::vector<std::vector<NodeId>> job_ids(reports.size());
    std::vector<Bytes> outs(reports.size());
    std::vector<AnonIdSweepJob> jobs;
    for (std::size_t r = 0; r < reports.size(); ++r) {
      // Rotate the id list per report so lanes differ across jobs; report 3
      // gets no ids at all.
      if (r != 3) {
        job_ids[r] = ids;
        std::rotate(job_ids[r].begin(),
                    job_ids[r].begin() + static_cast<std::ptrdiff_t>(r % ids.size()),
                    job_ids[r].end());
      }
      outs[r].assign(job_ids[r].size() * anon_len, 0);
      jobs.push_back({reports[r], job_ids[r], outs[r].data()});
    }
    anon_id_batch_multi(keys, jobs, anon_len);
    for (std::size_t r = 0; r < reports.size(); ++r) {
      for (std::size_t i = 0; i < job_ids[r].size(); ++i) {
        NodeId id = job_ids[r][i];
        EXPECT_EQ(slot(outs[r], i, anon_len),
                  anon_id(keys.key_unchecked(id), reports[r], id, anon_len))
            << "report_len=" << reports[r].size() << " id=" << id;
      }
    }
  }
}

// The fused AVX-512 sweep ORs the two id bytes into a zeroed template at
// byte len-2 / len-1 of the 5 + |M| byte message. These lengths put that
// pair inside one word (56, 64, 120), across a word boundary (21, 119) and
// across a block boundary (65).
constexpr std::size_t kFusedReportLens[] = {16, 51, 59, 60, 114, 115};
constexpr std::size_t kFusedAnonLens[] = {1, 2, 4, 5, 32};

/// One key per 16-bit node id, so sweeps can reach id 65535. Built once.
const KeyStore& full_id_keys() {
  static const KeyStore keys(Bytes{0x16, 0x1a, 0x7e}, 65536);
  return keys;
}

/// Run one anon_id_batch over `ids` and compare every slot with serial
/// anon_id through the raw key.
void expect_sweep_matches_serial(const KeyStore& keys, const Bytes& report,
                                 const std::vector<NodeId>& ids, std::size_t anon_len) {
  Bytes out(ids.size() * anon_len);
  anon_id_batch(keys, report, ids, anon_len, out.data());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(slot(out, i, anon_len),
              anon_id(keys.key_unchecked(ids[i]), report, ids[i], anon_len))
        << "report_len=" << report.size() << " anon_len=" << anon_len
        << " group=" << ids.size() << " i=" << i << " id=" << ids[i];
  }
}

// Group sizes 1..33 cover one partial group, exactly 16 (15/16/17 around
// it), two full groups plus a remainder, and remainders on both sides of
// the SHA-NI cutoff; ids run across the 255/256 high-byte edge.
TEST(Sha256MultiTest, FusedSweepIdBytesAndGroupSizesEveryBackend) {
  Rng rng(1400);
  const KeyStore& keys = full_id_keys();
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t report_len : kFusedReportLens) {
      const Bytes report = random_bytes(rng, report_len);
      for (std::size_t group = 1; group <= 33; ++group) {
        std::vector<NodeId> ids;
        for (std::size_t i = 0; i < group; ++i) ids.push_back(static_cast<NodeId>(240 + i));
        expect_sweep_matches_serial(keys, report, ids,
                                    kFusedAnonLens[group % std::size(kFusedAnonLens)]);
      }
    }
  }
}

// Lanes load arbitrary key rows and ids: descending and scattered ids,
// including 255, 256 and 65535, at every truncation width.
TEST(Sha256MultiTest, FusedSweepIdOrderAndHighIdsEveryBackend) {
  Rng rng(1401);
  const KeyStore& keys = full_id_keys();
  std::vector<NodeId> descending;
  for (std::size_t i = 0; i < 21; ++i) descending.push_back(static_cast<NodeId>(300 - i));
  std::vector<NodeId> scattered = {65535, 1, 255, 256, 65534, 4097, 37, 512, 511,
                                   257,   2, 9999, 40000, 254, 65533, 1024, 3, 300};
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t report_len : kFusedReportLens) {
      const Bytes report = random_bytes(rng, report_len);
      for (std::size_t anon_len : kFusedAnonLens) {
        expect_sweep_matches_serial(keys, report, descending, anon_len);
        expect_sweep_matches_serial(keys, report, scattered, anon_len);
      }
    }
  }
}

const obs::HistogramSnapshot& lanes_hist_of(const obs::MetricsSnapshot& snap) {
  const obs::MetricSample* s = snap.find("crypto_lanes_filled");
  EXPECT_NE(s, nullptr);
  static const obs::HistogramSnapshot kEmpty;
  return s ? s->hist : kEmpty;
}

// Each fused call meters its filled lanes, so crypto.lanes_mean reports the
// width that ran; a scoped-probe-sized sweep stays single-lane.
TEST(Sha256MultiTest, FusedSweepMetersFilledLanes) {
  if (!sha_backend_supported(Sha256Backend::kAvx512)) GTEST_SKIP() << "no AVX-512";
  ForcedBackend pin(Sha256Backend::kAvx512);
  KeyStore keys(Bytes{0x0f}, 64);
  const Bytes report = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<NodeId> ids;
  for (std::size_t i = 1; i <= 40; ++i) ids.push_back(static_cast<NodeId>(i));

  // 40 ids = 16 + 16 + 8: three fused calls (a remainder of 8 is worth a
  // padded call).
  Bytes out(ids.size() * 2);
  obs::MetricsSnapshot before = obs::MetricsRegistry::global().scrape();
  anon_id_batch(keys, report, ids, 2, out.data());
  obs::MetricsSnapshot after = obs::MetricsRegistry::global().scrape();
  EXPECT_EQ(lanes_hist_of(after).count - lanes_hist_of(before).count, 3u);
  EXPECT_EQ(lanes_hist_of(after).sum - lanes_hist_of(before).sum, 40u);

  // Three ids (a scoped ring probe): single-lane, every sample is 1.
  before = obs::MetricsRegistry::global().scrape();
  anon_id_batch(keys, report, std::span<const NodeId>(ids.data(), 3), 2, out.data());
  after = obs::MetricsRegistry::global().scrape();
  const std::uint64_t samples = lanes_hist_of(after).count - lanes_hist_of(before).count;
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(lanes_hist_of(after).sum - lanes_hist_of(before).sum, samples);
}

// hmac_batch's inner message is padded into scratch and its outer block is
// pre-padded: inputs of exactly one and two blocks (so the padding spills
// into a block of its own) must still match the streaming reference.
TEST(Sha256MultiTest, HmacBatchBlockAlignedInputsEveryBackend) {
  Rng rng(1302);
  std::vector<Bytes> key_bytes = {random_bytes(rng, 16), random_bytes(rng, 64),
                                  random_bytes(rng, 131)};
  std::vector<HmacKey> hkeys;
  for (const Bytes& k : key_bytes) hkeys.emplace_back(k);
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t len : {64u, 128u}) {
      for (std::size_t batch : {1u, 3u, 9u}) {
        std::vector<Bytes> msgs;
        std::vector<HmacBatchJob> jobs;
        for (std::size_t i = 0; i < batch; ++i) msgs.push_back(random_bytes(rng, len));
        for (std::size_t i = 0; i < batch; ++i)
          jobs.push_back({&hkeys[i % hkeys.size()], msgs[i]});
        std::vector<Sha256Digest> outs(batch);
        hmac_batch(jobs, outs.data());
        for (std::size_t i = 0; i < batch; ++i) {
          Sha256 inner;
          Bytes k0(64, 0);
          const Bytes& key = key_bytes[i % key_bytes.size()];
          if (key.size() > 64) {
            Sha256Digest kh = Sha256::hash(key);
            std::copy(kh.begin(), kh.end(), k0.begin());
          } else {
            std::copy(key.begin(), key.end(), k0.begin());
          }
          // RFC 2104 from first principles, through the streaming context.
          Bytes ipad(64), opad(64);
          for (std::size_t b = 0; b < 64; ++b) {
            ipad[b] = static_cast<std::uint8_t>(k0[b] ^ 0x36);
            opad[b] = static_cast<std::uint8_t>(k0[b] ^ 0x5c);
          }
          inner.update(ipad);
          inner.update(msgs[i]);
          Sha256Digest inner_digest = inner.finish();
          Sha256 outer;
          outer.update(opad);
          outer.update(ByteView(inner_digest.data(), inner_digest.size()));
          const Sha256Digest expected = outer.finish();
          EXPECT_EQ(outs[i], expected) << "len=" << len << " batch=" << batch << " i=" << i;
          EXPECT_EQ(outs[i], hmac_sha256(key, msgs[i]));
        }
      }
    }
  }
}

// The block-level core advances caller-owned states over pre-padded blocks
// exactly like the streaming context, on ragged block counts.
TEST(Sha256MultiTest, BlockCoreMatchesStreamingEveryBackend) {
  Rng rng(1303);
  for (Sha256Backend backend : supported_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    ForcedBackend pin(backend);
    for (std::size_t batch : {1u, 2u, 5u, 8u, 11u}) {
      std::vector<Bytes> msgs, padded;
      std::vector<std::array<std::uint32_t, 8>> states(batch);
      std::vector<Sha256BlockJob> jobs;
      for (std::size_t i = 0; i < batch; ++i) {
        msgs.push_back(random_bytes(rng, static_cast<std::size_t>(rng.next_below(200))));
        Bytes buf(sha256_padded_blocks(msgs[i].size()) * 64);
        std::copy(msgs[i].begin(), msgs[i].end(), buf.begin());
        const std::size_t nb = sha256_pad_in_place(buf.data(), msgs[i].size(), 0);
        EXPECT_EQ(nb * 64, buf.size());
        padded.push_back(std::move(buf));
        Sha256 iv;
        std::copy(iv.chaining_words(), iv.chaining_words() + 8, states[i].begin());
      }
      for (std::size_t i = 0; i < batch; ++i)
        jobs.push_back({states[i].data(), padded[i].data(), padded[i].size() / 64});
      sha256_multi_blocks(jobs);
      for (std::size_t i = 0; i < batch; ++i) {
        Sha256Digest want = Sha256::hash(msgs[i]);
        for (std::size_t w = 0; w < 8; ++w) {
          const std::uint32_t word = (std::uint32_t{want[4 * w]} << 24) |
                                     (std::uint32_t{want[4 * w + 1]} << 16) |
                                     (std::uint32_t{want[4 * w + 2]} << 8) |
                                     std::uint32_t{want[4 * w + 3]};
          EXPECT_EQ(states[i][w], word) << "batch=" << batch << " i=" << i << " w=" << w;
        }
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

// The cache cap is a total across shards. Every entry of one report lives in
// one shard, so a report whose search covers more nodes than one shard's
// share of the cap must still stay cached whole.
TEST(Sha256MultiTest, PrfCacheKeepsAReportLargerThanOneShardShare) {
  constexpr std::size_t kNodes = (1 << 15) + 7000;
  constexpr std::size_t kAnonLen = 4;
  PrfCache cache;
  const std::uint64_t rkey = PrfCache::report_key(Bytes{9, 9, 9});
  std::vector<NodeId> ring;
  std::vector<std::uint8_t> values;
  for (std::size_t begin = 1; begin <= kNodes; begin += 1000) {  // ring by ring
    ring.clear();
    values.clear();
    for (std::size_t v = begin; v < begin + 1000 && v <= kNodes; ++v) {
      ring.push_back(static_cast<NodeId>(v));
      for (std::size_t b = 0; b < kAnonLen; ++b)
        values.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
    cache.insert(rkey, ring, kAnonLen, values.data());
  }
  EXPECT_EQ(cache.size(), kNodes);

  std::vector<NodeId> all(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) all[i] = static_cast<NodeId>(i + 1);
  std::vector<std::uint8_t> out(kNodes * kAnonLen), hit(kNodes);
  cache.lookup(rkey, all, kAnonLen, out.data(), hit.data());
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ(hit[i], 1) << "node " << all[i] << " was evicted";
    for (std::size_t b = 0; b < kAnonLen; ++b)
      ASSERT_EQ(out[i * kAnonLen + b], static_cast<std::uint8_t>(all[i] >> (8 * b)));
  }
}

TEST(Sha256MultiTest, PrfCacheFlushesWholeAtItsTotalCap) {
  PrfCache cache(4, 100);
  const std::vector<std::uint8_t> values(60, 0xab);
  auto nodes = [](NodeId first, std::size_t count) {
    std::vector<NodeId> out(count);
    for (std::size_t i = 0; i < count; ++i) out[i] = first + static_cast<NodeId>(i);
    return out;
  };
  const std::uint64_t a = PrfCache::report_key(Bytes{1});
  const std::uint64_t b = PrfCache::report_key(Bytes{2});
  const std::uint64_t c = PrfCache::report_key(Bytes{3});
  cache.insert(a, nodes(1, 60), 1, values.data());
  cache.insert(b, nodes(1, 40), 1, values.data());
  EXPECT_EQ(cache.size(), 100u);
  cache.insert(c, nodes(1, 5), 1, values.data());  // would pass the cap: flush
  EXPECT_EQ(cache.size(), 5u);

  std::vector<std::uint8_t> out(60), hit(60);
  cache.lookup(a, nodes(1, 60), 1, out.data(), hit.data());
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), 0);
  cache.lookup(c, nodes(1, 5), 1, out.data(), hit.data());
  EXPECT_EQ(std::count(hit.begin(), hit.begin() + 5, 1), 5);
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
