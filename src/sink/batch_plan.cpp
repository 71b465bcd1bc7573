#include "sink/batch_plan.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/anon_id.h"
#include "crypto/hmac.h"
#include "marking/mark.h"
#include "sink/anon_lookup.h"
#include "sink/scoped_verify.h"

namespace pnm::sink {

namespace {

std::atomic<int> g_forced_mode{-1};

PackMode default_pack_mode() {
  static const PackMode resolved = [] {
    if (const char* env = std::getenv("PNM_PACK_MODE")) {
      if (auto parsed = parse_pack_mode(env)) return *parsed;
      std::fprintf(stderr, "pnm: unrecognized PNM_PACK_MODE=%s (want packet|cross); using cross\n",
                   env);
    }
    return PackMode::kCross;
  }();
  return resolved;
}

std::string_view report_view(const net::Packet& p) {
  return std::string_view(reinterpret_cast<const char*>(p.report.data()),
                          p.report.size());
}

}  // namespace

const char* pack_mode_name(PackMode mode) {
  return mode == PackMode::kPacket ? "packet" : "cross";
}

std::optional<PackMode> parse_pack_mode(std::string_view name) {
  std::string lowered(name);
  for (char& c : lowered) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lowered == "packet" || lowered == "per-packet" || lowered == "per_packet")
    return PackMode::kPacket;
  if (lowered == "cross" || lowered == "batch") return PackMode::kCross;
  return std::nullopt;
}

PackMode active_pack_mode() {
  int forced = g_forced_mode.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<PackMode>(forced);
  return default_pack_mode();
}

void force_pack_mode(std::optional<PackMode> mode) {
  g_forced_mode.store(mode ? static_cast<int>(*mode) : -1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Exhaustive planner
// ---------------------------------------------------------------------------

void plan_verify_exhaustive(const marking::SchemeConfig& cfg,
                            const crypto::KeyStore& keys,
                            std::span<const net::Packet> packets,
                            marking::VerifyResult* results, util::Counters& metrics,
                            obs::Counter* reports_deduped) {
  const std::size_t n = packets.size();
  constexpr std::size_t kNoTable = static_cast<std::size_t>(-1);

  // 1. Dedup: one table slot per distinct report among packets that carry
  // marks (markless packets never build a table on the per-packet path).
  std::unordered_map<std::string_view, std::size_t> table_of;
  std::vector<ByteView> table_reports;
  std::vector<std::size_t> packet_table(n, kNoTable);
  std::uint64_t deduped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const net::Packet& p = packets[i];
    metrics.add(util::Metric::kPacketsVerified);
    results[i] = marking::VerifyResult{};
    results[i].total_marks = p.marks.size();
    if (p.marks.empty()) continue;
    auto [it, inserted] = table_of.try_emplace(report_view(p), table_reports.size());
    if (inserted) {
      table_reports.push_back(ByteView(p.report.data(), p.report.size()));
    } else {
      ++deduped;
    }
    packet_table[i] = it->second;
  }
  if (reports_deduped != nullptr && deduped > 0) reports_deduped->add(deduped);
  if (table_reports.empty()) return;

  // 2a. Global PRF sweep: every distinct table's node sweep (ids 1..N-1, the
  // sink never marks) through ONE anon_id_batch_multi call, then each slice
  // becomes a table as is. kPrfEvals meters PRFs actually computed — one full
  // sweep per *distinct* report, which is the point of the dedup.
  const std::size_t node_cnt = keys.size() > 1 ? keys.size() - 1 : 0;
  std::vector<NodeId> all_ids;
  all_ids.reserve(node_cnt);
  for (std::size_t i = 1; i <= node_cnt; ++i) all_ids.push_back(static_cast<NodeId>(i));

  std::vector<AnonIdTable> tables(table_reports.size(), AnonIdTable(cfg.anon_len));
  if (node_cnt > 0 && cfg.anon_len > 0) {
    const std::size_t stride = node_cnt * cfg.anon_len;
    Bytes prf_arena(table_reports.size() * stride);
    std::vector<crypto::AnonIdSweepJob> sweep(table_reports.size());
    for (std::size_t t = 0; t < table_reports.size(); ++t) {
      sweep[t] = {table_reports[t], all_ids, prf_arena.data() + t * stride};
    }
    crypto::anon_id_batch_multi(keys, sweep, cfg.anon_len);
    metrics.add(util::Metric::kPrfEvals, table_reports.size() * node_cnt);
    for (std::size_t t = 0; t < table_reports.size(); ++t) {
      tables[t] = AnonIdTable::from_precomputed(
          ByteView(prf_arena.data() + t * stride, stride), cfg.anon_len);
    }
  }
  // Otherwise (sink-only network or zero-width IDs) every table stays empty,
  // same as the hashing constructor.

  // 2b. Global MAC sweep: candidate-set MACs for every mark of every packet
  // in one hmac_batch. Safe to hoist because the nested-MAC input
  // M_{j-1}|i' is a pure function of the packet bytes — it never depends on
  // how earlier (higher-j) marks resolved. Lanes past a packet's break
  // point are speculative and unmetered, exactly like the per-packet
  // batched disambiguation.
  struct MarkPlan {
    std::size_t cand = 0;   ///< first of this mark's candidates in `cands`
    std::size_t count = 0;  ///< candidates, ascending id
    std::size_t lane = 0;   ///< first MAC lane for this mark's candidates
  };
  std::vector<std::size_t> mark_off(n + 1, 0);
  std::vector<MarkPlan> plans;
  std::vector<NodeId> cands;
  std::vector<Bytes> inputs;  // stable heap buffers; jobs hold views into them
  std::vector<crypto::HmacBatchJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    mark_off[i] = plans.size();
    if (packet_table[i] == kNoTable) continue;
    const net::Packet& p = packets[i];
    const AnonIdTable& table = tables[packet_table[i]];
    for (std::size_t j = 0; j < p.marks.size(); ++j) {
      const net::Mark& m = p.marks[j];
      MarkPlan mp;
      mp.cand = cands.size();
      table.collect(m.id_field, 0, cands);
      mp.count = cands.size() - mp.cand;
      if (mp.count > 0) {
        inputs.push_back(marking::nested_mac_input(p, j, m.id_field));
        mp.lane = jobs.size();
        for (std::size_t c = mp.cand; c < cands.size(); ++c) {
          jobs.push_back({&keys.hmac_key(cands[c]), ByteView(inputs.back())});
        }
      }
      plans.push_back(mp);
    }
  }
  mark_off[n] = plans.size();
  std::vector<crypto::Sha256Digest> macs(jobs.size());
  if (!jobs.empty()) crypto::hmac_batch(jobs, macs.data());

  // 3. Scatter: the per-packet backward walk, candidates in ascending id,
  // kMacChecks metered per candidate walked up to the resolving one.
  for (std::size_t i = 0; i < n; ++i) {
    if (packet_table[i] == kNoTable) continue;
    const net::Packet& p = packets[i];
    marking::VerifyResult& out = results[i];
    for (std::size_t j = p.marks.size(); j-- > 0;) {
      const net::Mark& m = p.marks[j];
      const MarkPlan& mp = plans[mark_off[i] + j];
      NodeId resolved = kInvalidNode;
      for (std::size_t c = 0; c < mp.count; ++c) {
        metrics.add(util::Metric::kMacChecks);
        if (m.mac.size() >= 1 && m.mac.size() <= crypto::kSha256DigestSize &&
            constant_time_equal(ByteView(macs[mp.lane + c].data(), m.mac.size()),
                                m.mac)) {
          resolved = cands[mp.cand + c];
          break;
        }
      }
      if (resolved == kInvalidNode) {
        out.invalid_marks = j + 1;
        out.truncated_by_invalid = true;
        break;
      }
      out.chain.insert(out.chain.begin(), marking::VerifiedMark{resolved, j});
    }
  }
}

// ---------------------------------------------------------------------------
// Scoped planner (lockstep wavefront over the §7 ring search)
// ---------------------------------------------------------------------------

namespace {

/// One packet's ring-search state machine. Each wavefront round advances
/// every in-flight lane by exactly one ring step, so the per-lane sequence of
/// (mark, ring) probes — and therefore the verdict — is identical to running
/// scoped_verify_pnm on that packet alone.
struct ScopedLane {
  const net::Packet* p = nullptr;
  marking::VerifyResult* out = nullptr;
  std::uint64_t rkey = 0;
  NodeId anchor = kSinkId;
  std::size_t j = 0;  ///< mark currently being resolved
  RingWalk walk;      ///< mark j's ring search
  Bytes input;        ///< nested_mac_input for mark j
  bool active = false;

  // Round scratch.
  std::vector<std::uint32_t> miss_group, miss_pos;  ///< per miss: sweep slot
  bool grew = false;
};

/// Mark `lane`'s current mark unresolved: truncate the chain and retire it.
void truncate_lane(ScopedLane& lane) {
  lane.out->invalid_marks = lane.j + 1;
  lane.out->truncated_by_invalid = true;
  lane.active = false;
}

/// Point `lane` at mark j (ring 1 around its anchor). A malformed identity
/// field can never resolve, so it truncates immediately — same as the serial
/// loop falling through its candidate search.
void start_mark(ScopedLane& lane, const net::Topology& topo, std::size_t j,
                std::size_t anon_len) {
  lane.j = j;
  lane.walk.start(topo, lane.anchor);
  const net::Mark& m = lane.p->marks[j];
  if (m.id_field.size() != anon_len) {
    truncate_lane(lane);
    return;
  }
  lane.input = marking::nested_mac_input(*lane.p, j, m.id_field);
}

}  // namespace

void plan_verify_scoped(const marking::SchemeConfig& cfg, const crypto::KeyStore& keys,
                        const net::Topology& topo,
                        std::span<const net::Packet> packets,
                        marking::VerifyResult* results, crypto::PrfCache* cache,
                        util::Counters& metrics, obs::Counter* reports_deduped) {
  const std::size_t n = packets.size();
  const std::size_t ring_bound = topo.node_count();

  std::vector<ScopedLane> lanes(n);
  std::unordered_map<std::string_view, std::size_t> seen_reports;
  std::uint64_t deduped = 0;
  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const net::Packet& p = packets[i];
    ScopedLane& lane = lanes[i];
    metrics.add(util::Metric::kPacketsVerified);
    results[i] = marking::VerifyResult{};
    results[i].total_marks = p.marks.size();
    if (p.marks.empty()) continue;
    if (!seen_reports.try_emplace(report_view(p), i).second) ++deduped;
    lane.p = &p;
    lane.out = &results[i];
    lane.rkey = cache != nullptr ? crypto::PrfCache::report_key(p.report) : 0;
    lane.anchor = (p.delivered_by != kInvalidNode && p.delivered_by < topo.node_count())
                      ? p.delivered_by
                      : kSinkId;
    lane.active = true;
    start_mark(lane, topo, p.marks.size() - 1, cfg.anon_len);
    if (lane.active) ++in_flight;
  }
  if (reports_deduped != nullptr && deduped > 0) reports_deduped->add(deduped);

  // Round scratch shared across rounds: misses grouped by report content so
  // each round's PRF work is ONE anon_id_batch_multi sweep. Dedup is by
  // (report bytes, node) — two in-flight packets probing the same pair share
  // a lane, which is exactly the recomputation the PrfCache would have
  // elided had the packets run back to back.
  struct MissGroup {
    ByteView report;
    std::uint64_t rkey = 0;
    std::vector<NodeId> nodes;
    std::unordered_map<NodeId, std::uint32_t> slot_of;
    Bytes out;
  };
  std::vector<MissGroup> groups;
  std::unordered_map<std::string_view, std::size_t> group_of;
  std::vector<crypto::AnonIdSweepJob> sweep;
  std::vector<crypto::HmacBatchJob> mac_jobs;
  std::vector<crypto::Sha256Digest> mac_out;
  std::vector<std::uint32_t> match_lane;  // per lane: first MAC lane this round

  while (in_flight > 0) {
    // Phase A: every in-flight lane loads its ring (one cache probe per
    // ring; hits never occupy a PRF lane) and files its misses by report.
    groups.clear();
    group_of.clear();
    for (ScopedLane& lane : lanes) {
      if (!lane.active) continue;
      lane.grew = lane.walk.load(keys.size(), cache, lane.rkey, cfg.anon_len);
      const std::span<const NodeId> misses = lane.walk.miss_ids();
      lane.miss_group.resize(misses.size());
      lane.miss_pos.resize(misses.size());
      if (misses.empty()) continue;
      auto [git, fresh] = group_of.try_emplace(report_view(*lane.p), groups.size());
      if (fresh) {
        groups.emplace_back();
        groups.back().report = ByteView(lane.p->report.data(), lane.p->report.size());
        groups.back().rkey = lane.rkey;
      }
      MissGroup& g = groups[git->second];
      for (std::size_t k = 0; k < misses.size(); ++k) {
        auto [sit, new_node] =
            g.slot_of.try_emplace(misses[k], static_cast<std::uint32_t>(g.nodes.size()));
        if (new_node) g.nodes.push_back(misses[k]);
        lane.miss_group[k] = static_cast<std::uint32_t>(git->second);
        lane.miss_pos[k] = sit->second;
      }
    }

    // Phase B: ONE global PRF sweep over every group's misses, then scatter
    // the values back to lanes and into the cache (idempotent insert).
    if (!groups.empty()) {
      sweep.clear();
      for (MissGroup& g : groups) {
        g.out.resize(g.nodes.size() * cfg.anon_len);
        sweep.push_back({g.report, g.nodes, g.out.data()});
      }
      crypto::anon_id_batch_multi(keys, sweep, cfg.anon_len);
      if (cache != nullptr) {
        for (const MissGroup& g : groups)
          cache->insert(g.rkey, g.nodes, cfg.anon_len, g.out.data());
      }
      for (ScopedLane& lane : lanes) {
        if (!lane.active) continue;
        for (std::size_t k = 0; k < lane.walk.miss_ids().size(); ++k) {
          const MissGroup& g = groups[lane.miss_group[k]];
          lane.walk.fill_miss(k, g.out.data() + lane.miss_pos[k] * cfg.anon_len);
        }
      }
    }

    // Phase C: ONE global MAC sweep over every lane's anon-matching
    // candidates (speculative past each lane's break point, like the
    // per-packet batched disambiguation).
    mac_jobs.clear();
    match_lane.assign(n, 0);
    for (std::size_t li = 0; li < n; ++li) {
      ScopedLane& lane = lanes[li];
      if (!lane.active) continue;
      match_lane[li] = static_cast<std::uint32_t>(mac_jobs.size());
      const net::Mark& m = lane.p->marks[lane.j];
      const std::span<const NodeId> cands = lane.walk.candidates();
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (lane.walk.matches(i, m.id_field))
          mac_jobs.push_back({&keys.hmac_key(cands[i]), ByteView(lane.input)});
      }
    }
    mac_out.resize(mac_jobs.size());
    if (!mac_jobs.empty()) crypto::hmac_batch(mac_jobs, mac_out.data());

    // Phase D: walk each ring in id order with the serial accounting, then
    // advance the state machine (next ring, next mark, or done).
    for (std::size_t li = 0; li < n; ++li) {
      ScopedLane& lane = lanes[li];
      if (!lane.active) continue;
      const net::Mark& m = lane.p->marks[lane.j];
      std::uint32_t mac_lane = match_lane[li];
      const NodeId resolved =
          lane.walk
              .walk(m.id_field, cache != nullptr, metrics,
                    [&](std::size_t) {
                      const std::uint32_t lane_idx = mac_lane++;
                      return m.mac.size() >= 1 &&
                             m.mac.size() <= crypto::kSha256DigestSize &&
                             constant_time_equal(
                                 ByteView(mac_out[lane_idx].data(), m.mac.size()), m.mac);
                    })
              .resolved;

      if (resolved != kInvalidNode) {
        lane.out->chain.insert(lane.out->chain.begin(),
                               marking::VerifiedMark{resolved, lane.j});
        lane.anchor = resolved;
        if (lane.j == 0) {
          lane.active = false;
        } else {
          start_mark(lane, topo, lane.j - 1, cfg.anon_len);
        }
      } else if (!lane.walk.advance(lane.grew, ring_bound)) {
        // Ring stopped growing (whole component searched) or the diameter
        // bound is exhausted: the mark cannot resolve.
        truncate_lane(lane);
      }
      if (!lane.active) --in_flight;
    }
  }
}

}  // namespace pnm::sink
