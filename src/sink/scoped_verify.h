// Topology-scoped PNM verification (§7 "Anonymous ID Mapping").
//
// The exhaustive per-report table costs one PRF evaluation per network node.
// When the sink knows the topology (e.g. from post-deployment neighbor
// reports), it can resolve each anonymous ID by searching outward from the
// previously resolved node instead: with deterministic marking that is the
// one-hop neighborhood, O(d); with probabilistic marking consecutive marks
// may be several hops apart, so the search expands ring by ring (1-hop,
// 2-hop, ...) and falls back to the full network only for truly alien IDs.
// Expected cost tracks the typical mark gap (~1/p hops), far below network
// size.
//
// The rings come from the verifying thread's RingMemo (sink/ring_layers.h),
// which keeps each anchor's walk order once RingLayers has built it: ring 1
// is the anchor and its neighbors, ring r the nodes exactly r hops out, each
// walked in ascending id order. A search steps through that order ring by
// ring and rebuilds nothing the memo holds; the memo is keyed by
// Topology::id(), extended only as far as some search has gone, and capped
// in total. With a cache, a packet resolves its report's PrfCache row once,
// and each mark walks its rings under one lock of that row, probing each
// candidate once: a ring whose candidates all hit is read in place, and a
// ring with misses releases the row only around one multi-lane sweep of
// them, then re-locks it to insert. Packets that repeat a report reuse the
// anonymous IDs an earlier packet computed. The work counters are added once
// per packet.
//
// The backward MAC pass itself is marking::nested_backward_pass, the one
// every nested-family verifier runs: it builds each mark's MAC input (before
// the row lock is taken), stops at the first mark that does not resolve, and
// assembles the chain. What this file supplies is the resolver: the ring
// search above, anchored on the last resolved node. The result is
// bit-identical to PnmScheme::verify (asserted by tests); only the search
// order — and therefore the hash count — differs.
#pragma once

#include "crypto/keys.h"
#include "crypto/prf_cache.h"
#include "marking/scheme.h"
#include "net/topology.h"
#include "util/counters.h"

namespace pnm::sink {

struct ScopedVerifyStats {
  std::size_t prf_evaluations = 0;  ///< candidate anonymous-ID probes
  std::size_t mac_checks = 0;       ///< candidate MAC verifications
  std::size_t ring_expansions = 0;  ///< times the search widened past 1 hop
};

/// Verify a PNM packet using the topology-scoped search. `cfg` must match
/// the marking configuration in force. The search anchors on the packet's
/// radio-layer previous hop (`delivered_by`); if that is unknown it anchors
/// on the sink. Stats are accumulated into `stats` when non-null.
///
/// `cache` memoizes PRF probes across marks and packets (the result is
/// unchanged — only recomputation is skipped); `counters` receives metric
/// increments, defaulting to util::Counters::global() when null. The
/// topology, the cache and the counters are all safe to share across
/// threads; each thread walks rings through its own memo and buffers.
marking::VerifyResult scoped_verify_pnm(const net::Packet& p,
                                        const crypto::KeyStore& keys,
                                        const net::Topology& topo,
                                        const marking::SchemeConfig& cfg,
                                        ScopedVerifyStats* stats = nullptr,
                                        crypto::PrfCache* cache = nullptr,
                                        util::Counters* counters = nullptr);

}  // namespace pnm::sink
