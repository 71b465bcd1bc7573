// Closed-form models from the paper's evaluation (§6.1) and feasibility
// arguments (§4.2). These are what bench/fig4_collection_probability prints
// and what the simulation results are validated against in tests.
#pragma once

#include <cstddef>

namespace pnm::analysis {

/// §6.1 / Fig. 4: probability that within L packets the sink has collected
/// at least one mark from EACH of the n forwarding nodes, when every node
/// marks each packet independently with probability p:
///     P(L) = (1 - (1-p)^L)^n
double prob_all_marks_within(std::size_t n, double p, std::size_t L);

/// Smallest L with prob_all_marks_within(n, p, L) >= confidence.
std::size_t packets_for_confidence(std::size_t n, double p, double confidence);

/// Expected number of packets until nodes V1 and V2 first co-mark one packet
/// — the dominant term in "unequivocal source identification" (V2's only
/// possible upstream witness is V1), i.e. 1/p^2.
double expected_packets_to_order_first_pair(double p);

/// Probability that V1 and V2 never co-mark within L packets: (1 - p^2)^L.
/// Approximates the Fig. 6 failure rate for long paths.
double prob_identification_failure(double p, std::size_t L);

/// Mean marks per packet on an n-hop path with probability p (= n*p).
double expected_marks_per_packet(std::size_t n, double p);

/// Expected per-packet mark overhead in bytes (id + MAC + framing per mark).
double expected_mark_bytes(std::size_t n, double p, std::size_t id_len,
                           std::size_t mac_len);

/// §4.2 sink-feasibility model: packets/second the sink can verify, given a
/// measured hash rate, network size (anon-table build = one hash per node)
/// and marks per packet (one hash per mark plus collision retries). The
/// one-hash-per-node table is the worst case, paid when a mark is invalid:
/// the exhaustive verifier sweeps in ascending node id and stops once every
/// mark has resolved, so honest packets typically cost fewer hashes.
double sink_verifiable_packets_per_second(double hashes_per_second,
                                          std::size_t network_nodes,
                                          double marks_per_packet);

/// Expected anonymous IDs the early-exit exhaustive verify sweeps for one
/// honest packet on an n-forwarder chain whose forwarders V1..Vn each mark
/// with probability p (Fig. 4's model). The sweep runs in ascending id,
/// `chunk` ids at a time, until it has reached the highest-id marker; the
/// table holds ids 1..n+1 (the forwarders and the source, which does not
/// mark), so a packet costs its highest marker id rounded up to a whole
/// chunk and capped at n+1, and a markless packet costs 0:
///     E = sum_{m=1..n} p (1-p)^(n-m) * min(ceil(m/chunk)*chunk, n+1)
double expected_exhaustive_sweep(std::size_t n, double p, std::size_t chunk);

}  // namespace pnm::analysis
