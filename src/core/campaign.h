// End-to-end experiment drivers — the functions benches, examples and
// integration tests call.
//
//  * run_chain_experiment: the paper's evaluation setup (§6): a source mole
//    injecting through a chain of n forwarders, optionally with a colluding
//    forwarding mole, for a fixed packet budget. Produces everything Figs.
//    5-7 and the attack matrix need.
//  * run_catch_campaign: the operational story (§1, §7 "Mole Isolation"):
//    inject until the sink identifies a neighborhood, dispatch inspection,
//    isolate the caught mole, re-route, repeat until the attack dies.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "attack/colluding.h"
#include "core/config.h"
#include "sink/route_reconstruct.h"
#include "sink/traceback.h"
#include "trace/format.h"

namespace pnm::core {

struct ChainExperimentConfig {
  std::size_t forwarders = 10;  ///< n, the path length between mole and sink
  PnmConfig protocol;
  attack::AttackKind attack = attack::AttackKind::kSourceOnly;
  /// Hops between source and the forwarding mole; 0 = middle of the path.
  std::size_t forwarder_offset = 0;
  std::size_t packets = 100;  ///< bogus packets injected by the source
  double injection_interval_s = 1.0 / 30.0;
  double link_loss = 0.0;
  std::uint64_t seed = 1;
  /// When non-empty, every delivered packet is recorded to this .pnmtrace
  /// file (wire bytes + delivery time + previous hop), with the campaign
  /// parameters in the header so `ingest::replay_trace` can rebuild the
  /// sink and reproduce the identical accusation set offline.
  std::string record_path;
};

struct ChainExperimentResult {
  std::size_t packets_injected = 0;
  std::size_t packets_delivered = 0;
  sink::RouteAnalysis final_analysis;
  /// Packet count at which the final (stable) identification was reached.
  std::optional<std::size_t> packets_to_identify;
  std::set<NodeId> markers_seen;
  std::size_t marks_verified = 0;
  /// Ground truth: the suspect neighborhood contains a real mole.
  bool mole_in_suspects = false;
  /// Ground truth: the stop node is V1, the source's first forwarder — the
  /// correct unequivocal answer in source-only runs.
  bool correct_source_neighborhood = false;
  NodeId v1 = kInvalidNode;
  std::vector<NodeId> moles;
  double sim_duration_s = 0.0;
  double total_energy_uj = 0.0;
  std::size_t records_recorded = 0;  ///< trace records written (record_path set)
  // Radio-layer loss accounting, copied out of the simulator so scenario
  // digests cover the full packet ledger, not just deliveries.
  std::size_t packets_dropped_links = 0;
  std::size_t packets_dropped_nodes = 0;
  std::size_t packets_dropped_queues = 0;
  std::size_t packets_dropped_isolated = 0;
};

/// Master secret every campaign derives its KeyStore from; exposed so a
/// trace replay with the recorded seed rebuilds the identical keys.
Bytes campaign_master_secret(std::uint64_t seed);

/// What a sink needs to check the marks of a recorded campaign (§4.2, and
/// §7 for the scoped search): the topology, the node keys and the scheme
/// with its parameters.
struct CampaignWorld {
  std::uint64_t seed = 0;
  marking::SchemeKind kind = marking::SchemeKind::kPnm;
  net::Topology topo;
  crypto::KeyStore keys;  ///< epoch 0: campaign_master_secret(seed)
  std::unique_ptr<marking::MarkingScheme> scheme;
};

/// The one decoder of a trace header into a sink's world. Requires the seed,
/// a forwarder count in 2..60000 and a known scheme; the mark probability
/// (in [0, 1]), MAC length and anonymous-ID length (1..32 bytes) take the
/// scheme defaults when absent but fail the header when malformed.
/// nullopt + *error on any defect.
std::optional<CampaignWorld> decode_campaign(const trace::TraceMeta& meta,
                                             std::string* error);

/// Canonical campaign identity string derived from a trace header: the keys
/// that shape the sink decode_campaign builds. Two traces recorded under the
/// same campaign parameters (and thus verifiable by the same sink) map to
/// the same id. The serve daemon computes its id from the bootstrap trace;
/// clients compute theirs from the trace they stream, and the handshake
/// rejects mismatches before any record crosses the wire.
std::string campaign_id_from_meta(const trace::TraceMeta& meta);

/// Called after each delivered packet with the engine state; lets Fig. 5
/// sample the mark-collection curve without rerunning.
using PacketObserver =
    std::function<void(std::size_t delivered_count, const sink::TracebackEngine&)>;

ChainExperimentResult run_chain_experiment(const ChainExperimentConfig& cfg,
                                           const PacketObserver& observer = nullptr);

// ---------------------------------------------------------------------------

enum class FieldKind { kChain, kGrid };

struct CatchCampaignConfig {
  FieldKind field = FieldKind::kChain;
  std::size_t forwarders = 20;   ///< chain length (kChain)
  std::size_t grid_width = 12;   ///< field size (kGrid)
  std::size_t grid_height = 12;
  double grid_range = 1.6;
  PnmConfig protocol;
  attack::AttackKind attack = attack::AttackKind::kRemoval;
  std::size_t forwarder_offset = 0;
  std::size_t max_packets = 5000;  ///< total injection budget
  double injection_interval_s = 1.0 / 30.0;
  /// The sink dispatches a physical inspection only after the identification
  /// has been stable (same stop node) for this many consecutive suspicious
  /// packets — premature route estimates should not send task forces out.
  std::size_t stability_window = 10;
  std::uint64_t seed = 1;
};

struct CatchPhase {
  NodeId caught = kInvalidNode;
  std::size_t inspections = 0;         ///< nodes physically inspected
  std::size_t wasted_inspections = 0;  ///< inspections on mole-free neighborhoods
  std::size_t bogus_delivered = 0;     ///< bogus packets the sink absorbed
  double duration_s = 0.0;
  double energy_uj = 0.0;              ///< network energy burned this phase
  bool via_loop = false;
};

struct CatchCampaignResult {
  std::vector<CatchPhase> phases;
  bool all_moles_caught = false;
  /// True when remaining moles can no longer reach the sink (isolation cut
  /// their only path) — the attack is dead even if a mole survives.
  bool attack_neutralized = false;
  std::size_t total_bogus_injected = 0;
  std::size_t total_bogus_delivered = 0;
  double total_energy_uj = 0.0;
  double total_time_s = 0.0;
};

CatchCampaignResult run_catch_campaign(const CatchCampaignConfig& cfg);

}  // namespace pnm::core
