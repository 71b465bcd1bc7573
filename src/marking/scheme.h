// The MarkingScheme interface: node-side marking behavior plus sink-side
// per-packet verification. Six implementations span the paper's design space:
//
//   NoMarking         — null baseline (no traceback possible)
//   PlainPpm          — Savage-style append marking, no crypto (§3 strawman)
//   ExtendedAms       — Song-Perrig AMS extended to multi-mark (§3 baseline);
//                       MACs cover only (report, own ID): individually valid,
//                       collectively unprotected
//   NestedMarking     — §4.1: deterministic, every hop marks; MAC covers the
//                       entire received message (one-hop precise, Thm. 2)
//   NaiveProbNested   — §4.2 "incorrect extension": nested + probability p,
//                       but plaintext IDs — defeated by selective dropping
//   PnmScheme         — §4.2 PNM proper: nested + probability p + per-message
//                       anonymous IDs
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "crypto/keys.h"
#include "net/report.h"
#include "util/rng.h"

namespace pnm::marking {

struct SchemeConfig {
  /// Marking probability p. Deterministic schemes ignore it (always 1).
  double mark_probability = 1.0;
  /// Truncated MAC width in bytes.
  std::size_t mac_len = 4;
  /// Anonymous-ID width in bytes (PNM only).
  std::size_t anon_len = 2;
};

/// One mark whose MAC the sink accepted, resolved to a real node.
struct VerifiedMark {
  NodeId node = kInvalidNode;
  std::size_t mark_index = 0;  ///< position in Packet::marks
};

/// Outcome of sink-side verification of a single packet.
struct VerifyResult {
  /// Marks with valid MACs, in path order (most upstream first). For nested
  /// schemes this is the maximal verified *suffix* of the mark list: the
  /// backward pass stops at the first invalid MAC.
  std::vector<VerifiedMark> chain;
  std::size_t total_marks = 0;
  std::size_t invalid_marks = 0;
  /// True if a bad MAC cut the backward pass short (nested schemes), i.e.
  /// someone upstream of chain.front() tampered with the packet.
  bool truncated_by_invalid = false;
};

class MarkingScheme {
 public:
  explicit MarkingScheme(SchemeConfig cfg) : cfg_(cfg) {}
  virtual ~MarkingScheme() = default;

  MarkingScheme(const MarkingScheme&) = delete;
  MarkingScheme& operator=(const MarkingScheme&) = delete;

  virtual std::string_view name() const = 0;

  /// Whether marks expose real node IDs in plaintext. Drives the selective-
  /// dropping attack: a mole can only target marks it can attribute.
  virtual bool plaintext_ids() const = 0;

  /// Whether marks carry MACs (false only for crypto-less baselines). Moles
  /// mimic the wire format when forging marks.
  virtual bool marks_carry_macs() const { return true; }

  /// Keyed-hash evaluations one mark costs the marking node; drives the
  /// CPU-energy accounting (EnergyLedger::on_compute).
  virtual std::size_t hashes_per_mark() const { return marks_carry_macs() ? 1 : 0; }

  /// Node-side behavior of a *legitimate* forwarder: possibly append a mark.
  virtual void mark(net::Packet& p, NodeId self, ByteView key, Rng& rng) const = 0;

  /// Forge-or-honest mark construction for the *current* packet state,
  /// claiming identity `claimed` with key `key`. Legitimate nodes never need
  /// this; moles use it for identity swapping and mark insertion (they own
  /// the claimed key, or they don't and the MAC will simply not verify).
  virtual net::Mark make_mark(const net::Packet& p, NodeId claimed, ByteView key,
                              Rng& rng) const = 0;

  /// Sink-side verification of one received packet.
  virtual VerifyResult verify(const net::Packet& p, const crypto::KeyStore& keys) const = 0;

  const SchemeConfig& config() const { return cfg_; }

 protected:
  SchemeConfig cfg_;
};

enum class SchemeKind {
  kNoMarking,
  kPlainPpm,
  kExtendedAms,
  kNested,
  kNaiveProbNested,
  kPnm,
};

/// Factory over all schemes; the attack-matrix bench iterates this.
std::unique_ptr<MarkingScheme> make_scheme(SchemeKind kind, SchemeConfig cfg);
std::string_view scheme_kind_name(SchemeKind kind);
/// Inverse of scheme_kind_name; nullopt for a name no scheme has.
std::optional<SchemeKind> scheme_kind_by_name(std::string_view name);
std::vector<SchemeKind> all_scheme_kinds();

}  // namespace pnm::marking
