#include "ingest/merger.h"

#include "net/wire.h"
#include "obs/provenance.h"

namespace pnm::ingest {

Bytes fold_fingerprint(const net::Packet& p, const marking::VerifyResult& vr) {
  const std::size_t wire_size = net::encoded_packet_size(p);
  Bytes buf;
  // blob16(wire), delivered_by, chain count, (u16, u32) per chain mark, then
  // two u32 counts and the truncation flag.
  buf.reserve(2 + wire_size + 2 + 2 + vr.chain.size() * 6 + 4 + 4 + 1);
  ByteWriter w(std::move(buf));
  w.u16(static_cast<std::uint16_t>(wire_size));
  net::encode_packet_into(w, p);
  w.u16(p.delivered_by);
  w.u16(static_cast<std::uint16_t>(vr.chain.size()));
  for (const marking::VerifiedMark& m : vr.chain) {
    w.u16(m.node);
    w.u32(static_cast<std::uint32_t>(m.mark_index));
  }
  w.u32(static_cast<std::uint32_t>(vr.total_marks));
  w.u32(static_cast<std::uint32_t>(vr.invalid_marks));
  w.u8(vr.truncated_by_invalid ? 1 : 0);
  return std::move(w).take();
}

TracebackMerger::TracebackMerger(sink::TracebackEngine* engine) : engine_(engine) {}

void TracebackMerger::submit(std::vector<FoldEntry> entries) {
  if (entries.empty()) return;
  for (FoldEntry& e : entries) buffer_.push(std::move(e));
  if (buffer_.size() > max_pending_) max_pending_ = buffer_.size();
  drain_ready();
}

void TracebackMerger::drain_ready() {
  // Trace id stamped on an accusation whose trigger record was unsampled:
  // the accusation is the event the whole trace exists to explain, so as
  // long as sampling is on at all it is emitted even for an unsampled
  // trigger, under a recognizable sentinel. With sampling off entirely the
  // provenance stream must stay empty.
  constexpr std::uint64_t kUntracedAccusation = 0xacc0acc0acc0acc0ull;
  const bool tracing_on =
      obs::ProvenanceCollector::global().sample_rate() != 0;
  while (!buffer_.empty() && buffer_.top().seq == next_seq_) {
    const FoldEntry& e = buffer_.top();
    if (!e.dropped) {
      obs::prov_emit(e.trace_id, e.seq, obs::ProvStage::kMerge, buffer_.size());
      if (engine_) engine_->fold(e.delivered_by, e.verdict);
      digest_.update(e.fingerprint);
      ++folded_;
      obs::prov_emit(e.trace_id, e.seq, obs::ProvStage::kFold,
                     e.verdict.total_marks, e.verdict.chain.size());
      if (engine_ && !accused_) {
        const sink::RouteAnalysis& a = engine_->analysis();
        if (a.identified) {
          accused_ = true;
          if (tracing_on)
            obs::prov_emit(e.trace_id ? e.trace_id : kUntracedAccusation, e.seq,
                           obs::ProvStage::kAccuse, a.stop_node,
                           a.suspects.size());
        }
      }
    }
    ++next_seq_;
    buffer_.pop();
  }
  frontier_.store(next_seq_, std::memory_order_release);
}

std::string TracebackMerger::digest_hex() {
  if (digest_hex_.empty()) {
    crypto::Sha256Digest d = digest_.finish();
    digest_hex_ = to_hex(ByteView(d.data(), d.size()));
  }
  return digest_hex_;
}

}  // namespace pnm::ingest
