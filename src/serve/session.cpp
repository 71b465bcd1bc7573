#include "serve/session.h"

#include <utility>

#include "net/wire.h"
#include "obs/flight.h"
#include "obs/provenance.h"
#include "serve/server.h"

namespace pnm::serve {

namespace {
constexpr std::size_t kRecvChunk = 64 * 1024;
}  // namespace

Session::Session(Socket sock, Server& server, std::uint64_t id)
    : sock_(std::move(sock)), server_(server), id_(id) {
  sock_.set_nodelay();
  sock_.set_recv_timeout(kHelloDeadline);
  trace_.meter_into(server_.counters());
}

void Session::run() {
  Bytes buf(kRecvChunk);
  while (!done_) {
    long n = sock_.recv_some(buf.data(), buf.size());
    if (n <= 0) {
      // Peer vanished (or drain force-closed us) without Eof: whatever
      // records already went in stay in the global digest — they were
      // verified — but there is no receipt to send. A stream that already
      // pushed records and then died is a digest-receipt mismatch: the
      // global digest holds records no client receipt accounts for.
      if (!done_) {
        server_.note_session_abort();
        if (stream_seq_ > 0)
          obs::FlightRecorder::global().note_anomaly(
              obs::AnomalyKind::kDigestMismatch,
              "client disconnected mid-stream after " +
                  std::to_string(stream_seq_) + " records, no digest receipt",
              id_);
      }
      return;
    }
    server_.note_session_bytes(static_cast<std::size_t>(n));
    msgs_.feed(ByteView(buf.data(), static_cast<std::size_t>(n)));
    std::optional<Msg> msg;
    while (!done_ && (msg = msgs_.poll())) {
      if (!handle_msg(std::move(*msg))) return;
    }
    if (msgs_.dead()) {
      abort_session("oversized protocol message");
      return;
    }
  }
}

bool Session::handle_msg(Msg msg) {
  if (!hello_done_ && msg.type != MsgType::kHello) {
    abort_session("expected Hello");
    return false;
  }
  switch (msg.type) {
    case MsgType::kHello: {
      auto hello = decode_hello(msg.payload);
      if (!hello || hello->proto != kProtoVersion) {
        abort_session("unsupported protocol version");
        return false;
      }
      if (hello->campaign_id != server_.campaign_id()) {
        abort_session("campaign mismatch: sink serves " + server_.campaign_id());
        return false;
      }
      hello_done_ = true;
      HelloAck ack;
      ack.credit_window = server_.credit_window();
      ack.key_epoch = server_.key_epoch();
      ack.campaign_id = server_.campaign_id();
      if (!send_msg(MsgType::kHelloAck, encode_hello_ack(ack))) return false;
      sock_.set_recv_timeout(std::chrono::milliseconds(0));
      return true;
    }
    case MsgType::kTraceData:
      trace_.feed(msg.payload);
      return drain_trace_frames();
    case MsgType::kEof: {
      auto eof = decode_eof(msg.payload);
      if (!eof) {
        abort_session("malformed Eof");
        return false;
      }
      trace_.finish();
      if (!drain_trace_frames()) return false;
      if (outcomes_ != eof->records_sent) {
        abort_session("record-frame accounting mismatch at Eof");
        return false;
      }
      return finish_and_report();
    }
    case MsgType::kPing: {
      auto token = decode_token(msg.payload);
      if (!token) {
        abort_session("malformed Ping");
        return false;
      }
      return send_msg(MsgType::kPong, encode_token(*token));
    }
    case MsgType::kAbort:
      server_.note_session_abort();
      done_ = true;
      return false;
    default:
      abort_session("unexpected message type");
      return false;
  }
}

bool Session::drain_trace_frames() {
  while (auto outcome = trace_.poll()) {
    // The stream header always parses before the first record frame pops
    // out, so this refuses a foreign-campaign trace before any of its
    // records reaches the pipeline (or the global verdict digest).
    if (!check_campaign()) return false;
    switch (outcome->status) {
      case trace::ReadStatus::kRecord: {
        ++outcomes_;
        ++credits_owed_;
        auto packet = net::decode_packet(outcome->record.wire);
        if (!packet) {
          server_.counters()->add(util::Metric::kTraceDecodeErrors);
          break;  // frame consumed, no stream seq — replay skips it too
        }
        packet->delivered_by = outcome->record.delivered_by;
        // Session ingress is the serve-side kDeliver: same content hash as
        // simulator delivery and replay, so sampling picks the same records.
        // The pipeline reuses the id rather than hashing the record again.
        const std::uint64_t trace_id =
            obs::ProvenanceCollector::global().admit(packet->report, packet->delivered_by);
        obs::prov_emit(trace_id, stream_seq_ + pending_.size(), obs::ProvStage::kDeliver,
                       id_, packet->marks.size());
        pending_.push_back(
            ingest::PushRecord{std::move(*packet), outcome->record.time_s(), trace_id});
        break;
      }
      case trace::ReadStatus::kBadCrc:
      case trace::ReadStatus::kBadRecord:
        ++outcomes_;  // consumed a record frame, just a rotten one
        ++credits_owed_;
        break;
      case trace::ReadStatus::kTruncated:
      case trace::ReadStatus::kOversized:
        if (push_pending()) abort_session("malformed trace stream");
        return false;
    }
  }
  if (trace_.header_failed()) {
    abort_session("bad trace header: " + trace_.header_error());
    return false;
  }
  // A chunk can complete the header without yielding a record yet.
  if (!check_campaign()) return false;
  if (!push_pending()) return false;
  flush_credits();
  return true;
}

bool Session::push_pending() {
  if (pending_.empty()) return true;
  const std::size_t n = pending_.size();
  const std::size_t accepted = server_.gated_push_batch(pending_, digest_, stream_seq_);
  pending_.clear();
  stream_seq_ += accepted;
  if (accepted == n) return true;
  abort_session("sink is draining");
  return false;
}

bool Session::check_campaign() {
  if (header_checked_ || !trace_.header_ready()) return true;
  header_checked_ = true;
  if (core::campaign_id_from_meta(trace_.meta()) != server_.campaign_id()) {
    abort_session("trace campaign does not match sink campaign");
    return false;
  }
  return true;
}

void Session::flush_credits() {
  if (credits_owed_ == 0) return;
  std::uint32_t grant = static_cast<std::uint32_t>(credits_owed_);
  credits_owed_ = 0;
  send_msg(MsgType::kCredit, encode_credit(grant));
}

bool Session::finish_and_report() {
  // EOF barrier: every pushed record has cleared its lane and folded into
  // this session's digest (and the global merge has it in flight or done).
  if (!digest_->wait_for_records(static_cast<std::size_t>(stream_seq_),
                                 std::chrono::milliseconds(60000))) {
    obs::FlightRecorder::global().note_anomaly(
        obs::AnomalyKind::kDigestMismatch,
        "digest receipt timed out: stream records never settled", id_);
    abort_session("timed out waiting for verification to settle");
    return false;
  }
  DigestReport report;
  report.records = digest_->records();
  report.marks = digest_->marks();
  report.digest_hex = digest_->digest_hex();
  send_msg(MsgType::kDigest, encode_digest(report));
  done_ = true;
  return false;  // session complete; run() exits
}

bool Session::send_msg(MsgType type, ByteView payload) {
  Bytes framed = encode_msg(type, payload);
  if (sock_.send_all(framed)) return true;
  done_ = true;
  return false;
}

void Session::abort_session(const std::string& reason) {
  server_.note_session_abort();
  send_msg(MsgType::kAbort, encode_abort(reason));
  done_ = true;
}

}  // namespace pnm::serve
