// One client connection of the serve daemon: protocol handshake, credit
// accounting, incremental `.pnmtrace` reassembly, and the per-stream digest
// receipt.
//
// A session is a thread blocked in recv(), which writes straight into its
// MsgParser's buffer. Each message is handled as a view of that buffer: a
// TraceData payload is copied once, into the session's
// trace::TraceStreamParser, and the records decoded from one TraceData
// message (ingest::decode_record) go into the shared ingest pipeline in one
// batch push, tagged with this session's StreamDigest and consecutive
// per-stream sequence numbers — so the client's digest folds in *its* stream
// order no matter how the shard lanes interleave it with other sessions. On
// Eof the session blocks on the StreamDigest's record barrier (every pushed
// record verified and folded) and answers with the Digest receipt, which
// must equal `pnm replay` over the same trace.
//
// Until its Hello arrives a session's receives have kHelloDeadline: a
// connection that never speaks cannot hold drain for its grace period.
// Once HelloAck is sent the deadline is cleared, since an idle client
// between traces is legal.
//
// Credits are replenished in record-frame units once a message's outcomes
// are complete and its records pushed: every completed outcome counts —
// pushed, CRC-rejected, malformed — and a Credit grants all outcomes not yet
// granted, so client and server debit/credit the same event stream and
// cannot drift.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/pipeline.h"
#include "ingest/stream_digest.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "trace/reader.h"

namespace pnm::serve {

class Server;

class Session {
 public:
  /// How long a new connection may stay silent before its Hello is in. A
  /// client that says nothing past it is dropped as an aborted session.
  static constexpr std::chrono::seconds kHelloDeadline{5};

  Session(Socket sock, Server& server, std::uint64_t id);

  /// Blocking connection loop; returns when the peer is done or dead. Call
  /// on a dedicated thread.
  void run();

  std::uint64_t id() const { return id_; }

 private:
  /// False = session over (clean or aborted).
  bool handle_msg(const Msg& msg);
  bool drain_trace_frames();
  /// Push the records decoded so far as one batch; aborts and returns false
  /// if the pipeline refused any (it closed: the sink is draining).
  bool push_pending();
  /// Once the trace header is parsed, verify (exactly once) that the stream
  /// belongs to this sink's campaign; aborts and returns false on mismatch.
  bool check_campaign();
  bool finish_and_report();
  bool send_msg(MsgType type, ByteView payload);
  void abort_session(const std::string& reason);
  /// Grant every completed outcome not yet granted in one Credit message.
  void flush_credits();

  Socket sock_;
  Server& server_;
  std::uint64_t id_;
  MsgParser msgs_;
  trace::TraceStreamParser trace_;
  /// Shared with every pipeline item this session pushes: if the session
  /// dies mid-stream (peer disconnect, abort), records still in shard
  /// queues keep the digest alive until the lanes fold them.
  std::shared_ptr<ingest::StreamDigest> digest_ =
      std::make_shared<ingest::StreamDigest>();
  bool hello_done_ = false;
  bool header_checked_ = false;
  bool done_ = false;
  std::uint64_t stream_seq_ = 0;     ///< records pushed (the digest's domain)
  std::vector<ingest::PushRecord> pending_;  ///< decoded, not yet pushed
  std::uint64_t outcomes_ = 0;         ///< completed record-frame outcomes
  std::uint64_t credits_granted_ = 0;  ///< outcomes replenished by Credit
};

}  // namespace pnm::serve
