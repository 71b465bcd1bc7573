#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "core/campaign.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "trace/reader.h"

namespace pnm::serve {

namespace {

constexpr std::size_t kCoalesceBytes = 64 * 1024;
/// The server only sends small control messages (Credit, Pong, ...).
constexpr std::size_t kRecvWindow = 16 * 1024;

/// A trace file pre-parsed for streaming: raw bytes, where its header ends,
/// where each whole record frame ends, and the campaign id from the header.
struct LoadedTrace {
  std::string path;
  Bytes data;
  std::size_t header_bytes = 0;         ///< prologue + header frame
  std::vector<std::size_t> frame_ends;  ///< end offset of each record frame
  std::string campaign_id;
  std::string error;

  bool ok() const { return error.empty(); }
};

LoadedTrace load_trace(const std::string& path) {
  LoadedTrace t;
  t.path = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    t.error = "cannot open " + path;
    return t;
  }
  t.data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  // The sink's own framer finds the frames, so a trace the sink would
  // refuse at its header is refused here, before any connection.
  trace::TraceStreamParser parser;
  parser.feed(t.data);
  parser.finish();
  while (auto outcome = parser.poll()) {
    if (outcome->status == trace::ReadStatus::kOversized) {
      t.error = "oversized frame in " + path;
      return t;
    }
    if (outcome->status == trace::ReadStatus::kTruncated) break;  // stream what's whole
    t.frame_ends.push_back(parser.consumed());
  }
  if (!parser.header_ready()) {
    t.error = "bad trace header in " + path + ": " + parser.header_error();
    return t;
  }
  t.header_bytes = parser.header_bytes();
  t.campaign_id = core::campaign_id_from_meta(parser.meta());
  return t;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Client-side connection state: socket + incremental parser, and what the
/// pump has received so far: credits, RTT samples, the HelloAck and Digest.
struct Conn {
  Socket sock;
  MsgParser msgs;
  std::uint64_t credits = 0;
  std::vector<double> rtt_ms;
  std::optional<HelloAck> ack;
  std::optional<DigestReport> digest;
  std::string abort_reason;
  bool aborted = false;
  bool peer_closed = false;

  void on_msg(const Msg& m) {
    switch (m.type) {
      case MsgType::kHelloAck:
        ack = decode_hello_ack(m.payload);
        break;
      case MsgType::kCredit:
        if (auto n = decode_credit(m.payload)) credits += *n;
        break;
      case MsgType::kPong:
        if (auto token = decode_token(m.payload))
          rtt_ms.push_back(static_cast<double>(now_us() - *token) / 1000.0);
        break;
      case MsgType::kDigest:
        digest = decode_digest(m.payload);
        break;
      case MsgType::kAbort:
        aborted = true;
        abort_reason = decode_abort(m.payload).value_or("(unparseable abort)");
        break;
      default:
        break;  // unexpected server message; ignore
    }
  }

  /// Drain whatever is readable. `block` waits for at least one byte.
  /// False on connection error/close.
  bool pump(bool block) {
    for (bool first = true;; first = false) {
      const bool blocking_read = block && first;
      std::span<std::uint8_t> window = msgs.space(kRecvWindow);
      long n = blocking_read ? sock.recv_some(window.data(), window.size())
                             : sock.recv_nonblocking(window.data(), window.size());
      if (n == 0) {
        peer_closed = true;
        return false;
      }
      if (n < 0) {
        if (!blocking_read && n == -1) return true;  // drained what was there
        return false;                                // hard socket error
      }
      msgs.commit(static_cast<std::size_t>(n));
      while (auto m = msgs.poll()) on_msg(*m);
      if (msgs.dead()) return false;
    }
  }
};

SessionResult run_session(const LoadgenConfig& cfg, const LoadedTrace& trace,
                          std::vector<double>* rtt_sink, std::mutex* rtt_mu) {
  SessionResult result;
  result.trace = trace.path;

  Conn conn;
  std::string err;
  conn.sock = cfg.unix_socket_path.empty()
                  ? Socket::connect_tcp(cfg.host, cfg.port, &err)
                  : Socket::connect_unix(cfg.unix_socket_path, &err);
  if (!conn.sock.valid()) {
    result.error = "connect: " + err;
    return result;
  }

  auto fail = [&](const std::string& why) {
    result.error = conn.aborted ? why + " (server: " + conn.abort_reason + ")" : why;
    return result;
  };

  Hello hello;
  hello.campaign_id = trace.campaign_id;
  if (!conn.sock.send_all(encode_msg(MsgType::kHello, encode_hello(hello))))
    return fail("send Hello");

  // Handshake: block until the ack (or an abort) arrives.
  while (!conn.ack && !conn.aborted)
    if (!conn.pump(true) && !conn.ack && !conn.aborted)
      return fail("connection closed during handshake");
  if (conn.aborted) return fail("handshake rejected");
  conn.credits = conn.ack->credit_window;

  // Prologue + header frame carry no records and need no credit.
  if (!conn.sock.send_all(
          encode_msg(MsgType::kTraceData, ByteView(trace.data.data(), trace.header_bytes))))
    return fail("send header");

  const std::size_t frames = trace.frame_ends.size();
  std::uint64_t records_sent = 0;
  std::size_t since_ping = 0;
  std::size_t i = 0;
  while (i < frames) {
    if (!conn.pump(false) && (conn.aborted || conn.peer_closed))
      return fail("server closed mid-stream");
    if (conn.credits == 0) {
      if (!conn.pump(true)) return fail("waiting for credit");
      continue;
    }
    // Coalesce consecutive record frames up to the credit balance and the
    // chunk cap; they are contiguous in the file, so one send covers all. A
    // single frame larger than the cap goes alone.
    const std::size_t begin = i ? trace.frame_ends[i - 1] : trace.header_bytes;
    const std::uint64_t frame_budget = cfg.pace_us ? 1 : conn.credits;
    std::size_t end = i + 1;
    while (end < frames && end - i < frame_budget &&
           trace.frame_ends[end] - begin <= kCoalesceBytes)
      ++end;
    if (!conn.sock.send_all(encode_msg(
            MsgType::kTraceData,
            ByteView(trace.data.data() + begin, trace.frame_ends[end - 1] - begin))))
      return fail("send records");
    const std::uint64_t n_frames = end - i;
    i = end;
    conn.credits -= n_frames;
    records_sent += n_frames;
    since_ping += static_cast<std::size_t>(n_frames);
    if (cfg.pace_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(cfg.pace_us));
    if (cfg.ping_every > 0 && since_ping >= cfg.ping_every) {
      since_ping = 0;
      if (!conn.sock.send_all(encode_msg(MsgType::kPing, encode_token(now_us()))))
        return fail("send ping");
    }
  }

  if (!conn.sock.send_all(encode_msg(MsgType::kEof, encode_eof(Eof{records_sent}))))
    return fail("send Eof");

  while (!conn.digest && !conn.aborted)
    if (!conn.pump(true) && !conn.digest && !conn.aborted)
      return fail("connection closed before Digest");
  if (conn.aborted) return fail("no Digest receipt");

  result.ok = true;
  result.records = conn.digest->records;
  result.marks = conn.digest->marks;
  result.digest_hex = conn.digest->digest_hex;
  {
    std::lock_guard<std::mutex> lock(*rtt_mu);
    rtt_sink->insert(rtt_sink->end(), conn.rtt_ms.begin(), conn.rtt_ms.end());
  }
  return result;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

LoadgenStats run_loadgen(const LoadgenConfig& cfg) {
  LoadgenStats stats;
  if (cfg.traces.empty()) {
    stats.error = "no traces given";
    return stats;
  }

  std::vector<LoadedTrace> traces;
  traces.reserve(cfg.traces.size());
  for (const auto& path : cfg.traces) {
    traces.push_back(load_trace(path));
    if (!traces.back().ok()) {
      stats.error = traces.back().error;
      return stats;
    }
  }

  std::size_t connections = cfg.connections ? cfg.connections : 1;
  std::size_t repeat = cfg.repeat ? cfg.repeat : 1;
  std::vector<std::vector<SessionResult>> per_slot(connections);
  std::vector<double> rtts;
  std::mutex rtt_mu;

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      const LoadedTrace& trace = traces[c % traces.size()];
      for (std::size_t r = 0; r < repeat; ++r)
        per_slot[c].push_back(run_session(cfg, trace, &rtts, &rtt_mu));
    });
  }
  for (auto& w : workers) w.join();
  auto t1 = std::chrono::steady_clock::now();

  stats.ok = true;
  for (auto& slot : per_slot) {
    for (auto& r : slot) {
      ++stats.sessions;
      stats.records += r.records;
      if (!r.ok && stats.error.empty()) {
        stats.ok = false;
        stats.error = r.trace + ": " + r.error;
      }
      stats.session_results.push_back(std::move(r));
    }
  }
  stats.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  stats.records_per_s = stats.elapsed_s > 0.0
                            ? static_cast<double>(stats.records) / stats.elapsed_s
                            : 0.0;
  std::sort(rtts.begin(), rtts.end());
  stats.rtt_samples = rtts.size();
  stats.rtt_p50_ms = percentile(rtts, 0.50);
  stats.rtt_p95_ms = percentile(rtts, 0.95);
  stats.rtt_p99_ms = percentile(rtts, 0.99);
  stats.rtt_max_ms = rtts.empty() ? 0.0 : rtts.back();
  return stats;
}

std::string LoadgenStats::to_json() const {
  char buf[256];
  std::string out = "{";
  out += "\"ok\":" + std::string(ok ? "true" : "false");
  out += ",\"sessions\":" + std::to_string(sessions);
  out += ",\"records\":" + std::to_string(records);
  std::snprintf(buf, sizeof(buf),
                ",\"elapsed_s\":%.6f,\"records_per_s\":%.1f,\"rtt_samples\":%zu"
                ",\"rtt_p50_ms\":%.3f,\"rtt_p95_ms\":%.3f,\"rtt_p99_ms\":%.3f"
                ",\"rtt_max_ms\":%.3f",
                elapsed_s, records_per_s, rtt_samples, rtt_p50_ms, rtt_p95_ms,
                rtt_p99_ms, rtt_max_ms);
  out += buf;
  out += ",\"digests\":[";
  for (std::size_t i = 0; i < session_results.size(); ++i) {
    if (i) out += ",";
    out += "\"" + session_results[i].digest_hex + "\"";
  }
  out += "]";
  if (!error.empty()) out += ",\"error\":\"" + error + "\"";
  out += "}";
  return out;
}

}  // namespace pnm::serve
