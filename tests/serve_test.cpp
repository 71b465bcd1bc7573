// End-to-end tests for the `pnm serve` daemon: an in-process Server on
// ephemeral ports, driven by the real loadgen client over the real protocol.
// The contracts pinned here are the subsystem's acceptance bar:
//   - per-client digest receipts are byte-identical to `pnm replay` on the
//     client's own trace, for any shard count and session interleaving;
//   - graceful drain lets in-flight work complete and reports a global
//     digest that matches replay when arrival order is a single stream;
//   - live /rekey advances the key epoch without dropping a single record;
//   - sessions for a different campaign are refused at the handshake;
//   - the admin plane only drains or re-keys on POST, and neither a silent
//     admin client nor a stream of scrapes holds threads past their request;
//   - a session connection that never sends a Hello cannot hold up drain.
#include <gtest/gtest.h>

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "ingest/replay.h"
#include "obs/span.h"
#include "serve/admin.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/socket.h"

namespace pnm {
namespace {

// ---------------------------------------------------------------------------
// Fixture: two recorded traces of the SAME campaign (seed/forwarders/scheme
// drive the campaign id; the attack does not), plus one foreign-campaign
// trace. Recording is the expensive step, so it happens once per process.

struct ServeFixture {
  std::string trace_a;        // removal attack
  std::string trace_b;        // insertion attack, same campaign
  std::string trace_foreign;  // different seed → different campaign id
  ingest::ReplayResult replay_a;
  ingest::ReplayResult replay_b;
};

const ServeFixture& serve_fixture() {
  static const ServeFixture* fixture = [] {
    auto* f = new ServeFixture;
    std::string base = ::testing::TempDir() + "/serve_test." +
                       std::to_string(::getpid());
    auto record = [&](const std::string& tag, std::uint64_t seed,
                      attack::AttackKind attack) {
      std::string path = base + "." + tag + ".pnmtrace";
      core::ChainExperimentConfig cfg;
      cfg.forwarders = 8;
      cfg.packets = 120;
      cfg.seed = seed;
      cfg.attack = attack;
      cfg.record_path = path;
      core::run_chain_experiment(cfg);
      return path;
    };
    f->trace_a = record("a", 21, attack::AttackKind::kRemoval);
    f->trace_b = record("b", 21, attack::AttackKind::kInsertion);
    f->trace_foreign = record("x", 31, attack::AttackKind::kRemoval);
    f->replay_a = ingest::replay_file(f->trace_a);
    f->replay_b = ingest::replay_file(f->trace_b);
    return f;
  }();
  return *fixture;
}

std::unique_ptr<serve::Server> make_server(serve::ServerConfig cfg) {
  const auto& fx = serve_fixture();
  if (cfg.campaign_trace.empty()) cfg.campaign_trace = fx.trace_a;
  std::string error;
  auto server = serve::Server::create(cfg, &error);
  EXPECT_NE(server, nullptr) << error;
  if (server) server->start();
  return server;
}

const serve::SessionResult* result_for(const serve::LoadgenStats& stats,
                                       const std::string& trace,
                                       std::size_t nth = 0) {
  std::size_t seen = 0;
  for (const auto& r : stats.session_results)
    if (r.trace == trace && seen++ == nth) return &r;
  return nullptr;
}

TEST(Serve, ConcurrentSessionsGetReplayIdenticalDigests) {
  const auto& fx = serve_fixture();
  ASSERT_TRUE(fx.replay_a.ok) << fx.replay_a.error;
  ASSERT_TRUE(fx.replay_b.ok) << fx.replay_b.error;

  serve::ServerConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.batch_size = 16;        // force many small batches across lanes
  cfg.credit_window = 32;     // force real credit round-trips
  auto server = make_server(cfg);
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a, fx.trace_b};
  lg.connections = 4;  // two concurrent sessions per trace
  lg.ping_every = 16;
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  ASSERT_EQ(stats.sessions, 4u);

  // Every session of trace A folds exactly replay(A)'s digest, B likewise —
  // regardless of how the four streams interleaved in the shared pipeline.
  for (std::size_t nth : {std::size_t{0}, std::size_t{1}}) {
    const auto* ra = result_for(stats, fx.trace_a, nth);
    const auto* rb = result_for(stats, fx.trace_b, nth);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ra->records, fx.replay_a.stats.records);
    EXPECT_EQ(ra->digest_hex, fx.replay_a.verdict_digest) << "session " << nth;
    EXPECT_EQ(rb->records, fx.replay_b.stats.records);
    EXPECT_EQ(rb->digest_hex, fx.replay_b.verdict_digest) << "session " << nth;
  }
  EXPECT_NE(fx.replay_a.verdict_digest, fx.replay_b.verdict_digest);

  serve::DrainReport report = server->drain();
  EXPECT_EQ(report.records,
            2 * (fx.replay_a.stats.records + fx.replay_b.stats.records));
  EXPECT_EQ(report.sessions, 4u);
  EXPECT_TRUE(report.error.empty()) << report.error;
}

TEST(Serve, UnixSocketSessionMatchesTcp) {
  const auto& fx = serve_fixture();
  serve::ServerConfig cfg;
  cfg.unix_socket_path = ::testing::TempDir() + "/serve_test." +
                         std::to_string(::getpid()) + ".sock";
  auto server = make_server(cfg);
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.unix_socket_path = server->unix_socket_path();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  ASSERT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.session_results[0].digest_hex, fx.replay_a.verdict_digest);
  server->drain();
}

TEST(Serve, DrainReportsReplayDigestForASingleStream) {
  // With exactly one session the global arrival order IS the stream order,
  // so the drain report's digest must equal `pnm replay` on that trace —
  // and draining again must return the same final report.
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;

  EXPECT_TRUE(server->healthy());
  serve::DrainReport report = server->drain();
  EXPECT_FALSE(server->healthy());
  EXPECT_EQ(report.records, fx.replay_a.stats.records);
  EXPECT_EQ(report.sessions, 1u);
  EXPECT_EQ(report.verdict_digest, fx.replay_a.verdict_digest);

  serve::DrainReport again = server->drain();
  EXPECT_EQ(again.records, report.records);
  EXPECT_EQ(again.verdict_digest, report.verdict_digest);
  // wait() after a completed drain returns immediately with the same report.
  serve::DrainReport waited = server->wait();
  EXPECT_EQ(waited.verdict_digest, report.verdict_digest);
}

TEST(Serve, RekeyMidStreamDropsNoRecords) {
  // Sessions stream continuously while the main thread swaps key epochs
  // under them. The acceptance bar: every session still gets every record
  // acknowledged (the Digest receipt counts exactly the records it sent) and
  // the epoch advances — records crossing the boundary verify under the new
  // keys instead of being dropped.
  const auto& fx = serve_fixture();
  serve::ServerConfig cfg;
  cfg.shards = 2;
  cfg.credit_window = 16;  // small window → streaming spans the rekeys
  auto server = make_server(cfg);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->key_epoch(), 0u);

  std::atomic<bool> streaming_done{false};
  serve::LoadgenStats stats;
  std::thread client([&] {
    serve::LoadgenConfig lg;
    lg.port = server->tcp_port();
    lg.traces = {fx.trace_a, fx.trace_b};
    lg.connections = 2;
    lg.repeat = 3;  // 6 sessions back to back: rekeys land mid-stream
    stats = serve::run_loadgen(lg);
    streaming_done.store(true);
  });

  std::uint64_t epochs = 0;
  bool rekey_timed_out = false;
  while (!streaming_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::optional<std::uint64_t> epoch = server->rekey();
    if (!epoch) {  // join the client before failing the test
      rekey_timed_out = true;
      break;
    }
    epochs = *epoch;
  }
  client.join();
  ASSERT_FALSE(rekey_timed_out) << "rekey failed to quiesce the pipeline";

  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_GE(epochs, 1u);
  EXPECT_EQ(server->key_epoch(), epochs);
  ASSERT_EQ(stats.sessions, 6u);
  for (const auto& r : stats.session_results) {
    std::size_t expected = r.trace == fx.trace_a ? fx.replay_a.stats.records
                                                 : fx.replay_b.stats.records;
    EXPECT_EQ(r.records, expected) << r.trace;  // zero drops, full ack
    EXPECT_FALSE(r.digest_hex.empty());
  }
  serve::DrainReport report = server->drain();
  EXPECT_EQ(report.key_epoch, epochs);
  EXPECT_EQ(report.records,
            3 * (fx.replay_a.stats.records + fx.replay_b.stats.records));
}

TEST(Serve, SessionsBeforeAndAfterRekeyBothComplete) {
  // The epoch boundary between whole sessions: a pre-rekey session and a
  // post-rekey session both get full acknowledgement; their digests differ
  // because marks verify under different keys (the digest covers verdicts).
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats before = serve::run_loadgen(lg);
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(before.session_results[0].digest_hex, fx.replay_a.verdict_digest);

  ASSERT_EQ(server->rekey().value_or(0), 1u);

  serve::LoadgenStats after = serve::run_loadgen(lg);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.session_results[0].records, fx.replay_a.stats.records);
  EXPECT_NE(after.session_results[0].digest_hex,
            before.session_results[0].digest_hex);
  server->drain();
}

TEST(Serve, MidStreamDisconnectLeavesDaemonHealthy) {
  // A client that pushes records and then vanishes without Eof tears its
  // session down while those records may still sit in shard queues; the
  // pipeline's shared ownership of the stream sink must keep the digest
  // alive (under ASan this is the use-after-free regression), and the
  // daemon must keep serving later clients.
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  std::ifstream in(fx.trace_a, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  {
    // Raw protocol client: Hello, the whole trace in one TraceData message,
    // then an abrupt close — no Eof, no reads of acks or credits.
    std::string error;
    serve::Socket sock =
        serve::Socket::connect_tcp("127.0.0.1", server->tcp_port(), &error);
    ASSERT_TRUE(sock.valid()) << error;
    serve::Hello hello;
    hello.campaign_id = server->campaign_id();
    Bytes framed =
        serve::encode_msg(serve::MsgType::kHello, serve::encode_hello(hello));
    ASSERT_TRUE(sock.send_all(ByteView(framed.data(), framed.size())));
    framed = serve::encode_msg(
        serve::MsgType::kTraceData,
        ByteView(reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()));
    ASSERT_TRUE(sock.send_all(ByteView(framed.data(), framed.size())));
  }  // socket closes here, mid-stream

  // The daemon survives: a well-behaved session still gets its
  // replay-identical digest, and drain completes with no lane error.
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats good = serve::run_loadgen(lg);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.session_results[0].digest_hex, fx.replay_a.verdict_digest);
  serve::DrainReport report = server->drain();
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_GE(report.records, fx.replay_a.stats.records);
}

TEST(Serve, ForeignCampaignIsRefusedAtHandshake) {
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_foreign};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("campaign"), std::string::npos) << stats.error;

  // The refusal must not poison the daemon for legitimate clients.
  lg.traces = {fx.trace_a};
  serve::LoadgenStats good = serve::run_loadgen(lg);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.session_results[0].digest_hex, fx.replay_a.verdict_digest);
  serve::DrainReport report = server->drain();
  EXPECT_EQ(report.records, fx.replay_a.stats.records);
}

TEST(Serve, MetricsExposeServePlane) {
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;

  std::string prom = server->metrics_prometheus();
  for (const char* name :
       {"pnm_serve_sessions_total", "pnm_serve_records_total",
        "pnm_serve_bytes_rx_total", "pnm_serve_key_epoch",
        "pnm_ingest_records_total", "pnm_packets_verified_total"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name << "\n" << prom;
  }
  server->drain();
}

// Minimal HTTP/1.0 request against the admin plane: send the request line,
// read until the server closes. The admin responder always sets Connection:
// close, so EOF delimits the response.
std::string admin_http(std::uint16_t port, const std::string& method,
                       const std::string& path) {
  std::string error;
  serve::Socket sock = serve::Socket::connect_tcp("127.0.0.1", port, &error);
  if (!sock.valid()) {
    ADD_FAILURE() << "admin connect failed: " << error;
    return "";
  }
  std::string req = method + " " + path + " HTTP/1.0\r\n\r\n";
  if (!sock.send_all(ByteView(reinterpret_cast<const std::uint8_t*>(req.data()),
                              req.size()))) {
    ADD_FAILURE() << "admin send failed";
    return "";
  }
  std::string response;
  char buf[4096];
  long n;
  while ((n = sock.recv_some(buf, sizeof(buf))) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  return response;
}

TEST(Serve, SpansEndpointExposesTraceRing) {
  const auto& fx = serve_fixture();
  auto& spans = obs::SpanCollector::global();
  spans.enable();
  spans.clear();

  auto server = make_server({});
  ASSERT_NE(server, nullptr);

  // With an empty ring the endpoint still answers well-formed JSON.
  std::string empty = admin_http(server->admin_port(), "GET", "/spans");
  EXPECT_NE(empty.find("200 OK"), std::string::npos) << empty;
  EXPECT_NE(empty.find("application/json"), std::string::npos) << empty;
  EXPECT_NE(empty.find("\"traceEvents\""), std::string::npos) << empty;

  // Real ingest traffic lands instrumented scopes (verify/fold batches) in
  // the ring, and /spans serves them in Chrome trace-event form.
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;

  std::string traced = admin_http(server->admin_port(), "GET", "/spans");
  EXPECT_NE(traced.find("200 OK"), std::string::npos) << traced;
  EXPECT_NE(traced.find("\"ph\":\"X\""), std::string::npos) << traced;
  EXPECT_NE(traced.find("verify_batch"), std::string::npos) << traced;

  server->drain();
  spans.disable();
  spans.clear();
}

TEST(Serve, DrainAndRekeyArePostOnly) {
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  const std::uint16_t admin = server->admin_port();

  // A stray GET (a crawler, a mistyped scrape) changes nothing.
  for (const char* path : {"/drain", "/rekey"}) {
    std::string refused = admin_http(admin, "GET", path);
    EXPECT_NE(refused.find("405 Method Not Allowed"), std::string::npos) << refused;
    EXPECT_NE(refused.find("Allow: POST\r\n"), std::string::npos) << refused;
  }
  EXPECT_TRUE(server->healthy());
  EXPECT_EQ(server->key_epoch(), 0u);
  EXPECT_NE(admin_http(admin, "GET", "/healthz").find("200 OK"), std::string::npos);

  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.session_results[0].digest_hex, fx.replay_a.verdict_digest);

  std::string drained = admin_http(admin, "POST", "/drain");
  EXPECT_NE(drained.find("200 OK"), std::string::npos) << drained;
  EXPECT_NE(drained.find("\"records\":" + std::to_string(fx.replay_a.stats.records)),
            std::string::npos)
      << drained;
  EXPECT_NE(drained.find("\"digest\":\""), std::string::npos) << drained;
  EXPECT_FALSE(server->healthy());
}

TEST(Serve, SilentAdminClientDoesNotHoldUpShutdown) {
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  const std::uint16_t admin = server->admin_port();
  std::string error;
  serve::Socket silent = serve::Socket::connect_tcp("127.0.0.1", admin, &error);
  ASSERT_TRUE(silent.valid()) << error;
  // Connections are accepted in order, so once this request is answered the
  // silent one has its own handler, blocked waiting for a request line.
  EXPECT_NE(admin_http(admin, "GET", "/healthz").find("200 OK"), std::string::npos);

  auto destroyed = std::async(std::launch::async, [&server] { server.reset(); });
  const bool finished =
      destroyed.wait_for(serve::AdminServer::kRecvDeadline + std::chrono::seconds(5)) ==
      std::future_status::ready;
  silent.close();  // lets a handler with no deadline finish, so the test ends
  destroyed.wait();
  EXPECT_TRUE(finished) << "~Server waited on a silent admin client past the "
                           "receive deadline";
}

TEST(Serve, SilentSessionClientDoesNotHoldUpDrain) {
  // A connect that never sends a Hello gets the session's Hello deadline,
  // not drain's 20 s grace period, and leaves the global digest alone.
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  std::string error;
  serve::Socket silent =
      serve::Socket::connect_tcp("127.0.0.1", server->tcp_port(), &error);
  ASSERT_TRUE(silent.valid()) << error;
  // One accept thread takes connections in order, so once this stream is
  // served the silent connection has its own session, blocked in recv.
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;

  auto drained = std::async(std::launch::async, [&server] { return server->drain(); });
  const bool finished =
      drained.wait_for(serve::Session::kHelloDeadline + std::chrono::seconds(5)) ==
      std::future_status::ready;
  silent.close();  // lets a session with no deadline finish, so the test ends
  serve::DrainReport report = drained.get();
  EXPECT_TRUE(finished) << "drain waited on a silent session past the Hello deadline";
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.records, fx.replay_a.stats.records);
  EXPECT_EQ(report.verdict_digest, fx.replay_a.verdict_digest);
}

/// A numeric field of /proc/self/status ("Threads", "VmSize" in kB).
long proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
  ADD_FAILURE() << "no " << field << " in /proc/self/status";
  return 0;
}

/// The default thread stack size in kB.
long default_stack_kb() {
  pthread_attr_t attr;
  std::size_t stack_bytes = 0;
  EXPECT_EQ(pthread_getattr_default_np(&attr), 0);
  pthread_attr_getstacksize(&attr, &stack_bytes);
  pthread_attr_destroy(&attr);
  return static_cast<long>(stack_bytes / 1024);
}

TEST(Serve, AdminHandlersAreJoinedAsRequestsFinish) {
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  const std::uint16_t admin = server->admin_port();
  ASSERT_NE(admin_http(admin, "GET", "/healthz").find("200 OK"), std::string::npos);

  // A finished but unjoined thread has left the kernel's thread count, yet it
  // keeps its stack mapped until join, so address space shows the build-up.
  const long stack_kb = default_stack_kb();

  const long threads_before = proc_status("Threads");
  const long vm_before_kb = proc_status("VmSize");
  for (int i = 0; i < 200; ++i)
    ASSERT_NE(admin_http(admin, "GET", "/healthz").find("200 OK"), std::string::npos);
  EXPECT_LE(proc_status("Threads"), threads_before + 2);
  EXPECT_LT(proc_status("VmSize") - vm_before_kb, 20 * stack_kb)
      << "200 scrapes left more than 20 thread stacks (" << stack_kb
      << " kB each) mapped";
  server->drain();
}

TEST(Serve, SessionThreadsAreJoinedAsSessionsFinish) {
  const auto& fx = serve_fixture();
  auto server = make_server({});
  ASSERT_NE(server, nullptr);
  serve::LoadgenConfig lg;
  lg.port = server->tcp_port();
  lg.traces = {fx.trace_a};
  ASSERT_TRUE(serve::run_loadgen(lg).ok);  // warm-up: first-use allocations

  // As for the admin handlers: an unjoined session thread keeps its stack
  // mapped, so 200 sessions served one after another show in VmSize.
  const long stack_kb = default_stack_kb();
  const long vm_before_kb = proc_status("VmSize");
  lg.repeat = 200;
  serve::LoadgenStats stats = serve::run_loadgen(lg);
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.sessions, 200u);
  EXPECT_LT(proc_status("VmSize") - vm_before_kb, 20 * stack_kb)
      << "200 sessions left more than 20 thread stacks (" << stack_kb
      << " kB each) mapped";
  serve::DrainReport report = server->drain();
  EXPECT_EQ(report.sessions, 201u);
}

TEST(Serve, LoadgenRefusesDamagedHeaderBeforeConnecting) {
  // loadgen frames its traces with the sink's own parser, so a header the
  // sink would refuse is refused before any connection: the error names the
  // header, not the (unused) port.
  const auto& fx = serve_fixture();
  std::ifstream in(fx.trace_a, std::ios::binary);
  const std::string blob{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  ASSERT_GT(blob.size(), 16u);
  std::uint32_t header_len = 0;  // u32 little-endian, after magic and version
  std::memcpy(&header_len, blob.data() + 8, sizeof(header_len));
  std::string bad_crc = blob;
  bad_crc[8 + 4 + header_len] ^= 0x01;  // first byte of the header frame's CRC
  std::string version_2 = blob;
  version_2[6] = 2;  // u16 version right after the magic

  std::string error;
  serve::Listener probe = serve::Listener::tcp(0, &error);
  ASSERT_TRUE(probe.valid()) << error;
  const std::uint16_t unused_port = probe.port();
  probe.close();

  const std::string base = ::testing::TempDir() + "/serve_test." + std::to_string(::getpid());
  for (const auto& [tag, bytes] : {std::pair{"crc", bad_crc}, std::pair{"v2", version_2}}) {
    const std::string path = base + ".damaged-" + tag + ".pnmtrace";
    std::ofstream(path, std::ios::binary) << bytes;
    serve::LoadgenConfig lg;
    lg.port = unused_port;
    lg.traces = {path};
    serve::LoadgenStats stats = serve::run_loadgen(lg);
    EXPECT_FALSE(stats.ok) << tag;
    EXPECT_NE(stats.error.find("header"), std::string::npos) << tag << ": " << stats.error;
    EXPECT_EQ(stats.error.find("connect:"), std::string::npos) << tag << ": " << stats.error;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace pnm
