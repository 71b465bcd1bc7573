#include "serve/server.h"

#include <sys/socket.h>

#include <cstdlib>
#include <optional>
#include <utility>

#include "crypto/sha256.h"
#include "marking/scheme.h"
#include "obs/exposition.h"
#include "serve/admin.h"
#include "trace/reader.h"

namespace pnm::serve {

namespace {

/// Deterministic per-epoch master secret: epoch 0 is the campaign secret
/// itself; epoch e re-derives by hashing (secret || e). Both ends of a
/// future key-rotation protocol can compute the same schedule offline.
Bytes epoch_master_secret(std::uint64_t seed, std::uint64_t epoch) {
  Bytes base = core::campaign_master_secret(seed);
  if (epoch == 0) return base;
  crypto::Sha256 h;
  h.update(base);
  ByteWriter w;
  w.u64(epoch);
  h.update(w.bytes());
  crypto::Sha256Digest d = h.finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace

Server::Server(const ServerConfig& cfg, core::CampaignWorld world)
    : cfg_(cfg),
      counters_(cfg.counters ? cfg.counters : &local_counters_),
      world_(std::move(world)),
      sessions_total_(&counters_->registry().counter("serve_sessions")),
      sessions_active_(&counters_->registry().gauge("serve_sessions_active")),
      records_total_(&counters_->registry().counter("serve_records")),
      bytes_rx_total_(&counters_->registry().counter("serve_bytes_rx")),
      aborts_total_(&counters_->registry().counter("serve_aborts")),
      rekeys_total_(&counters_->registry().counter("serve_rekeys")),
      key_epoch_gauge_(&counters_->registry().gauge("serve_key_epoch")) {}

std::unique_ptr<Server> Server::create(const ServerConfig& cfg, std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<Server> {
    if (error) *error = why;
    return nullptr;
  };

  trace::TraceReader reader(cfg.campaign_trace);
  if (!reader.valid())
    return fail("campaign trace: " + reader.header_error());
  std::string why;
  std::optional<core::CampaignWorld> world = core::decode_campaign(reader.meta(), &why);
  if (!world) return fail("campaign trace: " + why);

  std::unique_ptr<Server> server(new Server(cfg, std::move(*world)));
  const core::CampaignWorld& w = server->world_;
  server->campaign_id_ = core::campaign_id_from_meta(reader.meta());

  sink::BatchVerifierConfig bcfg;
  bcfg.threads = cfg.threads;
  if (cfg.scoped && w.kind == marking::SchemeKind::kPnm)
    bcfg.strategy = sink::BatchStrategy::kScoped;
  std::size_t shards = cfg.shards ? cfg.shards : 1;
  server->bank_ = std::make_unique<sink::VerifierBank>(*w.scheme, w.keys, shards, bcfg,
                                                       &w.topo, server->counters_);
  server->engine_ = std::make_unique<sink::TracebackEngine>(*w.scheme, w.keys, w.topo);
  server->engine_->bind_metrics(server->counters_->registry());

  ingest::PipelineConfig pcfg;
  pcfg.batch_size = cfg.batch_size;
  pcfg.queue_capacity = cfg.queue_capacity;
  pcfg.shards = shards;
  server->pipeline_ = std::make_unique<ingest::Pipeline>(
      *server->bank_, server->engine_.get(), pcfg, server->counters_);

  std::string sock_err;
  server->tcp_listener_ = Listener::tcp(cfg.tcp_port, &sock_err);
  if (!server->tcp_listener_.valid())
    return fail("tcp listener: " + sock_err);
  if (!cfg.unix_socket_path.empty()) {
    server->unix_listener_ = Listener::unix_path(cfg.unix_socket_path, &sock_err);
    if (!server->unix_listener_.valid())
      return fail("unix listener: " + sock_err);
  }
  server->admin_ = std::make_unique<AdminServer>(*server);
  if (!server->admin_->start(cfg.admin_port, &sock_err))
    return fail("admin listener: " + sock_err);

  server->key_epoch_gauge_->set(0);
  return server;
}

Server::~Server() {
  drain();  // idempotent; a clean exit already drained
  if (admin_) admin_->stop();
}

std::uint16_t Server::admin_port() const { return admin_ ? admin_->port() : 0; }

void Server::start() {
  if (started_.exchange(true)) return;
  if (!cfg_.flight_dump_path.empty()) {
    obs::FlightRecorder::global().set_dump_path(cfg_.flight_dump_path);
    obs::FlightRecorder::global().install_signal_handlers();
  }
  consumer_ = std::thread([this] {
    try {
      pipeline_->run();
    } catch (const std::exception& e) {
      consumer_error_ = e.what();
    } catch (...) {
      consumer_error_ = "unknown pipeline failure";
    }
  });
  accept_threads_.emplace_back([this] { accept_loop(&tcp_listener_); });
  if (unix_listener_.valid())
    accept_threads_.emplace_back([this] { accept_loop(&unix_listener_); });

  if (cfg_.watchdog_ms > 0) {
    watchdog_ = std::make_unique<obs::AnomalyWatchdog>(
        std::chrono::milliseconds(cfg_.watchdog_ms));
    // Merge stall: the frontier stopped advancing across several polls while
    // issued sequence numbers are still ahead of it. A rekey holds the gate
    // for up to 30s, but it first waits for quiescence — frontier motion —
    // so a genuinely stuck merge is distinguishable from a busy one.
    watchdog_->add_probe(obs::AnomalyKind::kMergeStall,
                         [this]() -> std::optional<std::string> {
                           std::uint64_t frontier = pipeline_->merge_frontier();
                           std::uint64_t issued = pipeline_->seqs_issued();
                           if (frontier == stall_frontier_ && issued > frontier) {
                             if (++stall_polls_ >= 8)
                               return "merge frontier stuck at " +
                                      std::to_string(frontier) + " with " +
                                      std::to_string(issued - frontier) +
                                      " records in flight";
                           } else {
                             stall_polls_ = 0;
                           }
                           stall_frontier_ = frontier;
                           return std::nullopt;
                         });
    // Queue saturation: some shard queue is pinned at capacity, so producers
    // are blocked on backpressure.
    watchdog_->add_probe(obs::AnomalyKind::kQueueSaturated,
                         [this]() -> std::optional<std::string> {
                           std::size_t depth = pipeline_->max_queue_depth();
                           std::size_t cap = pipeline_->queue_capacity();
                           if (cap > 0 && depth >= cap)
                             return "shard queue saturated: " +
                                    std::to_string(depth) + "/" +
                                    std::to_string(cap);
                           return std::nullopt;
                         });
    watchdog_->start();
  }
}

void Server::accept_loop(Listener* listener) {
  while (true) {
    Socket sock = listener->accept_conn();
    if (!sock.valid()) return;  // listener closed (drain) or fatal
    if (draining()) continue;   // raced a late connect past the close
    spawn_session(std::move(sock));
  }
}

void Server::spawn_session(Socket sock) {
  std::uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session_fds_[id] = sock.fd();
    sessions_active_->set(static_cast<std::int64_t>(session_fds_.size()));
  }
  session_threads_.spawn(
      [this, id](Socket s) {
        auto session = std::make_unique<Session>(std::move(s), *this, id);
        sessions_total_->add();
        sessions_served_.fetch_add(1, std::memory_order_relaxed);
        session->run();
        // Unregister while the Session (and its socket) is still alive:
        // the fd in session_fds_ is then always this session's own open
        // descriptor, so drain's forced ::shutdown can never hit a number
        // the kernel recycled onto an unrelated socket.
        unregister_session(id);
      },
      std::move(sock));
}

void Server::unregister_session(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  session_fds_.erase(id);
  sessions_active_->set(static_cast<std::int64_t>(session_fds_.size()));
  sessions_cv_.notify_all();
}

std::size_t Server::gated_push_batch(std::span<ingest::PushRecord> records,
                                     std::shared_ptr<ingest::StreamSink> sink,
                                     std::uint64_t first_stream_seq) {
  std::shared_lock<std::shared_mutex> gate(ingest_gate_);
  const std::size_t accepted =
      pipeline_->push_batch(records, std::move(sink), first_stream_seq);
  if (accepted > 0) records_total_->add(accepted);
  return accepted;
}

void Server::note_session_bytes(std::size_t n) {
  bytes_rx_total_->add(static_cast<std::uint64_t>(n));
}

void Server::note_session_abort() { aborts_total_->add(); }

std::optional<std::uint64_t> Server::rekey() {
  // Exclusive gate: no session can push while we wait for the pipeline to go
  // quiet, so "quiescent" can only flip to true and stay there.
  std::unique_lock<std::shared_mutex> gate(ingest_gate_);
  if (!pipeline_->wait_quiescent(std::chrono::milliseconds(30000))) {
    // Records are still in queues or lane batches past the grace period:
    // swapping keys now would race the lanes' verify caches and verify
    // in-flight records under the wrong epoch. Keep the old keys and fail.
    obs::FlightRecorder::global().note_anomaly(
        obs::AnomalyKind::kRekeyFailed,
        "rekey abandoned: pipeline failed to quiesce within grace period");
    return std::nullopt;
  }
  std::uint64_t epoch = bank_->key_epoch() + 1;
  auto keys = std::make_shared<const crypto::KeyStore>(
      epoch_master_secret(world_.seed, epoch), world_.topo.node_count());
  bank_->rekey(std::move(keys), epoch);
  rekeys_total_->add();
  key_epoch_gauge_->set(static_cast<std::int64_t>(epoch));
  return epoch;
}

std::string Server::metrics_prometheus() const {
  return obs::to_prometheus(counters_->registry().scrape());
}

DrainReport Server::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_flag_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(report_mu_);
    return report_;
  }
  draining_.store(true, std::memory_order_release);
  // Stop the watchdog first: its probes read pipeline state the rest of the
  // drain sequence is about to tear down, and a draining pipeline legally
  // looks like a stall.
  if (watchdog_) watchdog_->stop();
  // Only shut the listeners down here: the accept threads may still be
  // blocked inside accept(), and the fd numbers must stay reserved until
  // those threads are joined below. close() then releases them.
  tcp_listener_.shutdown_accept();
  unix_listener_.shutdown_accept();

  // Wait for live sessions to finish their streams; past a grace period,
  // force their sockets shut so recv() unblocks and they abort cleanly.
  {
    std::unique_lock<std::mutex> lock(sessions_mu_);
    if (!sessions_cv_.wait_for(lock, std::chrono::seconds(20),
                               [this] { return session_fds_.empty(); })) {
      for (auto& [id, fd] : session_fds_) ::shutdown(fd, SHUT_RDWR);
      sessions_cv_.wait_for(lock, std::chrono::seconds(10),
                            [this] { return session_fds_.empty(); });
    }
  }

  if (started_.load(std::memory_order_acquire)) {
    pipeline_->close();
    if (consumer_.joinable()) consumer_.join();
    for (auto& t : accept_threads_) t.join();
    accept_threads_.clear();
  }
  tcp_listener_.close();
  unix_listener_.close();
  // Not under sessions_mu_: a session thread's exit path takes that mutex in
  // unregister_session, so joining under it would deadlock against any
  // session that outlived the forced-shutdown grace period.
  session_threads_.join_all();
  pipeline_->retire_shard_gauges();

  DrainReport report;
  report.records = pipeline_->stats().records;
  report.sessions = sessions_served_.load(std::memory_order_relaxed);
  report.key_epoch = bank_->key_epoch();
  report.verdict_digest = pipeline_->verdict_digest();
  report.error = consumer_error_;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    report_ = report;
    report_ready_ = true;
  }
  drained_flag_.store(true, std::memory_order_release);
  drained_cv_.notify_all();
  return report;
}

DrainReport Server::wait() {
  std::unique_lock<std::mutex> lock(report_mu_);
  drained_cv_.wait(lock, [this] { return report_ready_; });
  return report_;
}

}  // namespace pnm::serve
