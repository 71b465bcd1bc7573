// The long-running sink daemon behind `pnm serve`.
//
// One Server owns the whole verification world of a campaign — decoded from
// the bootstrap trace's header by core::decode_campaign, the decoder file
// replay uses: topology, key store (per epoch) and marking scheme — plus a
// sharded VerifierBank, a traceback engine and one ingest::Pipeline, and the
// listeners and threads that feed it:
//
//   TCP 127.0.0.1:<port> ─┐ accept thread ┐               ┌ shard lanes ┐
//   unix socket <path>   ─┘ (one each)    ├→ Session thread ┼ Pipeline  ┼→ merge
//                                         │  per connection └───────────┘  thread
//                                         │  (recv → MsgParser buffer →    → digest
//                                         │   TraceStreamParser → one
//                                         │   push_batch per message)
//   admin 127.0.0.1:<p>  ── accept thread ─→ handler thread per request:
//                                            /metrics /healthz /drain /rekey ...
//
// Session and admin handler threads are each a TaskThreads set: a thread is
// joined soon after its connection ends, so a daemon that has served
// thousands of sessions holds only the live ones' stacks. The live sessions
// are counted once, as the socket map drain shuts down past its grace
// period; the serve_sessions_active gauge reads its size. Every session
// parses its byte stream with the framer file replay reads through and
// pushes into the same pipeline, so the global verdict digest covers the
// full interleaved arrival order while each session's StreamDigest covers
// its own stream — both deterministic, and a session's equals `pnm replay`
// of the same bytes.
//
// Live re-keying (/rekey) is quiesce-swap-resume: a writer lock on the
// ingest gate stops new pushes, Pipeline::wait_quiescent drains queues,
// lanes and the reorder buffer to the merge frontier, the VerifierBank swaps
// to the next epoch's KeyStore (flushing key-dependent PRF caches), and the
// gate reopens. No record is dropped; records pushed before the swap verify
// under the old epoch, after it under the new. If the pipeline fails to
// quiesce within the grace period the swap is abandoned (keys unchanged) and
// /rekey reports failure instead of racing the live lanes.
//
// Drain (/drain) stops the listeners, waits for sessions to finish, closes
// the pipeline, joins the consumer and the remaining threads and reports the final record count and
// global digest. It is idempotent and is also the daemon's only exit path —
// Server::wait() blocks until a drain completes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/campaign.h"
#include "ingest/pipeline.h"
#include "obs/flight.h"
#include "serve/session.h"
#include "serve/socket.h"
#include "serve/task_threads.h"
#include "sink/batch_verifier.h"
#include "sink/traceback.h"
#include "util/counters.h"

namespace pnm::serve {

class AdminServer;

struct ServerConfig {
  /// Bootstrap trace: its header supplies the campaign (seed, forwarders,
  /// scheme, parameters) this sink verifies; its records are NOT replayed.
  std::string campaign_trace;
  std::uint16_t tcp_port = 0;    ///< 0 = ephemeral (resolved port via tcp_port())
  std::string unix_socket_path;  ///< empty = no unix listener
  std::uint16_t admin_port = 0;  ///< 0 = ephemeral
  std::size_t shards = 1;
  std::size_t threads = 1;  ///< verifier workers per shard lane
  std::size_t batch_size = 64;
  std::size_t queue_capacity = 1024;
  std::uint32_t credit_window = 256;
  bool scoped = false;
  util::Counters* counters = nullptr;  ///< null = a private instance
  /// Where anomaly-/signal-triggered flight dumps land (and the file
  /// GET /flight reports). Empty = on-demand dumps only.
  std::string flight_dump_path;
  /// Anomaly-watchdog poll interval; 0 disables the watchdog thread.
  std::size_t watchdog_ms = 500;
};

struct DrainReport {
  std::uint64_t records = 0;   ///< records verified across all sessions
  std::uint64_t sessions = 0;  ///< sessions served over the daemon's life
  std::uint64_t key_epoch = 0;
  std::string verdict_digest;  ///< global (arrival-order) digest, hex
  std::string error;           ///< non-empty if a lane died
};

class Server {
 public:
  /// Builds the campaign world from cfg.campaign_trace's header and binds
  /// the listeners. Null + *error on any failure; no threads started yet.
  static std::unique_ptr<Server> create(const ServerConfig& cfg, std::string* error);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the pipeline consumer, accept loops and admin plane.
  void start();

  /// Block until a drain completes (admin /drain or drain() from any
  /// thread); returns the final report.
  DrainReport wait();

  // ---- admin surface ----
  bool healthy() const { return !drained_flag_.load(std::memory_order_acquire); }
  std::string metrics_prometheus() const;
  DrainReport drain();
  /// Quiesce, advance the VerifierBank to the next key epoch, resume.
  /// Returns the new epoch, or nullopt if the pipeline failed to quiesce
  /// within the grace period — in that case the keys are left untouched
  /// (swapping under live lanes would race their PRF caches) and the caller
  /// may retry.
  std::optional<std::uint64_t> rekey();

  std::uint16_t tcp_port() const { return tcp_listener_.port(); }
  std::uint16_t admin_port() const;
  const std::string& unix_socket_path() const { return cfg_.unix_socket_path; }

  // ---- session surface ----
  const std::string& campaign_id() const { return campaign_id_; }
  std::uint64_t key_epoch() const { return bank_->key_epoch(); }
  std::uint32_t credit_window() const { return cfg_.credit_window; }
  util::Counters* counters() { return counters_; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  const std::string& flight_dump_path() const { return cfg_.flight_dump_path; }

  /// Push one message's decoded records through the rekey gate (shared
  /// lock: many sessions push concurrently; /rekey takes the gate
  /// exclusively) as one Pipeline::push_batch. Returns how many records the
  /// pipeline accepted: fewer than records.size() only once it is closed.
  /// The pipeline co-owns `sink` per queued record, so a session may be
  /// destroyed while its records are in flight.
  std::size_t gated_push_batch(std::span<ingest::PushRecord> records,
                               std::shared_ptr<ingest::StreamSink> sink,
                               std::uint64_t first_stream_seq);

  void note_session_bytes(std::size_t n);
  void note_session_abort();

 private:
  Server(const ServerConfig& cfg, core::CampaignWorld world);
  void accept_loop(Listener* listener);
  void spawn_session(Socket sock);
  void unregister_session(std::uint64_t id);

  ServerConfig cfg_;
  util::Counters local_counters_;
  util::Counters* counters_;

  // Campaign world (construction order matters: later members reference
  // earlier ones).
  std::string campaign_id_;
  core::CampaignWorld world_;  ///< decoded from the bootstrap trace's header
  std::unique_ptr<sink::VerifierBank> bank_;
  std::unique_ptr<sink::TracebackEngine> engine_;
  std::unique_ptr<ingest::Pipeline> pipeline_;

  Listener tcp_listener_;
  Listener unix_listener_;
  std::unique_ptr<AdminServer> admin_;

  /// Anomaly watchdog (merge-stall + queue-saturation probes); probe state
  /// below is touched only from its poll thread.
  std::unique_ptr<obs::AnomalyWatchdog> watchdog_;
  std::uint64_t stall_frontier_ = 0;
  std::size_t stall_polls_ = 0;

  /// Rekey gate: sessions push under shared locks, rekey swaps under the
  /// exclusive lock. Also orders the epoch swap against every later push.
  std::shared_mutex ingest_gate_;

  std::thread consumer_;
  std::vector<std::thread> accept_threads_;
  std::mutex sessions_mu_;
  std::condition_variable sessions_cv_;
  /// Live sessions; serve_sessions_active is set from its size under
  /// sessions_mu_.
  std::unordered_map<std::uint64_t, int> session_fds_;
  TaskThreads session_threads_;
  std::atomic<std::uint64_t> next_session_id_{1};
  std::atomic<std::uint64_t> sessions_served_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_flag_{false};
  std::mutex drain_mu_;  ///< serializes drain(); held across the whole drain
  std::mutex report_mu_;
  std::condition_variable drained_cv_;
  bool report_ready_ = false;
  DrainReport report_;
  std::string consumer_error_;

  // serve-plane metrics (registered at construction)
  obs::Counter* sessions_total_;
  obs::Gauge* sessions_active_;
  obs::Counter* records_total_;
  obs::Counter* bytes_rx_total_;
  obs::Counter* aborts_total_;
  obs::Counter* rekeys_total_;
  obs::Gauge* key_epoch_gauge_;

  friend class Session;
};

}  // namespace pnm::serve
