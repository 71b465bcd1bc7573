// Admin plane of the serve daemon: a minimal HTTP/1.0 responder on its own
// loopback port, kept deliberately separate from the session port so
// operational probes can never interleave with (or be backpressured by) the
// ingest byte stream.
//
//   GET /healthz   → 200 "ok" while accepting, 503 once drained
//   GET /metrics   → Prometheus text exposition of the daemon's registry
//   GET /spans     → the process span ring as Chrome trace-event JSON
//                    (empty unless span collection was enabled, e.g. the
//                    daemon was started with --span-trace)
//   POST /drain    → stop accepting, flush shards, respond with the final
//                    record count + global verdict digest (idempotent; also
//                    unblocks Server::wait())
//   POST /rekey    → quiesce the pipeline, swap the VerifierBank to the next
//                    campaign key epoch, respond {"epoch": N}
//
// /drain and /rekey change the daemon, so any other method on them gets
// 405 Method Not Allowed (Allow: POST): a crawler or a mistyped scrape
// cannot drain it. The responder speaks just enough HTTP for curl and the
// CI scripts: request line + headers in, Content-Length + Connection: close
// out. Each connection gets one handler thread (TaskThreads: finished
// handlers are joined before the next starts) and kRecvDeadline to send its
// request.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "serve/socket.h"
#include "serve/task_threads.h"

namespace pnm::serve {

class Server;

class AdminServer {
 public:
  /// How long a connection may take to send its request. A client that
  /// stays silent past it gets no answer, so stop() never waits longer.
  static constexpr std::chrono::seconds kRecvDeadline{5};

  explicit AdminServer(Server& server) : server_(server) {}
  ~AdminServer() { stop(); }
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Bind 127.0.0.1:<port> (0 = ephemeral) and start serving.
  bool start(std::uint16_t port, std::string* error);
  std::uint16_t port() const { return listener_.port(); }

  /// Close the listener and join every handler; a silent client holds this
  /// up for at most kRecvDeadline. Idempotent. Must not be called from a
  /// handler thread (a /drain handler joins elsewhere first).
  void stop();

 private:
  void accept_loop();
  void handle(Socket sock);

  Server& server_;
  Listener listener_;
  std::thread accept_thread_;
  TaskThreads handlers_;  ///< one per request, joined as requests finish
  std::atomic<bool> stopped_{false};
};

}  // namespace pnm::serve
