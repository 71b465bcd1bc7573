// Thin RAII wrappers over POSIX stream sockets (TCP loopback-or-any and
// AF_UNIX) — just enough for the serve daemon and its load generator:
// blocking accept/connect/send/recv, a non-blocking drain for the client's
// opportunistic credit reads, and listener shutdown that reliably unblocks a
// blocked accept() (shutdown(SHUT_RDWR) on the listening fd, which Linux
// surfaces as EINVAL to the accepter).
//
// Error reporting is by out-parameter string, never exceptions: socket
// failures are expected operational events (port in use, peer reset) the
// daemon logs and survives.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace pnm::serve {

/// One connected stream socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  static Socket connect_tcp(const std::string& host, std::uint16_t port,
                            std::string* error);
  static Socket connect_unix(const std::string& path, std::string* error);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Disable Nagle (TCP only; silently ignored on unix sockets). The session
  /// protocol is request/response at EOF time — a 40 ms Nagle stall per
  /// digest would dominate small-trace latencies.
  void set_nodelay();

  /// Make recv_some() give up with -1 once `timeout` passes without data;
  /// zero clears the deadline.
  void set_recv_timeout(std::chrono::milliseconds timeout);

  /// Write the whole buffer (retrying short writes / EINTR). False on error
  /// or peer close.
  bool send_all(ByteView data);

  /// Blocking read of up to `cap` bytes. >0 bytes read, 0 = clean EOF,
  /// -1 = error.
  long recv_some(void* buf, std::size_t cap);

  /// Non-blocking read of up to `cap` bytes. >0 bytes read, 0 = clean EOF,
  /// -1 = nothing available (EAGAIN), -2 = error.
  long recv_nonblocking(void* buf, std::size_t cap);

  void close();

 private:
  int fd_ = -1;
};

/// A listening socket (TCP on 127.0.0.1:<port> with port 0 = ephemeral, or
/// AF_UNIX at a path). shutdown_accept() unblocks any accept() in flight
/// without releasing the descriptor; close() may only run once no thread is
/// inside accept_conn() (it releases the fd number for reuse). The unix
/// variant unlinks its path on close.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static Listener tcp(std::uint16_t port, std::string* error);
  static Listener unix_path(const std::string& path, std::string* error);

  bool valid() const { return fd_.load(std::memory_order_acquire) >= 0; }
  /// Bound TCP port (after tcp() with port 0 resolves the ephemeral bind).
  std::uint16_t port() const { return port_; }

  /// Blocking accept. Returns an invalid Socket once the listener is shut
  /// down or on a non-transient error.
  Socket accept_conn();

  /// Unblock any concurrent accept_conn() (Linux surfaces the shutdown as
  /// EINVAL to the accepter). Keeps the fd alive so a thread mid-accept can
  /// never observe its number recycled onto an unrelated socket; pair with
  /// close() after the accept threads are joined.
  void shutdown_accept();

  void close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
  std::string unlink_path_;
};

}  // namespace pnm::serve
