#include "serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pnm::serve {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool fill_unix_addr(const std::string& path, sockaddr_un* addr, std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    if (error) *error = "unix socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect_tcp(const std::string& host, std::uint16_t port,
                           std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_string("socket");
    return Socket();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad host address: " + host;
    ::close(fd);
    return Socket();
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = errno_string("connect");
    ::close(fd);
    return Socket();
  }
  Socket s(fd);
  s.set_nodelay();
  return s;
}

Socket Socket::connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!fill_unix_addr(path, &addr, error)) return Socket();
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_string("socket");
    return Socket();
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = errno_string("connect");
    ::close(fd);
    return Socket();
  }
  return Socket(fd);
}

void Socket::set_nodelay() {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Socket::set_recv_timeout(std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>(timeout.count() % 1000 * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool Socket::send_all(ByteView data) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-stream yields EPIPE, not SIGPIPE.
    ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

long Socket::recv_some(void* buf, std::size_t cap) {
  while (true) {
    ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n < 0 && errno == EINTR) continue;
    return n < 0 ? -1 : static_cast<long>(n);
  }
}

long Socket::recv_nonblocking(void* buf, std::size_t cap) {
  while (true) {
    ssize_t n = ::recv(fd_, buf, cap, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
      return -2;
    }
    return static_cast<long>(n);
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_acq_rel)),
      port_(other.port_),
      unlink_path_(std::move(other.unlink_path_)) {
  other.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_acq_rel),
              std::memory_order_release);
    port_ = other.port_;
    unlink_path_ = std::move(other.unlink_path_);
    other.unlink_path_.clear();
  }
  return *this;
}

Listener Listener::tcp(std::uint16_t port, std::string* error) {
  Listener l;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_string("socket");
    return l;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = errno_string("bind");
    ::close(fd);
    return l;
  }
  if (::listen(fd, 64) != 0) {
    if (error) *error = errno_string("listen");
    ::close(fd);
    return l;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (error) *error = errno_string("getsockname");
    ::close(fd);
    return l;
  }
  l.fd_ = fd;
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Listener Listener::unix_path(const std::string& path, std::string* error) {
  Listener l;
  sockaddr_un addr;
  if (!fill_unix_addr(path, &addr, error)) return l;
  ::unlink(path.c_str());  // stale socket from a previous run
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_string("socket");
    return l;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = errno_string("bind");
    ::close(fd);
    return l;
  }
  if (::listen(fd, 64) != 0) {
    if (error) *error = errno_string("listen");
    ::close(fd);
    return l;
  }
  l.fd_ = fd;
  l.unlink_path_ = path;
  return l;
}

Socket Listener::accept_conn() {
  while (true) {
    int listen_fd = fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    break;  // EINVAL after shutdown_accept(), or a real error: stop accepting
  }
  return Socket();
}

void Listener::shutdown_accept() {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Listener::close() {
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

}  // namespace pnm::serve
