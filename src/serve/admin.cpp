#include "serve/admin.h"

#include <cstdio>
#include <utility>

#include "obs/flight.h"
#include "obs/provenance.h"
#include "serve/server.h"

namespace pnm::serve {

namespace {

constexpr std::size_t kMaxRequestBytes = 16 * 1024;

constexpr const char* kText = "text/plain; charset=utf-8";

/// `extra_headers` is zero or more complete "Name: value\r\n" lines.
std::string http_response(int code, const char* status, const std::string& body,
                          const char* content_type = kText,
                          const char* extra_headers = "") {
  std::string head = "HTTP/1.0 " + std::to_string(code) + " " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\n" + extra_headers + "Connection: close\r\n\r\n";
  return head + body;
}

struct RequestLine {
  std::string method;
  std::string path;
};

/// "POST /drain?x=1 HTTP/1.1" → {"POST", "/drain"}. Both empty on a garbled
/// request line.
RequestLine parse_request_line(const std::string& request) {
  std::size_t sp1 = request.find(' ');
  if (sp1 == std::string::npos) return {};
  std::size_t sp2 = request.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return {};
  RequestLine line{request.substr(0, sp1), request.substr(sp1 + 1, sp2 - sp1 - 1)};
  std::size_t q = line.path.find('?');
  if (q != std::string::npos) line.path.resize(q);
  return line;
}

std::string drain_json(const DrainReport& r) {
  std::string out = "{\"records\":" + std::to_string(r.records) +
                    ",\"sessions\":" + std::to_string(r.sessions) +
                    ",\"key_epoch\":" + std::to_string(r.key_epoch) +
                    ",\"digest\":\"" + r.verdict_digest + "\"";
  if (!r.error.empty()) out += ",\"error\":\"" + r.error + "\"";
  out += "}";
  return out;
}

}  // namespace

bool AdminServer::start(std::uint16_t port, std::string* error) {
  listener_ = Listener::tcp(port, error);
  if (!listener_.valid()) return false;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void AdminServer::accept_loop() {
  while (true) {
    Socket sock = listener_.accept_conn();
    if (!sock.valid()) return;
    sock.set_recv_timeout(kRecvDeadline);
    handlers_.spawn([this](Socket s) { handle(std::move(s)); }, std::move(sock));
  }
}

void AdminServer::handle(Socket sock) {
  std::string request;
  char buf[2048];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    long n = sock.recv_some(buf, sizeof(buf));
    if (n < 0) return;  // silent past kRecvDeadline, or reset: no answer
    if (n == 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const auto [method, path] = parse_request_line(request);

  std::string response;
  if ((path == "/drain" || path == "/rekey") && method != "POST") {
    response = http_response(405, "Method Not Allowed", path + " takes POST\n", kText,
                             "Allow: POST\r\n");
  } else if (path == "/healthz") {
    response = server_.healthy() ? http_response(200, "OK", "ok\n")
                                 : http_response(503, "Service Unavailable", "drained\n");
  } else if (path == "/metrics") {
    response = http_response(200, "OK", server_.metrics_prometheus(),
                             "text/plain; version=0.0.4; charset=utf-8");
  } else if (path == "/spans") {
    // The span ring and the provenance rings merged into one Chrome
    // trace-event stream — loadable straight into Perfetto. Span collection
    // is opt-in (--span-trace / enable()); provenance instants appear
    // whenever sampling is on.
    response = http_response(200, "OK", obs::export_chrome_trace(),
                             "application/json");
  } else if (path == "/provenance") {
    // Full runtime provenance JSONL: every retained event with thread/lane/
    // timing context, timestamp-ordered.
    response = http_response(200, "OK", obs::provenance_jsonl_full(),
                             "application/x-ndjson");
  } else if (path == "/flight") {
    // On-demand flight dump; also persisted to the configured --flight-dump
    // path so the artifact survives the daemon.
    std::string doc = obs::FlightRecorder::global().dump("admin /flight");
    if (!server_.flight_dump_path().empty())
      obs::FlightRecorder::global().dump_to_file(server_.flight_dump_path(),
                                                 "admin /flight");
    response = http_response(200, "OK", doc, "application/json");
  } else if (path == "/drain") {
    response = http_response(200, "OK", drain_json(server_.drain()) + "\n",
                             "application/json");
  } else if (path == "/rekey") {
    if (auto epoch = server_.rekey()) {
      response = http_response(
          200, "OK", "{\"epoch\":" + std::to_string(*epoch) + "}\n",
          "application/json");
    } else {
      response = http_response(
          503, "Service Unavailable",
          "rekey aborted: pipeline did not quiesce; keys unchanged\n");
    }
  } else {
    response = http_response(404, "Not Found", "unknown endpoint\n");
  }
  sock.send_all(ByteView(reinterpret_cast<const std::uint8_t*>(response.data()),
                         response.size()));
}

void AdminServer::stop() {
  if (stopped_.exchange(true)) return;
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  handlers_.join_all();
}

}  // namespace pnm::serve
