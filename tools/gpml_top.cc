// gpml_top: a `top` for query workloads (docs/observability.md).
//
//   gpml_top [--host ADDR] [--port N] [--graph NAME] [--tenant NAME]
//            [-n ROWS] [--watch [SECONDS]]
//
// Polls a gpml_server's HTTP GET /query_stats endpoint and renders the
// heaviest query fingerprints as a table, sorted by total time (the
// server's order). One-shot by default; --watch repaints every interval
// (default 2s) until interrupted. A fingerprint flagged with '!' in the
// PLAN column changed plans since it was first seen — the plan-change
// regression signal surfaced inline.

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "server/json.h"
#include "server/protocol.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host ADDR] [--port N] [--graph NAME]\n"
               "          [--tenant NAME] [-n ROWS] [--watch [SECONDS]]\n",
               argv0);
}

/// One blocking HTTP/1.1 GET with Connection: close; returns the body.
/// Plain sockets, no TLS — the server speaks HTTP only for the loopback
/// observability endpoints.
bool HttpGet(const std::string& host, int port, const std::string& target,
             std::string* body, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    *error = std::string("resolve ") + host + ": " + ::gai_strerror(rc);
    return false;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    *error = "connect " + host + ":" + port_str + ": " + std::strerror(errno);
    return false;
  }
  std::string request = "GET " + target +
                        " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  if (!gpml::server::SendAll(fd, request)) {
    *error = std::string("send: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  std::string response;
  char chunk[65536];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    *error = "malformed HTTP response";
    return false;
  }
  if (response.rfind("HTTP/1.1 200", 0) != 0) {
    size_t eol = response.find("\r\n");
    *error = "server answered: " + response.substr(0, eol);
    return false;
  }
  *body = response.substr(header_end + 4);
  return true;
}

double NumberField(const gpml::server::JsonValue& entry,
                   const std::string& key) {
  const gpml::server::JsonValue* v = entry.Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : 0;
}

std::string StringField(const gpml::server::JsonValue& entry,
                        const std::string& key) {
  const gpml::server::JsonValue* v = entry.Find(key);
  return v != nullptr && v->is_string() ? v->string_v : "";
}

/// Collapses the fingerprint to one displayable line of at most `width`
/// columns (fingerprints are whole normalized patterns, possibly long).
std::string Ellipsize(std::string text, size_t width) {
  for (char& c : text) {
    if (c == '\n' || c == '\t') c = ' ';
  }
  if (text.size() > width) {
    text.resize(width > 3 ? width - 3 : width);
    if (width > 3) text += "...";
  }
  return text;
}

int RenderOnce(const std::string& host, int port, const std::string& target,
               size_t top_n) {
  std::string body;
  std::string error;
  if (!HttpGet(host, port, target, &body, &error)) {
    std::fprintf(stderr, "gpml_top: %s\n", error.c_str());
    return 1;
  }
  // The endpoint serves one JSON array followed by a newline.
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
    body.pop_back();
  }
  gpml::Result<gpml::server::JsonValue> parsed =
      gpml::server::ParseJson(body);
  if (!parsed.ok() || !parsed->is_array()) {
    std::fprintf(stderr, "gpml_top: bad /query_stats payload: %s\n",
                 parsed.ok() ? "not an array"
                             : parsed.status().message().c_str());
    return 1;
  }
  std::printf("%5s %8s %10s %9s %9s %9s %12s %6s  %s\n", "PLAN", "CALLS",
              "TOTAL_MS", "MEAN_MS", "P95_MS", "ERRORS", "STEPS", "GRAPH",
              "FINGERPRINT");
  size_t shown = 0;
  for (const gpml::server::JsonValue& entry : parsed->array_v) {
    if (shown >= top_n) break;
    const gpml::server::JsonValue* changed = entry.Find("plan_changed");
    bool plan_changed =
        changed != nullptr && changed->is_bool() && changed->bool_v;
    std::printf("%5s %8.0f %10.3f %9.3f %9.3f %9.0f %12.0f %6s  %s\n",
                plan_changed ? "!" : "-", NumberField(entry, "calls"),
                NumberField(entry, "total_ms"), NumberField(entry, "mean_ms"),
                NumberField(entry, "p95_ms"), NumberField(entry, "errors"),
                NumberField(entry, "steps"),
                Ellipsize(StringField(entry, "graph"), 6).c_str(),
                Ellipsize(StringField(entry, "fingerprint"), 60).c_str());
    ++shown;
  }
  std::printf("%zu of %zu fingerprints shown\n", shown,
              parsed->array_v.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7687;
  std::string graph;
  std::string tenant;
  size_t top_n = 20;
  bool watch = false;
  double interval_s = 2.0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--graph") {
      graph = next();
    } else if (arg == "--tenant") {
      tenant = next();
    } else if (arg == "-n" || arg == "--top") {
      top_n = static_cast<size_t>(std::atoi(next()));
      if (top_n == 0) top_n = 1;
    } else if (arg == "--watch") {
      watch = true;
      // Optional numeric operand: --watch 5.
      if (i + 1 < argc && std::atof(argv[i + 1]) > 0) {
        interval_s = std::atof(argv[++i]);
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  std::string target = "/query_stats";
  std::string sep = "?";
  if (!graph.empty()) {
    target += sep + "graph=" + graph;
    sep = "&";
  }
  if (!tenant.empty()) target += sep + "tenant=" + tenant;

  if (!watch) return RenderOnce(host, port, target, top_n);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    // ANSI clear + home, like watch(1); harmless when piped to a file.
    std::printf("\x1b[2J\x1b[H");
    int rc = RenderOnce(host, port, target, top_n);
    std::fflush(stdout);
    if (rc != 0) return rc;
    double slept = 0;
    while (g_stop == 0 && slept < interval_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slept += 0.05;
    }
  }
  return 0;
}
