#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <optional>
#include <utility>

#include "gql/json_export.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "obs/clock.h"
#include "obs/prometheus.h"
#include "obs/query_stats.h"
#include "obs/trace.h"
#include "pgq/graph_table.h"
#include "server/json.h"
#include "server/protocol.h"

namespace gpml {
namespace server {

namespace {

/// Writes all of `data`, riding out short writes and EINTR. MSG_NOSIGNAL:
/// a peer that hung up must surface as a failed send, not SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Buffered newline-delimited reader over a socket. One ReadLine call is
/// one protocol request; a line longer than kMaxLine aborts the
/// connection (hostile input must not buffer unboundedly).
struct LineReader {
  static constexpr size_t kMaxLine = 16u << 20;
  static constexpr size_t kCompactAt = 1u << 20;

  explicit LineReader(int fd_in) : fd(fd_in) {}

  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf.find('\n', pos);
      if (nl != std::string::npos) {
        line->assign(buf, pos, nl - pos);
        pos = nl + 1;
        if (pos >= kCompactAt) {
          buf.erase(0, pos);
          pos = 0;
        }
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      if (buf.size() - pos > kMaxLine) return false;
      char chunk[65536];
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;  // EOF, shutdown(SHUT_RD), or error.
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd;
  std::string buf;
  size_t pos = 0;
};

/// Marks one request in flight against a session: bumps in_flight (which
/// fences out the reaper) and stamps the idle clock on both edges. When
/// the session was already expired, expired() reports it and nothing is
/// marked — the caller answers SESSION_EXPIRED.
class SessionOp {
 public:
  explicit SessionOp(std::shared_ptr<ServerSession> session)
      : session_(std::move(session)) {
    std::lock_guard<std::mutex> lock(session_->mu);
    if (session_->expired) {
      expired_ = true;
      return;
    }
    ++session_->in_flight;
    session_->last_active_us = obs::MonotonicMicros();
    active_ = true;
  }

  ~SessionOp() {
    if (!active_) return;
    std::lock_guard<std::mutex> lock(session_->mu);
    --session_->in_flight;
    session_->last_active_us = obs::MonotonicMicros();
  }

  SessionOp(const SessionOp&) = delete;
  SessionOp& operator=(const SessionOp&) = delete;

  bool expired() const { return expired_; }

 private:
  std::shared_ptr<ServerSession> session_;
  bool expired_ = false;
  bool active_ = false;
};

Status SessionExpiredError() {
  return Status::NotFound(
      "session expired after idle timeout; send hello to start a new one");
}

std::string SessionExpiredResponse(const std::string& id_raw) {
  return ErrorResponse(SessionExpiredError(), kReasonSessionExpired, id_raw);
}

const std::string* GetString(const JsonValue& req, const std::string& key) {
  const JsonValue* v = req.Find(key);
  return v != nullptr && v->is_string() ? &v->string_v : nullptr;
}

bool GetInt(const JsonValue& req, const std::string& key, int64_t* out) {
  const JsonValue* v = req.Find(key);
  if (v == nullptr || !v->is_int()) return false;
  *out = v->int_v;
  return true;
}

int64_t GetIntOr(const JsonValue& req, const std::string& key,
                 int64_t fallback) {
  int64_t v = fallback;
  GetInt(req, key, &v);
  return v;
}

std::string FormatMs(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

/// Prometheus label-value escaping (text format): backslash, double
/// quote, and newline. Tenant names are client-supplied, so they go
/// through here before being spliced into a series name.
std::string PromLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The value of `key` in an HTTP query string ("a=1&b=2"), or "". No
/// percent-decoding — graph and tenant names on these endpoints are the
/// same plain identifiers the NDJSON ops take.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    size_t end = amp == std::string::npos ? query.size() : amp;
    if (end > pos && query.compare(pos, key.size(), key) == 0 &&
        pos + key.size() < end && query[pos + key.size()] == '=') {
      return query.substr(pos + key.size() + 1, end - pos - key.size() - 1);
    }
    if (amp == std::string::npos) break;
    pos = amp + 1;
  }
  return "";
}

/// Upper-bound quantile estimate from a log2 latency histogram (the
/// query-stats buckets share obs::Histogram's bounds): the bound of the
/// first bucket whose cumulative count reaches ceil(q * calls).
double QuantileMsFromBuckets(const std::vector<uint64_t>& buckets,
                             uint64_t calls, double q) {
  if (calls == 0 || buckets.empty()) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(calls)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      size_t bound = i < obs::Histogram::kNumBounds
                         ? i
                         : obs::Histogram::kNumBounds - 1;
      return static_cast<double>(obs::Histogram::BoundMicros(bound)) / 1e3;
    }
  }
  return static_cast<double>(
             obs::Histogram::BoundMicros(obs::Histogram::kNumBounds - 1)) /
         1e3;
}

/// Builds one of the generator graphs by kind name (docs/server.md lists
/// them). Sizes come from the request with test-friendly defaults.
Result<PropertyGraph> BuildGraphByKind(const std::string& kind,
                                       const JsonValue& req) {
  if (kind == "paper") return BuildPaperGraph();
  if (kind == "chain") {
    return MakeChainGraph(static_cast<int>(GetIntOr(req, "n", 100)));
  }
  if (kind == "cycle") {
    return MakeCycleGraph(static_cast<int>(GetIntOr(req, "n", 100)));
  }
  if (kind == "complete") {
    return MakeCompleteGraph(static_cast<int>(GetIntOr(req, "n", 16)));
  }
  if (kind == "diamond") {
    return MakeDiamondChain(static_cast<int>(GetIntOr(req, "k", 8)));
  }
  if (kind == "grid") {
    return MakeGridGraph(static_cast<int>(GetIntOr(req, "w", 10)),
                         static_cast<int>(GetIntOr(req, "h", 10)));
  }
  if (kind == "fraud") {
    FraudGraphOptions opts;
    opts.num_accounts = static_cast<int>(GetIntOr(req, "accounts", 300));
    opts.transfers_per_account =
        static_cast<int>(GetIntOr(req, "transfers", 4));
    opts.num_cities = static_cast<int>(GetIntOr(req, "cities", 10));
    opts.seed = static_cast<uint64_t>(GetIntOr(req, "seed", 42));
    return MakeFraudGraph(opts);
  }
  if (kind == "random") {
    return MakeRandomGraph(static_cast<int>(GetIntOr(req, "nodes", 100)),
                           static_cast<int>(GetIntOr(req, "edges", 300)),
                           static_cast<int>(GetIntOr(req, "labels", 3)),
                           /*undirected_fraction=*/0.25,
                           static_cast<uint64_t>(GetIntOr(req, "seed", 42)));
  }
  return Status::InvalidArgument(
      "unknown graph kind '" + kind +
      "' (expected paper|chain|cycle|complete|diamond|grid|fraud|random)");
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), admission_(options_.default_quota) {
  connections_total_ = metrics_.GetCounter("gpml_server_connections_total");
  requests_total_ = metrics_.GetCounter("gpml_server_requests_total");
  errors_total_ = metrics_.GetCounter("gpml_server_errors_total");
  rejected_saturated_total_ =
      metrics_.GetCounter("gpml_server_rejected_saturated_total");
  rejected_quota_total_ =
      metrics_.GetCounter("gpml_server_rejected_quota_total");
  sessions_opened_total_ =
      metrics_.GetCounter("gpml_server_sessions_opened_total");
  sessions_reaped_total_ =
      metrics_.GetCounter("gpml_server_sessions_reaped_total");
  queries_total_ = metrics_.GetCounter("gpml_server_queries_total");
  query_duration_us_ = metrics_.GetHistogram("gpml_server_query_duration_us");
}

Server::~Server() { Stop(); }

Status Server::AddGraph(std::string name, PropertyGraph graph) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_.AddGraph(std::move(name), std::move(graph));
}

Status Server::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_) return Status::InvalidArgument("server already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status status =
        Status::Internal(std::string("bind/listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  pool_ = std::make_unique<WorkerPool>(options_.worker_threads,
                                       options_.max_queue);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  reaper_thread_ = std::thread(&Server::ReaperLoop, this);
  return Status::OK();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);
  reaper_cv_.notify_all();
  // Waking the accept loop: shutdown on a listening socket makes a blocked
  // accept return, so the loop observes stopping_ and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();

  // Graceful drain: SHUT_RD wakes connection threads blocked in recv (they
  // see EOF and tear down) but leaves the write side open, so a request
  // already executing still gets its response before the thread exits.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  // Accept and reaper are joined, so nothing mutates conns_ anymore.
  for (const auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
  if (pool_ != nullptr) pool_->Shutdown();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (Stop) or broken beyond retry.
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    size_t live = 0;
    {
      // Sweep finished connections: join their threads and release fds.
      // Only here and never from the connection threads themselves, so an
      // fd is closed exactly once, strictly after its thread has exited.
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          ::close((*it)->fd);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      live = conns_.size();
    }
    if (live >= options_.max_connections) {
      SendAll(fd, ErrorResponse(Status::ResourceExhausted(
                                    "server connection limit reached"),
                                kReasonServerSaturated) +
                      "\n");
      ::close(fd);
      continue;
    }
    connections_total_->Increment();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
      raw->thread = std::thread([this, raw] { HandleConnection(raw); });
    }
  }
}

void Server::ReaperLoop() {
  std::unique_lock<std::mutex> lock(reaper_mu_);
  while (!stopping_.load()) {
    reaper_cv_.wait_for(
        lock,
        std::chrono::milliseconds(
            static_cast<int64_t>(options_.reap_interval_ms)),
        [this] { return stopping_.load(); });
    if (stopping_.load()) break;
    uint64_t idle_us =
        static_cast<uint64_t>(options_.idle_timeout_ms * 1000.0);
    std::vector<std::shared_ptr<ServerSession>> reaped =
        registry_.ReapIdle(obs::MonotonicMicros(), idle_us);
    for (const std::shared_ptr<ServerSession>& session : reaped) {
      ReleaseSessionSlot(session);
      sessions_reaped_total_->Increment();
    }
  }
}

void Server::HandleConnection(Connection* conn) {
  LineReader reader(conn->fd);
  ConnState state;
  std::string line;
  bool first = true;
  while (reader.ReadLine(&line)) {
    if (line.empty()) continue;
    if (first && line.rfind("GET ", 0) == 0) {
      HandleHttp(conn->fd, line, &reader.buf, &reader.pos);
      // HTTP clients frame the response by EOF (Connection: close); the
      // sweep only closes the fd once a *new* connection arrives, so
      // signal EOF here. shutdown() doesn't free the descriptor number,
      // keeping the close-only-after-join discipline intact.
      ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }
    first = false;
    std::string response = Dispatch(&state, line);
    if (!SendAll(conn->fd, response + "\n")) break;
    if (state.close_requested) break;
  }
  if (state.session != nullptr) {
    ReleaseSessionSlot(state.session);
    registry_.Remove(state.session->id());
  }
  // The fd is closed by the accept-loop sweep (or Stop) after this thread
  // is joined — never here, so a shutdown() from Stop can't race a reused
  // descriptor number.
  conn->done.store(true);
}

void Server::HandleHttp(int fd, const std::string& request_line,
                        std::string* buffered, size_t* buffer_pos) {
  // Drain the request headers (bounded by LineReader) so closing the
  // socket after the response doesn't reset unread client data.
  LineReader reader(fd);
  reader.buf = std::move(*buffered);
  reader.pos = *buffer_pos;
  std::string header;
  while (reader.ReadLine(&header)) {
    if (header.empty()) break;
  }

  size_t path_begin = 4;  // Past "GET ".
  size_t path_end = request_line.find(' ', path_begin);
  std::string target =
      path_end == std::string::npos
          ? request_line.substr(path_begin)
          : request_line.substr(path_begin, path_end - path_begin);
  std::string path = target;
  std::string query;
  size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  int code = 200;
  std::string reason = "OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    body = obs::RenderPrometheus(obs::AggregateAllRegistries());
  } else if (path == "/slow_queries") {
    Result<std::string> records = SlowQueriesJson(QueryParam(query, "graph"));
    if (records.ok()) {
      content_type = "application/json";
      body = *records;
      body += "\n";
    } else {
      code = 404;
      reason = "Not Found";
      body = records.status().message() + "\n";
    }
  } else if (path == "/query_stats") {
    Result<std::string> entries = QueryStatsJson(QueryParam(query, "graph"),
                                                 QueryParam(query, "tenant"));
    if (entries.ok()) {
      content_type = "application/json";
      body = *entries;
      body += "\n";
    } else {
      code = 404;
      reason = "Not Found";
      body = entries.status().message() + "\n";
    }
  } else {
    code = 404;
    reason = "Not Found";
    body = "not found\n";
  }

  char head[256];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                code, reason.c_str(), content_type.c_str(), body.size());
  SendAll(fd, head + body);
}

std::string Server::Dispatch(ConnState* state, const std::string& line) {
  requests_total_->Increment();
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    errors_total_->Increment();
    return ErrorResponse(Status::InvalidArgument("request is not valid JSON: " +
                                                 parsed.status().message()),
                         kReasonBadRequest);
  }
  const JsonValue& req = *parsed;
  std::string id_raw;
  if (const JsonValue* id = req.Find("id")) id_raw = id->RawSpan(line);
  const std::string* op = GetString(req, "op");
  if (op == nullptr) {
    errors_total_->Increment();
    return ErrorResponse(
        Status::InvalidArgument("request needs a string \"op\" field"),
        kReasonBadRequest, id_raw);
  }

  std::string response;
  if (*op == "hello") {
    response = OpHello(state, req, id_raw);
  } else if (*op == "ping") {
    if (state->session != nullptr) {
      SessionOp touch(state->session);  // Refreshes the idle clock.
    }
    response = OkResponseHead(id_raw) + "}";
  } else if (*op == "bye") {
    state->close_requested = true;
    response = OkResponseHead(id_raw) + "}";
  } else if (*op == "list_graphs") {
    response = OpListGraphs(id_raw);
  } else if (*op == "load_graph") {
    response = OpLoadGraph(req, id_raw);
  } else if (*op == "use_graph") {
    response = OpUseGraph(state, req, id_raw);
  } else if (*op == "prepare") {
    response = OpPrepare(state, req, id_raw);
  } else if (*op == "explain") {
    response = OpExplain(state, req, id_raw);
  } else if (*op == "execute") {
    response = OpExecute(state, req, id_raw);
  } else if (*op == "open") {
    response = OpOpen(state, req, id_raw);
  } else if (*op == "fetch") {
    response = OpFetch(state, req, id_raw);
  } else if (*op == "close_cursor") {
    response = OpCloseCursor(state, req, id_raw);
  } else if (*op == "close_stmt") {
    response = OpCloseStatement(state, req, id_raw);
  } else if (*op == "metrics") {
    response = OpMetrics(id_raw);
  } else if (*op == "slow_queries") {
    response = OpSlowQueries(req, id_raw);
  } else if (*op == "query_stats") {
    response = OpQueryStats(req, id_raw);
  } else if (*op == "stats") {
    response = OpStats(state, id_raw);
  } else if (*op == "debug_sleep") {
    response = OpDebugSleep(state, req, id_raw);
  } else {
    response = ErrorResponse(
        Status::InvalidArgument("unknown op '" + *op + "'"), kReasonBadRequest,
        id_raw);
  }
  if (response.rfind("{\"ok\":false", 0) == 0) errors_total_->Increment();
  return response;
}

Status Server::EnsureSession(ConnState* state, const std::string& tenant) {
  if (state->session != nullptr) return Status::OK();
  std::string effective = tenant.empty() ? "default" : tenant;
  Status admitted = admission_.AdmitSession(effective);
  if (!admitted.ok()) {
    rejected_quota_total_->Increment();
    TenantRefusalsCounter(effective, kReasonTenantSessions)->Increment();
    return admitted;
  }
  state->session = registry_.Create(effective, TenantStepsCounter(effective));
  sessions_opened_total_->Increment();
  TenantSessionsGauge(effective)->Increment();
  return Status::OK();
}

bool Server::ReleaseSessionSlot(
    const std::shared_ptr<ServerSession>& session) {
  bool release = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (!session->admission_released) {
      session->admission_released = true;
      release = true;
    }
  }
  if (release) {
    admission_.ReleaseSession(session->tenant());
    TenantSessionsGauge(session->tenant())->Decrement();
  }
  return release;
}

obs::Counter* Server::TenantStepsCounter(const std::string& tenant) {
  return metrics_.GetCounter("gpml_tenant_steps_total{tenant=\"" +
                             PromLabelEscape(tenant) + "\"}");
}

obs::Counter* Server::TenantRefusalsCounter(const std::string& tenant,
                                            const char* reason) {
  return metrics_.GetCounter("gpml_tenant_refusals_total{tenant=\"" +
                             PromLabelEscape(tenant) + "\",reason=\"" +
                             reason + "\"}");
}

obs::Gauge* Server::TenantSessionsGauge(const std::string& tenant) {
  return metrics_.GetGauge("gpml_tenant_active_sessions{tenant=\"" +
                           PromLabelEscape(tenant) + "\"}");
}

void Server::ChargeTenantSteps(const ServerSession& session, uint64_t steps) {
  admission_.ChargeSteps(session.tenant(), steps);
  if (steps > 0) session.steps_counter()->Increment(steps);
}

std::string Server::RunPooled(const char* op, const std::string& tenant,
                              const std::string& trace_id,
                              const std::string& id_raw,
                              const std::function<std::string()>& fn) {
  obs::Stopwatch request_clock;
  Status admitted = admission_.AdmitQuery(tenant);
  const uint64_t admission_us = request_clock.ElapsedMicros();
  if (!admitted.ok()) {
    rejected_quota_total_->Increment();
    // AdmitQuery has two refusal causes; the messages (admission.cc) are
    // the discriminator for the machine-readable reason.
    const char* reason =
        admitted.message().find("step budget") != std::string::npos
            ? kReasonTenantStepBudget
            : kReasonTenantConcurrency;
    TenantRefusalsCounter(tenant, reason)->Increment();
    return ErrorResponse(admitted, reason, id_raw);
  }
  QueryTicket ticket(&admission_, tenant);
  std::promise<std::string> result;
  std::future<std::string> future = result.get_future();
  // The worker writes these before set_value; future.get() synchronizes,
  // so the reads below are ordered after the writes.
  double queue_ms = 0;
  double exec_ms = 0;
  const uint64_t queue_start_us = request_clock.ElapsedMicros();
  bool accepted = pool_->SubmitTimed(
      [&result, &fn, &queue_ms, &exec_ms](double waited_ms) {
        queue_ms = waited_ms;
        obs::Stopwatch exec_clock;
        std::string response = fn();
        exec_ms = exec_clock.ElapsedMs();
        result.set_value(std::move(response));
      });
  if (!accepted) {
    rejected_saturated_total_->Increment();
    bool stopping = stopping_.load();
    const char* reason =
        stopping ? kReasonServerStopping : kReasonServerSaturated;
    TenantRefusalsCounter(tenant, reason)->Increment();
    return ErrorResponse(
        Status::ResourceExhausted(
            stopping ? "server is shutting down"
                     : "server worker pool is saturated; retry later"),
        reason, id_raw);
  }
  std::string response = future.get();

  // The request trace is rendered only for a sink, from the measured
  // times. The queue span starts at submission and ends at worker pickup
  // (the wait the pool measured); the session span is the handler running
  // under the session from pickup to completion.
  if (options_.engine.trace_sink != nullptr) {
    obs::Trace trace;
    int root = trace.AddComplete("request", obs::Trace::kNoParent, 0,
                                 request_clock.ElapsedMicros());
    trace.Attr(root, "op", op);
    trace.Attr(root, "tenant", tenant);
    if (!trace_id.empty()) trace.Attr(root, "trace_id", trace_id);
    trace.AddComplete("admission", root, 0, admission_us);
    const uint64_t queue_us = obs::MsToUs(queue_ms);
    trace.AddComplete("queue", root, queue_start_us, queue_us);
    trace.AddComplete("session", root, queue_start_us + queue_us,
                      obs::MsToUs(exec_ms));
    options_.engine.trace_sink->Emit(trace);
  }
  const double admission_ms = static_cast<double>(admission_us) / 1e3;

  // Successful responses carry the request timing breakdown; error
  // response shapes stay pinned by the protocol tests.
  if (response.rfind("{\"ok\":true", 0) == 0 && !response.empty() &&
      response.back() == '}') {
    char timing[160];
    std::snprintf(timing, sizeof(timing),
                  ",\"timing\":{\"admission_ms\":%.3f,\"queue_ms\":%.3f,"
                  "\"exec_ms\":%.3f}",
                  admission_ms, queue_ms, exec_ms);
    response.insert(response.size() - 1, timing);
  }
  return response;
}

std::string Server::OpHello(ConnState* state, const JsonValue& req,
                            const std::string& id_raw) {
  std::string tenant = "default";
  if (const std::string* t = GetString(req, "tenant")) tenant = *t;
  if (state->session != nullptr) {
    // Re-hello after an idle reap is the documented recovery path: the
    // expired shell is discarded and a fresh session admitted.
    bool expired = false;
    {
      std::lock_guard<std::mutex> lock(state->session->mu);
      expired = state->session->expired;
    }
    if (expired) {
      registry_.Remove(state->session->id());
      state->session.reset();
    }
  }
  Status ensured = EnsureSession(state, tenant);
  if (!ensured.ok()) {
    return ErrorResponse(ensured, kReasonTenantSessions, id_raw);
  }
  return OkResponseHead(id_raw) + ",\"protocol\":" +
         std::to_string(kProtocolVersion) + ",\"server\":\"gpml\"" +
         ",\"session\":" + std::to_string(state->session->id()) +
         ",\"tenant\":\"" + JsonEscape(state->session->tenant()) + "\"}";
}

std::string Server::OpListGraphs(const std::string& id_raw) {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    names = catalog_.GraphNames();
  }
  std::string out = OkResponseHead(id_raw) + ",\"graphs\":[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(names[i]) + "\"";
  }
  out += "]}";
  return out;
}

std::string Server::OpLoadGraph(const JsonValue& req,
                                const std::string& id_raw) {
  const std::string* name = GetString(req, "name");
  if (name == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("load_graph needs a string \"name\""),
        kReasonBadRequest, id_raw);
  }
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (catalog_.HasGraph(*name)) {
      return OkResponseHead(id_raw) + ",\"graph\":\"" + JsonEscape(*name) +
             "\",\"created\":false}";
    }
  }
  std::string kind = "paper";
  if (const std::string* k = GetString(req, "kind")) kind = *k;
  Result<PropertyGraph> graph = BuildGraphByKind(kind, req);
  if (!graph.ok()) return ErrorResponse(graph.status(), "", id_raw);
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    Status added = catalog_.AddGraph(*name, std::move(*graph));
    if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
      return ErrorResponse(added, "", id_raw);
    }
    return OkResponseHead(id_raw) + ",\"graph\":\"" + JsonEscape(*name) +
           "\",\"created\":" + (added.ok() ? "true" : "false") + "}";
  }
}

std::string Server::OpUseGraph(ConnState* state, const JsonValue& req,
                               const std::string& id_raw) {
  const std::string* name = GetString(req, "graph");
  if (name == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("use_graph needs a string \"graph\""),
        kReasonBadRequest, id_raw);
  }
  Status ensured = EnsureSession(state, "");
  if (!ensured.ok()) {
    return ErrorResponse(ensured, kReasonTenantSessions, id_raw);
  }
  SessionOp op(state->session);
  if (op.expired()) return SessionExpiredResponse(id_raw);
  Result<std::shared_ptr<const PropertyGraph>> graph = [&] {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    return catalog_.GetGraph(*name);
  }();
  if (!graph.ok()) return ErrorResponse(graph.status(), "", id_raw);
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    state->session->graph = *graph;
    state->session->graph_name = *name;
  }
  return OkResponseHead(id_raw) + ",\"graph\":\"" + JsonEscape(*name) + "\"}";
}

std::string Server::OpPrepare(ConnState* state, const JsonValue& req,
                              const std::string& id_raw) {
  const std::string* text = GetString(req, "query");
  if (text == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("prepare needs a string \"query\""),
        kReasonBadRequest, id_raw);
  }
  Status ensured = EnsureSession(state, "");
  if (!ensured.ok()) {
    return ErrorResponse(ensured, kReasonTenantSessions, id_raw);
  }
  SessionOp op(state->session);
  if (op.expired()) return SessionExpiredResponse(id_raw);
  std::shared_ptr<const PropertyGraph> graph;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    graph = state->session->graph;
  }
  if (graph == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("no graph selected; send use_graph first"),
        kReasonBadRequest, id_raw);
  }
  Engine engine(*graph, options_.engine);
  Result<PreparedQuery> prepared = engine.Prepare(*text);
  if (!prepared.ok()) return ErrorResponse(prepared.status(), "", id_raw);

  std::string params_json = "[";
  std::vector<std::string> names = prepared->signature().Names();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) params_json += ",";
    params_json += "\"" + JsonEscape(names[i]) + "\"";
  }
  params_json += "]";
  bool from_cache = prepared->from_cache();
  bool always_empty = prepared->always_empty();

  int64_t handle = 0;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    handle = state->session->next_handle++;
    state->session->statements.emplace(
        handle, PreparedHandle{std::move(*prepared), graph, *text});
  }
  return OkResponseHead(id_raw) + ",\"stmt\":" + std::to_string(handle) +
         ",\"params\":" + params_json +
         ",\"from_cache\":" + (from_cache ? "true" : "false") +
         ",\"always_empty\":" + (always_empty ? "true" : "false") + "}";
}

std::string Server::OpExplain(ConnState* state, const JsonValue& req,
                              const std::string& id_raw) {
  const std::string* text = GetString(req, "query");
  if (text == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("explain needs a string \"query\""),
        kReasonBadRequest, id_raw);
  }
  Status ensured = EnsureSession(state, "");
  if (!ensured.ok()) {
    return ErrorResponse(ensured, kReasonTenantSessions, id_raw);
  }
  SessionOp op(state->session);
  if (op.expired()) return SessionExpiredResponse(id_raw);
  std::shared_ptr<const PropertyGraph> graph;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    graph = state->session->graph;
  }
  if (graph == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("no graph selected; send use_graph first"),
        kReasonBadRequest, id_raw);
  }
  Engine engine(*graph, options_.engine);
  Result<std::string> plan = engine.Explain(*text);
  if (!plan.ok()) return ErrorResponse(plan.status(), "", id_raw);
  return OkResponseHead(id_raw) + ",\"plan\":\"" + JsonEscape(*plan) + "\"}";
}

/// The request half execute and open share, decoded and resolved against
/// the session's statement table.
struct Server::StatementCall {
  Params params;
  std::optional<uint64_t> limit;
  std::string trace_id;
  std::shared_ptr<const PropertyGraph> graph;
  std::optional<PreparedQuery> query;  // Cheap copy; shared compiled plan.
};

std::string Server::RunStatement(
    const char* op, ConnState* state, const JsonValue& req,
    const std::string& id_raw,
    const std::function<std::string(const StatementCall&)>& run) {
  if (state->session == nullptr) {
    return ErrorResponse(Status::InvalidArgument(
                             std::string(op) +
                             " needs a session; send hello first"),
                         kReasonBadRequest, id_raw);
  }
  SessionOp session_op(state->session);
  if (session_op.expired()) return SessionExpiredResponse(id_raw);
  int64_t stmt = 0;
  if (!GetInt(req, "stmt", &stmt)) {
    return ErrorResponse(Status::InvalidArgument(
                             std::string(op) +
                             " needs an integer \"stmt\" handle"),
                         kReasonBadRequest, id_raw);
  }
  StatementCall call;
  if (const JsonValue* p = req.Find("params")) {
    Result<Params> decoded = WireJsonToParams(*p);
    if (!decoded.ok()) {
      return ErrorResponse(decoded.status(), kReasonBadRequest, id_raw);
    }
    call.params = std::move(*decoded);
  }
  int64_t limit_v = 0;
  if (GetInt(req, "limit", &limit_v)) {
    if (limit_v < 0) {
      return ErrorResponse(
          Status::InvalidArgument("\"limit\" must be non-negative"),
          kReasonBadRequest, id_raw);
    }
    call.limit = static_cast<uint64_t>(limit_v);
  }
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    auto it = state->session->statements.find(stmt);
    if (it != state->session->statements.end()) {
      call.graph = it->second.graph;
      call.query = it->second.query;
    }
  }
  if (!call.query.has_value()) {
    return ErrorResponse(Status::NotFound("unknown statement handle " +
                                          std::to_string(stmt)),
                         "", id_raw);
  }
  if (const std::string* t = GetString(req, "trace_id")) call.trace_id = *t;
  return RunPooled(op, state->session->tenant(), call.trace_id, id_raw,
                   [&] { return run(call); });
}

std::string Server::OpExecute(ConnState* state, const JsonValue& req,
                              const std::string& id_raw) {
  return RunStatement(
      "execute", state, req, id_raw,
      [&](const StatementCall& call) -> std::string {
        obs::Stopwatch watch;
        EngineMetrics metrics;
        PreparedQuery bound = call.query->WithOptions(ExecutionOptions(
            state->session->tenant(), &metrics, call.trace_id));
        Result<Cursor> cursor = bound.Open(call.params, call.limit);
        if (!cursor.ok()) {
          ChargeTenantSteps(*state->session, metrics.matcher_steps);
          return ErrorResponse(cursor.status(), "", id_raw);
        }
        std::string rows;
        size_t count = 0;
        RowView view;
        while (true) {
          Result<bool> more = cursor->Next(&view);
          if (!more.ok()) {
            ChargeTenantSteps(*state->session, metrics.matcher_steps);
            return ErrorResponse(more.status(), "", id_raw);
          }
          if (!*more) break;
          if (count > 0) rows += ",";
          rows += RowToJson(cursor->context(), *view.row, *call.graph);
          ++count;
        }
        ChargeTenantSteps(*state->session, metrics.matcher_steps);
        queries_total_->Increment();
        query_duration_us_->Observe(watch.ElapsedMicros());
        return OkResponseHead(id_raw) + ",\"rows\":[" + rows +
               "],\"row_count\":" + std::to_string(count) +
               ",\"truncated\":" + (cursor->truncated() ? "true" : "false") +
               ",\"hit_limit\":" + (cursor->hit_limit() ? "true" : "false") +
               "}";
      });
}

std::string Server::OpOpen(ConnState* state, const JsonValue& req,
                           const std::string& id_raw) {
  return RunStatement(
      "open", state, req, id_raw,
      [&](const StatementCall& call) -> std::string {
        auto metrics = std::make_unique<EngineMetrics>();
        PreparedQuery bound = call.query->WithOptions(ExecutionOptions(
            state->session->tenant(), metrics.get(), call.trace_id));
        Result<Cursor> cursor = bound.Open(call.params, call.limit);
        if (!cursor.ok()) return ErrorResponse(cursor.status(), "", id_raw);
        queries_total_->Increment();
        CursorHandle handle;
        handle.cursor = std::make_unique<Cursor>(std::move(*cursor));
        handle.metrics = std::move(metrics);
        handle.graph = call.graph;
        int64_t cursor_id = 0;
        {
          std::lock_guard<std::mutex> lock(state->session->mu);
          cursor_id = state->session->next_handle++;
          state->session->cursors[cursor_id] = std::move(handle);
        }
        return OkResponseHead(id_raw) +
               ",\"cursor\":" + std::to_string(cursor_id) + "}";
      });
}

std::string Server::OpFetch(ConnState* state, const JsonValue& req,
                            const std::string& id_raw) {
  if (state->session == nullptr) {
    return ErrorResponse(
        Status::InvalidArgument("fetch needs a session; send hello first"),
        kReasonBadRequest, id_raw);
  }
  SessionOp op(state->session);
  if (op.expired()) return SessionExpiredResponse(id_raw);
  int64_t cursor_id = 0;
  if (!GetInt(req, "cursor", &cursor_id)) {
    return ErrorResponse(
        Status::InvalidArgument("fetch needs an integer \"cursor\" handle"),
        kReasonBadRequest, id_raw);
  }
  int64_t max_rows = GetIntOr(req, "max_rows", 256);
  if (max_rows <= 0) max_rows = 256;
  if (max_rows > 65536) max_rows = 65536;

  CursorHandle* handle = nullptr;
  {
    // Map node pointers are stable; the handle stays valid while this op's
    // in_flight mark keeps the reaper away and the connection (the only
    // other mutator) is busy right here.
    std::lock_guard<std::mutex> lock(state->session->mu);
    auto it = state->session->cursors.find(cursor_id);
    if (it != state->session->cursors.end()) handle = &it->second;
  }
  if (handle == nullptr) {
    return ErrorResponse(Status::NotFound("unknown cursor handle " +
                                          std::to_string(cursor_id)),
                         "", id_raw);
  }

  std::string trace_id;
  if (const std::string* t = GetString(req, "trace_id")) trace_id = *t;
  const std::string& tenant = state->session->tenant();
  return RunPooled("fetch", tenant, trace_id, id_raw, [&]() -> std::string {
    std::string rows;
    size_t count = 0;
    bool done = false;
    RowView view;
    auto charge = [&] {
      uint64_t total = handle->metrics->matcher_steps;
      ChargeTenantSteps(*state->session, total - handle->steps_charged);
      handle->steps_charged = total;
    };
    while (count < static_cast<size_t>(max_rows)) {
      Result<bool> more = handle->cursor->Next(&view);
      if (!more.ok()) {
        charge();
        return ErrorResponse(more.status(), "", id_raw);
      }
      if (!*more) {
        done = true;
        break;
      }
      if (count > 0) rows += ",";
      rows += RowToJson(handle->cursor->context(), *view.row, *handle->graph);
      ++count;
    }
    charge();
    return OkResponseHead(id_raw) + ",\"rows\":[" + rows +
           "],\"row_count\":" + std::to_string(count) +
           ",\"done\":" + (done ? "true" : "false") + ",\"truncated\":" +
           (handle->cursor->truncated() ? "true" : "false") +
           ",\"hit_limit\":" + (handle->cursor->hit_limit() ? "true" : "false") +
           "}";
  });
}

std::string Server::OpCloseCursor(ConnState* state, const JsonValue& req,
                                  const std::string& id_raw) {
  if (state->session == nullptr) {
    return ErrorResponse(Status::InvalidArgument(
                             "close_cursor needs a session; send hello first"),
                         kReasonBadRequest, id_raw);
  }
  SessionOp op(state->session);
  if (op.expired()) return SessionExpiredResponse(id_raw);
  int64_t cursor_id = 0;
  if (!GetInt(req, "cursor", &cursor_id)) {
    return ErrorResponse(Status::InvalidArgument(
                             "close_cursor needs an integer \"cursor\""),
                         kReasonBadRequest, id_raw);
  }
  size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    erased = state->session->cursors.erase(cursor_id);
  }
  if (erased == 0) {
    return ErrorResponse(Status::NotFound("unknown cursor handle " +
                                          std::to_string(cursor_id)),
                         "", id_raw);
  }
  return OkResponseHead(id_raw) + ",\"closed\":true}";
}

std::string Server::OpCloseStatement(ConnState* state, const JsonValue& req,
                                     const std::string& id_raw) {
  if (state->session == nullptr) {
    return ErrorResponse(Status::InvalidArgument(
                             "close_stmt needs a session; send hello first"),
                         kReasonBadRequest, id_raw);
  }
  SessionOp op(state->session);
  if (op.expired()) return SessionExpiredResponse(id_raw);
  int64_t stmt = 0;
  if (!GetInt(req, "stmt", &stmt)) {
    return ErrorResponse(
        Status::InvalidArgument("close_stmt needs an integer \"stmt\""),
        kReasonBadRequest, id_raw);
  }
  size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    erased = state->session->statements.erase(stmt);
  }
  if (erased == 0) {
    return ErrorResponse(
        Status::NotFound("unknown statement handle " + std::to_string(stmt)),
        "", id_raw);
  }
  return OkResponseHead(id_raw) + ",\"closed\":true}";
}

std::string Server::OpMetrics(const std::string& id_raw) {
  std::string text = obs::RenderPrometheus(obs::AggregateAllRegistries());
  return OkResponseHead(id_raw) + ",\"text\":\"" + JsonEscape(text) + "\"}";
}

std::string Server::OpSlowQueries(const JsonValue& req,
                                  const std::string& id_raw) {
  std::string graph;
  if (const std::string* g = GetString(req, "graph")) graph = *g;
  Result<std::string> records = SlowQueriesJson(graph);
  if (!records.ok()) return ErrorResponse(records.status(), "", id_raw);
  return OkResponseHead(id_raw) + ",\"records\":" + *records + "}";
}

std::string Server::OpQueryStats(const JsonValue& req,
                                 const std::string& id_raw) {
  std::string graph;
  std::string tenant;
  if (const std::string* g = GetString(req, "graph")) graph = *g;
  if (const std::string* t = GetString(req, "tenant")) tenant = *t;
  Result<std::string> entries = QueryStatsJson(graph, tenant);
  if (!entries.ok()) return ErrorResponse(entries.status(), "", id_raw);
  return OkResponseHead(id_raw) + ",\"entries\":" + *entries + "}";
}

std::string Server::OpStats(ConnState* state, const std::string& id_raw) {
  std::string tenant =
      state->session != nullptr ? state->session->tenant() : "default";
  AdmissionController::TenantCounts counts = admission_.CountsFor(tenant);
  return OkResponseHead(id_raw) +
         ",\"sessions\":" + std::to_string(registry_.size()) +
         ",\"queue_depth\":" + std::to_string(pool_->queue_depth()) +
         ",\"active\":" + std::to_string(pool_->active()) + ",\"tenant\":{" +
         "\"name\":\"" + JsonEscape(tenant) + "\"" +
         ",\"sessions\":" + std::to_string(counts.sessions) +
         ",\"in_flight\":" + std::to_string(counts.in_flight) +
         ",\"total_steps\":" + std::to_string(counts.total_steps) + "}}";
}

std::string Server::OpDebugSleep(ConnState* state, const JsonValue& req,
                                 const std::string& id_raw) {
  if (!options_.enable_debug_ops) {
    return ErrorResponse(
        Status::Unimplemented("debug ops are disabled on this server"), "",
        id_raw);
  }
  Status ensured = EnsureSession(state, "");
  if (!ensured.ok()) {
    return ErrorResponse(ensured, kReasonTenantSessions, id_raw);
  }
  SessionOp op(state->session);
  if (op.expired()) return SessionExpiredResponse(id_raw);
  int64_t ms = GetIntOr(req, "ms", 10);
  if (ms < 0) ms = 0;
  if (ms > 10000) ms = 10000;
  std::string trace_id;
  if (const std::string* t = GetString(req, "trace_id")) trace_id = *t;
  const std::string& tenant = state->session->tenant();
  return RunPooled("debug_sleep", tenant, trace_id, id_raw,
                   [&]() -> std::string {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return OkResponseHead(id_raw) + ",\"slept_ms\":" + std::to_string(ms) +
           "}";
  });
}

Result<std::string> Server::SlowQueriesJson(const std::string& graph) {
  std::vector<obs::SlowQueryRecord> records;
  if (!graph.empty()) {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    GPML_ASSIGN_OR_RETURN(records, GraphTableSlowQueries(
                                       catalog_, graph,
                                       options_.engine.slow_log));
  } else {
    const obs::SlowQueryLog* log = options_.engine.slow_log != nullptr
                                       ? options_.engine.slow_log
                                       : &obs::GlobalSlowQueryLog();
    records = log->Snapshot();
  }
  // Graph names are friendlier than identity tokens; resolve what we can.
  std::map<uint64_t, std::string> token_names;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    for (const std::string& name : catalog_.GraphNames()) {
      Result<std::shared_ptr<const PropertyGraph>> g = catalog_.GetGraph(name);
      if (g.ok()) token_names[(*g)->identity_token()] = name;
    }
  }
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const obs::SlowQueryRecord& record = records[i];
    if (i > 0) out += ",";
    auto name_it = token_names.find(record.graph_token);
    out += "{\"sequence\":" + std::to_string(record.sequence) +
           ",\"graph_token\":" + std::to_string(record.graph_token) +
           ",\"graph\":\"" +
           JsonEscape(name_it != token_names.end() ? name_it->second : "") +
           "\",\"fingerprint\":\"" + JsonEscape(record.fingerprint) +
           "\",\"tenant\":\"" + JsonEscape(record.tenant) +
           "\",\"trace_id\":\"" + JsonEscape(record.trace_id) +
           "\",\"total_ms\":" + FormatMs(record.total_ms) +
           ",\"rows\":" + std::to_string(record.rows) + ",\"explain\":\"" +
           JsonEscape(record.explain) + "\"}";
  }
  out += "]";
  return out;
}

Result<std::string> Server::QueryStatsJson(const std::string& graph,
                                           const std::string& tenant) {
  const obs::QueryStatsStore* store =
      options_.engine.query_stats != nullptr ? options_.engine.query_stats
                                             : &obs::GlobalQueryStats();
  std::vector<obs::QueryStatEntry> entries;
  if (!graph.empty()) {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    GPML_ASSIGN_OR_RETURN(entries,
                          GraphTableQueryStats(catalog_, graph, store));
  } else {
    entries = store->Snapshot();
  }
  if (!tenant.empty()) {
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const obs::QueryStatEntry& e) {
                                   return e.tenant != tenant;
                                 }),
                  entries.end());
  }
  // Heaviest first: the gpml_top ordering, so a plain curl already reads
  // as a leaderboard.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const obs::QueryStatEntry& a,
                      const obs::QueryStatEntry& b) {
                     return a.total_ms > b.total_ms;
                   });
  std::map<uint64_t, std::string> token_names;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    for (const std::string& name : catalog_.GraphNames()) {
      Result<std::shared_ptr<const PropertyGraph>> g = catalog_.GetGraph(name);
      if (g.ok()) token_names[(*g)->identity_token()] = name;
    }
  }
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const obs::QueryStatEntry& e = entries[i];
    if (i > 0) out += ",";
    auto name_it = token_names.find(e.graph_token);
    uint64_t current_plan = e.plans.empty() ? 0 : e.plans.back().plan_hash;
    double mean_ms =
        e.calls > 0 ? e.total_ms / static_cast<double>(e.calls) : 0;
    out += "{\"fingerprint\":\"" + JsonEscape(e.fingerprint) +
           "\",\"graph_token\":" + std::to_string(e.graph_token) +
           ",\"graph\":\"" +
           JsonEscape(name_it != token_names.end() ? name_it->second : "") +
           "\",\"tenant\":\"" + JsonEscape(e.tenant) +
           "\",\"calls\":" + std::to_string(e.calls) +
           ",\"errors\":" + std::to_string(e.errors) +
           ",\"truncations\":" + std::to_string(e.truncations) +
           ",\"rows\":" + std::to_string(e.rows) +
           ",\"seeds\":" + std::to_string(e.seeds) +
           ",\"steps\":" + std::to_string(e.steps) +
           ",\"cache_hits\":" + std::to_string(e.cache_hits) +
           ",\"cache_misses\":" + std::to_string(e.cache_misses) +
           ",\"batch_calls\":" + std::to_string(e.batch_calls) +
           ",\"total_ms\":" + FormatMs(e.total_ms) +
           ",\"mean_ms\":" + FormatMs(mean_ms) +
           ",\"min_ms\":" + FormatMs(e.min_ms) +
           ",\"max_ms\":" + FormatMs(e.max_ms) + ",\"p50_ms\":" +
           FormatMs(QuantileMsFromBuckets(e.latency_buckets, e.calls, 0.50)) +
           ",\"p95_ms\":" +
           FormatMs(QuantileMsFromBuckets(e.latency_buckets, e.calls, 0.95)) +
           ",\"plan_hash\":" + std::to_string(current_plan) +
           ",\"plan_changed\":" + (e.plan_changed ? "true" : "false") +
           ",\"plan_changes\":" + std::to_string(e.plan_changes) +
           ",\"plans\":[";
    for (size_t p = 0; p < e.plans.size(); ++p) {
      const obs::PlanRecord& plan = e.plans[p];
      if (p > 0) out += ",";
      out += "{\"plan_hash\":" + std::to_string(plan.plan_hash) +
             ",\"calls\":" + std::to_string(plan.calls) +
             ",\"total_ms\":" + FormatMs(plan.total_ms) +
             ",\"min_ms\":" + FormatMs(plan.min_ms) +
             ",\"max_ms\":" + FormatMs(plan.max_ms) +
             ",\"first_seen_us\":" + std::to_string(plan.first_seen_us) +
             ",\"last_seen_us\":" + std::to_string(plan.last_seen_us) + "}";
    }
    out += "]}";
  }
  out += "]";
  return out;
}

EngineOptions Server::ExecutionOptions(const std::string& tenant,
                                       EngineMetrics* metrics,
                                       const std::string& trace_id) const {
  EngineOptions opts = options_.engine;
  opts.metrics = metrics;
  opts.tenant = tenant;
  opts.trace_id = trace_id;
  opts.matcher = admission_.ApplyQuota(tenant, opts.matcher);
  return opts;
}

}  // namespace server
}  // namespace gpml
