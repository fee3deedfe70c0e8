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
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <utility>

#include "common/json_text.h"
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

/// Buffered newline-delimited reader over a socket. One ReadLine call is
/// one protocol request; a line longer than kMaxLine bytes ends the
/// reading (hostile input must not buffer unboundedly) and sets too_long.
struct LineReader {
  static constexpr size_t kMaxLine = 16u << 20;
  static constexpr size_t kCompactAt = 1u << 20;

  explicit LineReader(int fd_in) : fd(fd_in) {}

  bool ReadLine(std::string* line) {
    while (true) {
      // Only the bytes appended since the last scan can hold the newline,
      // so a long line costs one pass however many reads it spans.
      size_t nl = buf.find('\n', scanned);
      if ((nl == std::string::npos ? buf.size() : nl) - pos > kMaxLine) {
        too_long = true;
        return false;
      }
      if (nl != std::string::npos) {
        line->assign(buf, pos, nl - pos);
        pos = scanned = nl + 1;
        if (pos >= kCompactAt) {
          buf.erase(0, pos);
          pos = scanned = 0;
        }
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      scanned = buf.size();
      char chunk[65536];
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;  // EOF, shutdown(SHUT_RD), or error.
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd;
  std::string buf;
  size_t pos = 0;      // Start of the current line in buf.
  size_t scanned = 0;  // buf[pos, scanned) holds no newline.
  bool too_long = false;
};

const std::string* GetString(const JsonValue& req, const std::string& key) {
  const JsonValue* v = req.Find(key);
  return v != nullptr && v->is_string() ? &v->string_v : nullptr;
}

std::string StringOr(const JsonValue& req, const std::string& key,
                     const std::string& fallback = "") {
  const std::string* v = GetString(req, key);
  return v != nullptr ? *v : fallback;
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

// Field appenders for the JSON objects the server writes, through the
// common/json_text.h primitives. Key writes `"key":`, after a comma unless
// the object was just opened.
void Key(std::string* out, const char* key) {
  if (out->back() != '{') out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
}

template <typename Int>
void IntField(std::string* out, const char* key, Int value) {
  Key(out, key);
  AppendJsonInt(out, value);
}

void StringField(std::string* out, const char* key, std::string_view value) {
  Key(out, key);
  AppendJsonString(out, value);
}

void BoolField(std::string* out, const char* key, bool value) {
  Key(out, key);
  out->append(value ? "true" : "false");
}

/// Milliseconds at the fixed three decimals of the stats bodies.
void MsField(std::string* out, const char* key, double ms) {
  Key(out, key);
  char buf[64];
  out->append(buf, std::snprintf(buf, sizeof(buf), "%.3f", ms));
}

void StringsField(std::string* out, const char* key,
                  const std::vector<std::string>& values) {
  Key(out, key);
  out->push_back('[');
  for (const std::string& value : values) {
    if (out->back() != '[') out->push_back(',');
    AppendJsonString(out, value);
  }
  out->push_back(']');
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
  size_t i = 0;
  for (uint64_t cumulative = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) break;
  }
  // The overflow bucket (kNumBounds finite ones precede it), or no bucket
  // reaching `rank`, reads as the last finite bound.
  const size_t bound = std::min(i, obs::Histogram::kNumBounds - 1);
  return static_cast<double>(obs::Histogram::BoundMicros(bound)) / 1e3;
}

std::string_view NameOf(const std::map<uint64_t, std::string>& names,
                        uint64_t token) {
  auto it = names.find(token);
  return it != names.end() ? std::string_view(it->second) : "";
}

/// A generator's int64 size fields, read from a load_graph request and
/// checked before anything is built: a size outside [minimum,
/// kMaxGeneratedElements] is refused, and so are sizes that make more than
/// kMaxGeneratedElements elements. A refused size reads as the nearest
/// allowed one, so the sizes fit an int and the element counts computed
/// from them in int64 never overflow.
class GraphSizes {
 public:
  explicit GraphSizes(const JsonValue& req) : req_(req) {}

  int Get(const char* key, int64_t fallback, int64_t minimum = 0) {
    const int64_t value = GetIntOr(req_, key, fallback);
    const int64_t bounded = std::clamp(value, minimum, kMaxGeneratedElements);
    if (bounded != value && status_.ok()) {
      status_ = Status::InvalidArgument(
          "\"" + std::string(key) + "\" must be in [" +
          std::to_string(minimum) + ", " +
          std::to_string(kMaxGeneratedElements) + "], got " +
          std::to_string(value));
    }
    return static_cast<int>(bounded);
  }

  /// `make()`, unless a size was refused or the graph would have more
  /// than kMaxGeneratedElements `elements`.
  Result<PropertyGraph> Build(int64_t elements,
                              const std::function<PropertyGraph()>& make) {
    GPML_RETURN_IF_ERROR(status_);
    if (elements > kMaxGeneratedElements) {
      return Status::InvalidArgument(
          "the graph would have " + std::to_string(elements) +
          " elements, over the bound of " +
          std::to_string(kMaxGeneratedElements));
    }
    return make();
  }

 private:
  const JsonValue& req_;
  Status status_;
};

// Each kind checks an upper bound on the nodes plus edges it builds: exact
// for complete, diamond and random; chain and grid build a few edges
// fewer, and about half of fraud's accounts sign in with an IP.
const GraphKind kGraphKinds[] = {
    {"paper", [](const JsonValue&) -> Result<PropertyGraph> {
       return BuildPaperGraph();
     }},
    {"chain", [](const JsonValue& req) {
       GraphSizes sizes(req);
       const int n = sizes.Get("n", 100);
       return sizes.Build(2 * int64_t{n}, [n] { return MakeChainGraph(n); });
     }},
    {"cycle", [](const JsonValue& req) {
       GraphSizes sizes(req);
       const int n = sizes.Get("n", 100);
       return sizes.Build(2 * int64_t{n}, [n] { return MakeCycleGraph(n); });
     }},
    {"complete", [](const JsonValue& req) {
       GraphSizes sizes(req);
       const int n = sizes.Get("n", 16);
       return sizes.Build(int64_t{n} * n, [n] { return MakeCompleteGraph(n); });
     }},
    {"diamond", [](const JsonValue& req) {
       GraphSizes sizes(req);
       const int k = sizes.Get("k", 8);
       return sizes.Build(7 * int64_t{k} + 1,
                          [k] { return MakeDiamondChain(k); });
     }},
    {"grid", [](const JsonValue& req) {
       GraphSizes sizes(req);
       const int w = sizes.Get("w", 10);
       const int h = sizes.Get("h", 10);
       return sizes.Build(3 * int64_t{w} * h,
                          [w, h] { return MakeGridGraph(w, h); });
     }},
    {"fraud", [](const JsonValue& req) {
       GraphSizes sizes(req);
       FraudGraphOptions opts;
       opts.num_accounts = sizes.Get("accounts", 300, 1);
       opts.transfers_per_account = sizes.Get("transfers", 4);
       opts.num_cities = sizes.Get("cities", 10, 1);
       opts.seed = static_cast<uint64_t>(GetIntOr(req, "seed", 42));
       return sizes.Build(
           int64_t{opts.num_accounts} * (opts.transfers_per_account + 5) +
               opts.num_cities + 2,
           [opts] { return MakeFraudGraph(opts); });
     }},
    {"random", [](const JsonValue& req) {
       GraphSizes sizes(req);
       const int nodes = sizes.Get("nodes", 100, 1);
       const int edges = sizes.Get("edges", 300);
       const int labels = sizes.Get("labels", 3);
       const auto seed = static_cast<uint64_t>(GetIntOr(req, "seed", 42));
       return sizes.Build(int64_t{nodes} + edges, [=] {
         return MakeRandomGraph(nodes, edges, labels, 0.25, seed);
       });
     }},
};

}  // namespace

Result<const GraphKind*> FindGraphKind(const std::string& name) {
  for (const GraphKind& kind : kGraphKinds) {
    if (name == kind.name) return &kind;
  }
  return Status::InvalidArgument(
      "unknown graph kind '" + name +
      "' (expected paper|chain|cycle|complete|diamond|grid|fraud|random)");
}

/// One request being answered. A handler appends its fields to `body`,
/// which starts as OkResponseHead, or returns a failed Status and leaves
/// the machine-readable reason, if one applies, in `reason`.
struct Server::Reply {
  std::string op;
  std::string id_raw;
  std::string body;
  const char* reason = "";

  Status Refuse(Status status, const char* why) {
    reason = why;
    return status;
  }
  Status BadRequest(std::string message) {
    return Refuse(Status::InvalidArgument(std::move(message)),
                  kReasonBadRequest);
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      admission_(options_.default_quota, options_.worker_threads,
                 options_.max_queue) {
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
  // already running or waiting for a run slot still gets its response
  // before the thread exits.
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
    if (SweepFinished() >= options_.max_connections) {
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

size_t Server::SweepFinished() {
  // Only here (and in Stop) and never from the connection threads
  // themselves, so an fd is closed exactly once, strictly after its thread
  // has been joined.
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
  return conns_.size();
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
    SweepFinished();
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
      // Drain the request headers (bounded by LineReader) so closing the
      // socket after the response doesn't reset unread client data. A
      // header over the cap just ends them: HTTP gets no NDJSON error.
      for (std::string header; reader.ReadLine(&header) && !header.empty();) {
      }
      reader.too_long = false;
      HandleHttp(conn->fd, line);
      break;
    }
    first = false;
    std::string response = Dispatch(&state, line);
    response.push_back('\n');
    if (!SendAll(conn->fd, response)) break;
    if (state.close_requested) break;
  }
  if (reader.too_long) {
    // The rest of the line cannot be skipped without reading it: answer
    // once, then end the stream.
    requests_total_->Increment();
    errors_total_->Increment();
    SendAll(conn->fd,
            ErrorResponse(Status::InvalidArgument(
                              "request line longer than " +
                              std::to_string(LineReader::kMaxLine) + " bytes"),
                          kReasonBadRequest) +
                "\n");
  }
  if (state.session != nullptr) {
    ReleaseSessionSlot(state.session);
    registry_.Remove(state.session->id());
  }
  // The peer sees end of stream now (HTTP clients frame the response by
  // it). The fd itself is closed by SweepFinished (or Stop) after
  // this thread is joined — never here, so a shutdown() from Stop can't
  // race a reused descriptor number.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true);
}

void Server::HandleHttp(int fd, const std::string& request_line) {
  // "GET <path>[?<query>] HTTP/1.1": the target runs to the next space.
  const std::string target =
      request_line.substr(4, request_line.find(' ', 4) - 4);
  const size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);

  int code = 200;
  std::string reason = "OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    body = obs::RenderPrometheus(obs::AggregateAllRegistries());
  } else if (path == "/slow_queries" || path == "/query_stats") {
    const std::string graph = QueryParam(query, "graph");
    Status status = path == "/slow_queries"
                        ? AppendSlowQueries(graph, &body)
                        : AppendQueryStats(graph, QueryParam(query, "tenant"),
                                           &body);
    if (status.ok()) {
      content_type = "application/json";
      body += "\n";
    } else {
      code = 404;
      reason = "Not Found";
      body = status.message() + "\n";
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
  Reply reply;
  Status status = Handle(state, line, &reply);
  if (!status.ok()) {
    errors_total_->Increment();
    return ErrorResponse(status, reply.reason, reply.id_raw);
  }
  reply.body.push_back('}');
  return std::move(reply.body);
}

Status Server::Handle(ConnState* state, const std::string& line,
                      Reply* reply) {
  static const std::map<std::string_view, Handler> kHandlers = {
      {"hello", &Server::OpHello},
      {"ping", &Server::OpPing},
      {"bye", &Server::OpBye},
      {"list_graphs", &Server::OpListGraphs},
      {"load_graph", &Server::OpLoadGraph},
      {"use_graph", &Server::OpUseGraph},
      {"prepare", &Server::OpPrepare},
      {"explain", &Server::OpPrepare},
      {"execute", &Server::OpStatement},
      {"open", &Server::OpStatement},
      {"fetch", &Server::OpFetch},
      {"close_cursor", &Server::OpClose},
      {"close_stmt", &Server::OpClose},
      {"metrics", &Server::OpMetrics},
      {"slow_queries", &Server::OpObservations},
      {"query_stats", &Server::OpObservations},
      {"stats", &Server::OpStats},
      {"debug_sleep", &Server::OpDebugSleep},
  };
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return reply->BadRequest("request is not valid JSON: " +
                             parsed.status().message());
  }
  if (const JsonValue* id = parsed->Find("id")) {
    reply->id_raw = id->RawSpan(line);
  }
  const std::string* op = GetString(*parsed, "op");
  if (op == nullptr) {
    return reply->BadRequest("request needs a string \"op\" field");
  }
  auto handler = kHandlers.find(*op);
  if (handler == kHandlers.end()) {
    return reply->BadRequest("unknown op '" + *op + "'");
  }
  reply->op = *op;
  reply->body = OkResponseHead(reply->id_raw);
  return (this->*handler->second)(state, *parsed, reply);
}

Status Server::OpenSession(ConnState* state, const std::string& tenant,
                           Reply* reply) {
  if (state->session != nullptr) return Status::OK();
  std::string effective = tenant.empty() ? "default" : tenant;
  Status admitted = admission_.AdmitSession(effective);
  if (!admitted.ok()) {
    rejected_quota_total_->Increment();
    TenantRefusalsCounter(effective, kReasonTenantSessions)->Increment();
    return reply->Refuse(admitted, kReasonTenantSessions);
  }
  const std::string label = "{tenant=\"" + PromLabelEscape(effective) + "\"}";
  state->session = registry_.Create(
      effective, metrics_.GetCounter("gpml_tenant_steps_total" + label),
      metrics_.GetGauge("gpml_tenant_active_sessions" + label));
  sessions_opened_total_->Increment();
  state->session->sessions_gauge()->Increment();
  return Status::OK();
}

Status Server::EnterSession(ConnState* state, const char* needs_hello,
                            SessionOp* in_flight, Reply* reply) {
  if (needs_hello == nullptr) {
    GPML_RETURN_IF_ERROR(OpenSession(state, "", reply));
  } else if (state->session == nullptr) {
    return reply->BadRequest(std::string(needs_hello) +
                             " needs a session; send hello first");
  }
  if (!in_flight->Enter(state->session)) {
    return reply->Refuse(
        Status::NotFound("session expired after idle timeout; send hello "
                         "to start a new one"),
        kReasonSessionExpired);
  }
  return Status::OK();
}

void Server::ReleaseSessionSlot(
    const std::shared_ptr<ServerSession>& session) {
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->admission_released) return;
    session->admission_released = true;
  }
  admission_.ReleaseSession(session->tenant());
  session->sessions_gauge()->Decrement();
}

obs::Counter* Server::TenantRefusalsCounter(const std::string& tenant,
                                            const char* reason) {
  return metrics_.GetCounter("gpml_tenant_refusals_total{tenant=\"" +
                             PromLabelEscape(tenant) + "\",reason=\"" +
                             reason + "\"}");
}

void Server::ChargeSteps(const ServerSession& session, CursorHandle* handle) {
  const uint64_t total = handle->metrics->matcher_steps;
  const uint64_t steps = total - handle->steps_charged;
  handle->steps_charged = total;
  admission_.ChargeSteps(session.tenant(), steps);
  if (steps > 0) session.steps_counter()->Increment(steps);
}

template <typename Fn>
Status Server::RunAdmitted(const std::string& tenant,
                         const std::string& trace_id, Reply* reply, Fn&& fn) {
  obs::Stopwatch request_clock;
  const char* refusal = "";
  uint64_t queue_us = 0;
  Status admitted = admission_.AdmitQuery(tenant, &refusal, &queue_us);
  // The decision is the admission span; the wait for a run slot follows it.
  const uint64_t admission_us = request_clock.ElapsedMicros() - queue_us;
  if (!admitted.ok()) {
    if (std::strcmp(refusal, kReasonServerSaturated) == 0) {
      rejected_saturated_total_->Increment();
      if (stopping_.load()) {
        refusal = kReasonServerStopping;
        admitted = Status::ResourceExhausted("server is shutting down");
      }
    } else {
      rejected_quota_total_->Increment();
    }
    TenantRefusalsCounter(tenant, refusal)->Increment();
    return reply->Refuse(admitted, refusal);
  }
  QueryTicket ticket(&admission_, tenant);
  obs::Stopwatch exec_clock;
  Status status = fn();
  const uint64_t exec_us = exec_clock.ElapsedMicros();

  // The request trace is rendered only for a sink, from the measured
  // times. The queue span is the wait for a run slot; the session span is
  // the handler running under the session from then to completion.
  if (options_.engine.trace_sink != nullptr) {
    obs::Trace trace;
    int root = trace.AddComplete("request", obs::Trace::kNoParent, 0,
                                 request_clock.ElapsedMicros());
    trace.Attr(root, "op", reply->op);
    trace.Attr(root, "tenant", tenant);
    if (!trace_id.empty()) trace.Attr(root, "trace_id", trace_id);
    trace.AddComplete("admission", root, 0, admission_us);
    trace.AddComplete("queue", root, admission_us, queue_us);
    trace.AddComplete("session", root, admission_us + queue_us, exec_us);
    options_.engine.trace_sink->Emit(trace);
  }
  // Only successful responses carry the request timing breakdown; error
  // response shapes stay pinned by the protocol tests.
  GPML_RETURN_IF_ERROR(status);
  char timing[160];
  reply->body.append(
      timing, std::snprintf(timing, sizeof(timing),
                            ",\"timing\":{\"admission_ms\":%.3f,\"queue_ms\":"
                            "%.3f,\"exec_ms\":%.3f}",
                            static_cast<double>(admission_us) / 1e3,
                            static_cast<double>(queue_us) / 1e3,
                            static_cast<double>(exec_us) / 1e3));
  return Status::OK();
}

Status Server::WriteRows(const ServerSession& session, CursorHandle* handle,
                         size_t max_rows, bool paged, std::string* out) {
  Cursor& cursor = *handle->cursor;
  out->append(",\"rows\":[");
  size_t count = 0;
  bool done = false;
  Status status;
  RowView view;
  while (count < max_rows) {
    Result<bool> more = cursor.Next(&view);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!*more) {
      done = true;
      break;
    }
    if (count++ > 0) out->push_back(',');
    AppendRowJson(out, cursor.context(), *view.row, *handle->graph);
  }
  ChargeSteps(session, handle);
  GPML_RETURN_IF_ERROR(status);
  out->push_back(']');
  IntField(out, "row_count", count);
  if (paged) BoolField(out, "done", done);
  BoolField(out, "truncated", cursor.truncated());
  BoolField(out, "hit_limit", cursor.hit_limit());
  return Status::OK();
}

Status Server::OpHello(ConnState* state, const JsonValue& req, Reply* reply) {
  // Re-hello after an idle reap is the documented recovery path: the
  // expired shell is discarded and a fresh session admitted.
  if (state->session != nullptr && !SessionOp().Enter(state->session)) {
    registry_.Remove(state->session->id());
    state->session.reset();
  }
  GPML_RETURN_IF_ERROR(
      OpenSession(state, StringOr(req, "tenant", "default"), reply));
  std::string* out = &reply->body;
  IntField(out, "protocol", kProtocolVersion);
  StringField(out, "server", "gpml");
  IntField(out, "session", state->session->id());
  StringField(out, "tenant", state->session->tenant());
  return Status::OK();
}

Status Server::OpPing(ConnState* state, const JsonValue&, Reply*) {
  // Refreshes the idle clock; an expired session is left for hello.
  if (state->session != nullptr) SessionOp().Enter(state->session);
  return Status::OK();
}

Status Server::OpBye(ConnState* state, const JsonValue&, Reply*) {
  state->close_requested = true;
  return Status::OK();
}

Status Server::OpListGraphs(ConnState*, const JsonValue&, Reply* reply) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  StringsField(&reply->body, "graphs", catalog_.GraphNames());
  return Status::OK();
}

Status Server::OpLoadGraph(ConnState*, const JsonValue& req, Reply* reply) {
  const std::string* name = GetString(req, "name");
  if (name == nullptr) {
    return reply->BadRequest("load_graph needs a string \"name\"");
  }
  StringField(&reply->body, "graph", *name);
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (catalog_.HasGraph(*name)) {
      BoolField(&reply->body, "created", false);
      return Status::OK();
    }
  }
  GPML_ASSIGN_OR_RETURN(const GraphKind* kind,
                        FindGraphKind(StringOr(req, "kind", "paper")));
  Result<PropertyGraph> graph = kind->build(req);
  if (!graph.ok()) return reply->Refuse(graph.status(), kReasonBadRequest);
  std::lock_guard<std::mutex> lock(catalog_mu_);
  Status added = catalog_.AddGraph(*name, std::move(*graph));
  if (!added.ok() && added.code() != StatusCode::kAlreadyExists) return added;
  BoolField(&reply->body, "created", added.ok());
  return Status::OK();
}

Status Server::OpUseGraph(ConnState* state, const JsonValue& req,
                          Reply* reply) {
  const std::string* name = GetString(req, "graph");
  if (name == nullptr) {
    return reply->BadRequest("use_graph needs a string \"graph\"");
  }
  SessionOp in_flight;
  GPML_RETURN_IF_ERROR(EnterSession(state, nullptr, &in_flight, reply));
  std::shared_ptr<const PropertyGraph> graph;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    GPML_ASSIGN_OR_RETURN(graph, catalog_.GetGraph(*name));
  }
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    state->session->graph = std::move(graph);
  }
  StringField(&reply->body, "graph", *name);
  return Status::OK();
}

Status Server::OpPrepare(ConnState* state, const JsonValue& req,
                         Reply* reply) {
  const std::string* text = GetString(req, "query");
  if (text == nullptr) {
    return reply->BadRequest(reply->op + " needs a string \"query\"");
  }
  SessionOp in_flight;
  GPML_RETURN_IF_ERROR(EnterSession(state, nullptr, &in_flight, reply));
  std::shared_ptr<const PropertyGraph> graph;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    graph = state->session->graph;
  }
  if (graph == nullptr) {
    return reply->BadRequest("no graph selected; send use_graph first");
  }
  Engine engine(*graph, options_.engine);
  std::string* out = &reply->body;
  if (reply->op == "explain") {
    GPML_ASSIGN_OR_RETURN(std::string plan, engine.Explain(*text));
    StringField(out, "plan", plan);
    return Status::OK();
  }
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, engine.Prepare(*text));
  int64_t handle = 0;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    handle = state->session->next_handle++;
    state->session->statements.emplace(handle,
                                       PreparedHandle{prepared, graph});
  }
  IntField(out, "stmt", handle);
  StringsField(out, "params", prepared.signature().Names());
  BoolField(out, "from_cache", prepared.from_cache());
  BoolField(out, "always_empty", prepared.always_empty());
  return Status::OK();
}

Status Server::OpStatement(ConnState* state, const JsonValue& req,
                           Reply* reply) {
  const bool open = reply->op == "open";
  const char* op = open ? "open" : "execute";
  SessionOp in_flight;
  GPML_RETURN_IF_ERROR(EnterSession(state, op, &in_flight, reply));
  int64_t stmt = 0;
  if (!GetInt(req, "stmt", &stmt)) {
    return reply->BadRequest(std::string(op) +
                             " needs an integer \"stmt\" handle");
  }
  Params params;
  if (const JsonValue* p = req.Find("params")) {
    Result<Params> decoded = WireJsonToParams(*p);
    if (!decoded.ok()) {
      return reply->Refuse(decoded.status(), kReasonBadRequest);
    }
    params = std::move(*decoded);
  }
  std::optional<uint64_t> limit;
  if (int64_t v = 0; GetInt(req, "limit", &v)) {
    if (v < 0) return reply->BadRequest("\"limit\" must be non-negative");
    limit = static_cast<uint64_t>(v);
  }
  std::shared_ptr<const PropertyGraph> graph;
  std::optional<PreparedQuery> query;  // Cheap copy; shared compiled plan.
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    auto it = state->session->statements.find(stmt);
    if (it != state->session->statements.end()) {
      graph = it->second.graph;
      query = it->second.query;
    }
  }
  if (!query.has_value()) {
    return Status::NotFound("unknown statement handle " + std::to_string(stmt));
  }
  ServerSession& session = *state->session;
  const std::string trace_id = StringOr(req, "trace_id");
  return RunAdmitted(session.tenant(), trace_id, reply, [&]() -> Status {
    obs::Stopwatch watch;
    CursorHandle handle{nullptr, std::make_unique<EngineMetrics>(), graph};
    // The server's engine options, tightened to the tenant's quota and
    // stamped with the tenant and trace_id for slow-query captures and
    // query-stats attribution.
    EngineOptions opts = options_.engine;
    opts.metrics = handle.metrics.get();
    opts.tenant = session.tenant();
    opts.trace_id = trace_id;
    opts.matcher = admission_.ApplyQuota(session.tenant(), opts.matcher);
    PreparedQuery bound = query->WithOptions(opts);
    Result<Cursor> cursor = bound.Open(params, limit);
    if (!cursor.ok()) {
      ChargeSteps(session, &handle);
      return cursor.status();
    }
    handle.cursor = std::make_unique<Cursor>(std::move(*cursor));
    if (open) {
      queries_total_->Increment();
      int64_t cursor_id = 0;
      {
        std::lock_guard<std::mutex> lock(session.mu);
        cursor_id = session.next_handle++;
        session.cursors.emplace(cursor_id, std::move(handle));
      }
      IntField(&reply->body, "cursor", cursor_id);
      return Status::OK();
    }
    GPML_RETURN_IF_ERROR(WriteRows(session, &handle, SIZE_MAX,
                                   /*paged=*/false, &reply->body));
    queries_total_->Increment();
    query_duration_us_->Observe(watch.ElapsedMicros());
    return Status::OK();
  });
}

Status Server::OpFetch(ConnState* state, const JsonValue& req, Reply* reply) {
  SessionOp in_flight;
  GPML_RETURN_IF_ERROR(EnterSession(state, "fetch", &in_flight, reply));
  int64_t cursor_id = 0;
  if (!GetInt(req, "cursor", &cursor_id)) {
    return reply->BadRequest("fetch needs an integer \"cursor\" handle");
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
    return Status::NotFound("unknown cursor handle " +
                            std::to_string(cursor_id));
  }
  ServerSession& session = *state->session;
  return RunAdmitted(session.tenant(), StringOr(req, "trace_id"), reply, [&] {
    return WriteRows(session, handle, static_cast<size_t>(max_rows),
                     /*paged=*/true, &reply->body);
  });
}

Status Server::OpClose(ConnState* state, const JsonValue& req, Reply* reply) {
  const bool cursor = reply->op == "close_cursor";
  const char* op = cursor ? "close_cursor" : "close_stmt";
  const char* field = cursor ? "cursor" : "stmt";
  SessionOp in_flight;
  GPML_RETURN_IF_ERROR(EnterSession(state, op, &in_flight, reply));
  int64_t id = 0;
  if (!GetInt(req, field, &id)) {
    return reply->BadRequest(std::string(op) + " needs an integer \"" +
                             field + "\"");
  }
  size_t erased = 0;
  {
    std::lock_guard<std::mutex> lock(state->session->mu);
    erased = cursor ? state->session->cursors.erase(id)
                    : state->session->statements.erase(id);
  }
  if (erased == 0) {
    return Status::NotFound(std::string("unknown ") +
                            (cursor ? "cursor" : "statement") + " handle " +
                            std::to_string(id));
  }
  BoolField(&reply->body, "closed", true);
  return Status::OK();
}

Status Server::OpMetrics(ConnState*, const JsonValue&, Reply* reply) {
  StringField(&reply->body, "text",
              obs::RenderPrometheus(obs::AggregateAllRegistries()));
  return Status::OK();
}

Status Server::OpObservations(ConnState*, const JsonValue& req,
                              Reply* reply) {
  const std::string graph = StringOr(req, "graph");
  if (reply->op == "slow_queries") {
    Key(&reply->body, "records");
    return AppendSlowQueries(graph, &reply->body);
  }
  Key(&reply->body, "entries");
  return AppendQueryStats(graph, StringOr(req, "tenant"), &reply->body);
}

Status Server::OpStats(ConnState* state, const JsonValue&, Reply* reply) {
  const std::string tenant =
      state->session != nullptr ? state->session->tenant() : "default";
  const AdmissionController::TenantCounts counts =
      admission_.CountsFor(tenant);
  std::string* out = &reply->body;
  IntField(out, "sessions", registry_.size());
  const AdmissionController::RunCounts runs = admission_.Runs();
  IntField(out, "queue_depth", runs.queue_depth);
  IntField(out, "active", runs.active);
  Key(out, "tenant");
  out->push_back('{');
  StringField(out, "name", tenant);
  IntField(out, "sessions", counts.sessions);
  IntField(out, "in_flight", counts.in_flight);
  IntField(out, "total_steps", counts.total_steps);
  out->push_back('}');
  return Status::OK();
}

Status Server::OpDebugSleep(ConnState* state, const JsonValue& req,
                            Reply* reply) {
  if (!options_.enable_debug_ops) {
    return Status::Unimplemented("debug ops are disabled on this server");
  }
  SessionOp in_flight;
  GPML_RETURN_IF_ERROR(EnterSession(state, nullptr, &in_flight, reply));
  const int64_t ms = std::clamp<int64_t>(GetIntOr(req, "ms", 10), 0, 10000);
  return RunAdmitted(state->session->tenant(), StringOr(req, "trace_id"), reply,
                   [&] {
                     std::this_thread::sleep_for(std::chrono::milliseconds(ms));
                     IntField(&reply->body, "slept_ms", ms);
                     return Status::OK();
                   });
}

std::map<uint64_t, std::string> Server::GraphNamesByToken() {
  std::map<uint64_t, std::string> names;
  std::lock_guard<std::mutex> lock(catalog_mu_);
  for (const std::string& name : catalog_.GraphNames()) {
    Result<std::shared_ptr<const PropertyGraph>> g = catalog_.GetGraph(name);
    if (g.ok()) names[(*g)->identity_token()] = name;
  }
  return names;
}

Status Server::AppendSlowQueries(const std::string& graph, std::string* out) {
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
  const std::map<uint64_t, std::string> names = GraphNamesByToken();
  out->push_back('[');
  for (const obs::SlowQueryRecord& record : records) {
    if (out->back() != '[') out->push_back(',');
    out->push_back('{');
    IntField(out, "sequence", record.sequence);
    IntField(out, "graph_token", record.graph_token);
    StringField(out, "graph", NameOf(names, record.graph_token));
    StringField(out, "fingerprint", record.fingerprint);
    StringField(out, "tenant", record.tenant);
    StringField(out, "trace_id", record.trace_id);
    MsField(out, "total_ms", record.total_ms);
    IntField(out, "rows", record.rows);
    StringField(out, "explain", record.explain);
    out->push_back('}');
  }
  out->push_back(']');
  return Status::OK();
}

Status Server::AppendQueryStats(const std::string& graph,
                                const std::string& tenant, std::string* out) {
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
  const std::map<uint64_t, std::string> names = GraphNamesByToken();
  out->push_back('[');
  for (const obs::QueryStatEntry& e : entries) {
    if (out->back() != '[') out->push_back(',');
    out->push_back('{');
    StringField(out, "fingerprint", e.fingerprint);
    IntField(out, "graph_token", e.graph_token);
    StringField(out, "graph", NameOf(names, e.graph_token));
    StringField(out, "tenant", e.tenant);
    IntField(out, "calls", e.calls);
    IntField(out, "errors", e.errors);
    IntField(out, "truncations", e.truncations);
    IntField(out, "rows", e.rows);
    IntField(out, "seeds", e.seeds);
    IntField(out, "steps", e.steps);
    IntField(out, "cache_hits", e.cache_hits);
    IntField(out, "cache_misses", e.cache_misses);
    IntField(out, "batch_calls", e.batch_calls);
    MsField(out, "total_ms", e.total_ms);
    MsField(out, "mean_ms",
            e.calls > 0 ? e.total_ms / static_cast<double>(e.calls) : 0);
    MsField(out, "min_ms", e.min_ms);
    MsField(out, "max_ms", e.max_ms);
    MsField(out, "p50_ms",
            QuantileMsFromBuckets(e.latency_buckets, e.calls, 0.50));
    MsField(out, "p95_ms",
            QuantileMsFromBuckets(e.latency_buckets, e.calls, 0.95));
    IntField(out, "plan_hash", e.plans.empty() ? 0 : e.plans.back().plan_hash);
    BoolField(out, "plan_changed", e.plan_changed);
    IntField(out, "plan_changes", e.plan_changes);
    Key(out, "plans");
    out->push_back('[');
    for (const obs::PlanRecord& plan : e.plans) {
      if (out->back() != '[') out->push_back(',');
      out->push_back('{');
      IntField(out, "plan_hash", plan.plan_hash);
      IntField(out, "calls", plan.calls);
      MsField(out, "total_ms", plan.total_ms);
      MsField(out, "min_ms", plan.min_ms);
      MsField(out, "max_ms", plan.max_ms);
      IntField(out, "first_seen_us", plan.first_seen_us);
      IntField(out, "last_seen_us", plan.last_seen_us);
      out->push_back('}');
    }
    out->append("]}");
  }
  out->push_back(']');
  return Status::OK();
}

}  // namespace server
}  // namespace gpml
