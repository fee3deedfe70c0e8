#ifndef GPML_SERVER_SERVER_H_
#define GPML_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "eval/engine.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "server/json.h"
#include "server/session.h"

namespace gpml {
namespace server {

/// The most elements (nodes plus edges) a generator graph may have. Sizes
/// are checked against it before anything is built, so one load_graph
/// request cannot make the server build n^2 edges for a huge n.
inline constexpr int64_t kMaxGeneratedElements = 2'000'000;

/// A generator graph kind (graph/generator.h; docs/server.md lists the
/// kinds and their size fields). load_graph and gpml_server --load build
/// graphs through this one table.
struct GraphKind {
  const char* name;
  /// Builds the graph with the int sizes found in `sizes` (absent ones
  /// take the kind's defaults). A size below its generator's minimum, or
  /// sizes that come to more than kMaxGeneratedElements elements, are
  /// InvalidArgument, and nothing is built.
  Result<PropertyGraph> (*build)(const JsonValue& sizes);
};

/// The generator kind named `name`, or InvalidArgument listing the kinds.
Result<const GraphKind*> FindGraphKind(const std::string& name);

/// Server configuration. Engine options default to one thread per query —
/// the server's parallelism comes from running many connections' queries
/// at once, each on its own connection thread, not from sharding every
/// query across the whole box.
struct ServerOptions {
  ServerOptions() { engine.num_threads = 1; }

  /// Listen address. Defaults to loopback: this daemon has no auth layer,
  /// so binding wide is an explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (tests, benchmarks) — read the
  /// real one back with port().
  int port = 0;
  /// Queries (execute/open/fetch/debug_sleep) that run at once, each on
  /// the connection thread that read it; 0 means 1.
  size_t worker_threads = 4;
  /// Queries that may wait, in arrival order, for one of those run slots;
  /// a query arriving with this many waiting is refused with
  /// SERVER_SATURATED instead of queueing unboundedly. 0: a query runs if
  /// a slot is free and is refused otherwise.
  size_t max_queue = 64;
  /// Concurrent TCP connections; further accepts are turned away with an
  /// error line.
  size_t max_connections = 256;
  /// Sessions idle longer than this are reaped: statements and cursors
  /// dropped, subsequent requests answered with SESSION_EXPIRED.
  double idle_timeout_ms = 5 * 60 * 1000.0;
  /// Reaper wake-up period: idle sessions expire, and closed connections
  /// release their thread and fd, within one period.
  double reap_interval_ms = 250.0;
  /// Admission quota for tenants without an explicit SetQuota.
  TenantQuota default_quota;
  /// Base engine options for every execution; admission control tightens
  /// matcher.max_steps/max_matches per tenant (see AdmissionController).
  EngineOptions engine;
  /// Enables the debug_sleep op (deterministic saturation/concurrency
  /// tests). Never on in production mains.
  bool enable_debug_ops = false;
};

/// A multi-threaded TCP query server speaking the newline-delimited JSON
/// protocol of docs/server.md over per-connection sessions, plus plain
/// HTTP GET for the observability endpoints:
///
///   GET /metrics       -> RenderPrometheus(AggregateAllRegistries())
///   GET /slow_queries  -> slow-query captures as JSON (?graph=NAME
///                         filters by graph identity)
///   GET /query_stats   -> per-fingerprint workload statistics as JSON,
///                         sorted by total time (?graph= and ?tenant=
///                         filter; docs/observability.md has the schema)
///
/// Lifecycle: construct, AddGraph named graphs (or let clients load_graph
/// generator graphs), Start, serve, Stop. Stop is graceful: accepting
/// stops, in-flight executions drain to completion and their responses
/// are written, then the threads join.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a named graph served to every session. Thread-safe; usable
  /// before and after Start (load_graph goes through the same path).
  Status AddGraph(std::string name, PropertyGraph graph);

  /// Binds, listens, and spawns the accept and reaper threads (each
  /// connection then gets a thread of its own).
  Status Start();

  /// Graceful shutdown; safe to call more than once, also from the
  /// destructor. Blocks until every in-flight execution has completed and
  /// every thread has joined.
  void Stop();

  /// The port actually bound (== ServerOptions::port unless that was 0).
  int port() const { return port_; }

  /// Per-tenant quota installation and inspection (tests, mains).
  AdmissionController& admission() { return admission_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Per-connection protocol state lives on the connection thread's
  /// stack; this is the dispatcher's view of it.
  struct ConnState {
    std::shared_ptr<ServerSession> session;
    bool close_requested = false;
  };

  /// One request being answered (server.cc): the success body handlers
  /// append their fields to, and the reason that goes with a failure.
  struct Reply;
  using Handler = Status (Server::*)(ConnState*, const JsonValue&, Reply*);

  void AcceptLoop();
  void ReaperLoop();
  /// Joins every finished connection's thread and closes its fd (the
  /// accept loop and the reaper both call it); returns the live count.
  size_t SweepFinished();
  void HandleConnection(Connection* conn);
  /// Answers one HTTP GET (its headers already read) on `fd`.
  void HandleHttp(int fd, const std::string& request_line);

  /// Answers one NDJSON request line (returned without its newline). The
  /// one writer of the response envelope: a handler that succeeds has
  /// appended its fields to OkResponseHead, and Dispatch closes the
  /// object; a failed Status becomes ErrorResponse with the handler's
  /// reason and counts in errors_total.
  std::string Dispatch(ConnState* state, const std::string& line);
  /// Decodes `line` and runs its op's handler.
  Status Handle(ConnState* state, const std::string& line, Reply* reply);

  /// Opens the connection's session under `tenant` ("" = "default")
  /// unless it has one; TENANT_SESSIONS when the tenant is at its quota.
  Status OpenSession(ConnState* state, const std::string& tenant,
                     Reply* reply);

  /// The session prologue of a stateful op. An op named by `needs_hello`
  /// is refused without the session hello opens; a null `needs_hello`
  /// opens a "default" session when the connection has none. Then
  /// `in_flight` marks the request, or SESSION_EXPIRED refuses it when
  /// the reaper already expired the session.
  Status EnterSession(ConnState* state, const char* needs_hello,
                      SessionOp* in_flight, Reply* reply);

  /// Admits a query (AdmissionController::AdmitQuery, which may wait for
  /// a run slot) and runs `fn` on the calling connection thread under its
  /// QueryTicket; maps saturation and quota refusals to structured errors.
  /// Builds the request-level trace (root "request" with admission/queue/
  /// session child spans, emitted to the engine trace sink when one is
  /// configured) and, when `fn` succeeds, appends a "timing" object —
  /// admission_ms (the decision) / queue_ms (the wait for a run slot) /
  /// exec_ms (`fn`) — to the body. `trace_id` is the client-supplied
  /// correlation id ("" = none): echoed as a root-span attribute and
  /// threaded into the engine options so slow-query captures carry it.
  template <typename Fn>
  Status RunAdmitted(const std::string& tenant, const std::string& trace_id,
                   Reply* reply, Fn&& fn);

  /// The row writer execute and fetch share: streams up to `max_rows` rows
  /// of the handle's cursor straight into `out` as "rows" and
  /// "row_count", then "done" when `paged`, "truncated" and "hit_limit".
  /// The steps the cursor ran are charged even when it fails.
  Status WriteRows(const ServerSession& session, CursorHandle* handle,
                   size_t max_rows, bool paged, std::string* out);

  /// Charges the matcher steps the handle's cursor ran since the last
  /// charge against the tenant's admission budget, and mirrors them into
  /// its gpml_tenant_steps_total{tenant=...} counter.
  void ChargeSteps(const ServerSession& session, CursorHandle* handle);

  // Op handlers (NDJSON): each appends its fields to reply->body, or
  // returns the failure (and sets reply->reason when one applies).
  Status OpHello(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpPing(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpBye(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpListGraphs(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpLoadGraph(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpUseGraph(ConnState* state, const JsonValue& req, Reply* reply);
  /// prepare and explain: the query text compiled against the graph the
  /// session selected with use_graph.
  Status OpPrepare(ConnState* state, const JsonValue& req, Reply* reply);
  /// execute and open: the statement lookup and the `params`, `limit`
  /// (rejected when negative) and `trace_id` decode they share, then the
  /// cursor opened under RunAdmitted and drained or kept.
  Status OpStatement(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpFetch(ConnState* state, const JsonValue& req, Reply* reply);
  /// close_cursor and close_stmt.
  Status OpClose(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpMetrics(ConnState* state, const JsonValue& req, Reply* reply);
  /// slow_queries and query_stats.
  Status OpObservations(ConnState* state, const JsonValue& req,
                        Reply* reply);
  Status OpStats(ConnState* state, const JsonValue& req, Reply* reply);
  Status OpDebugSleep(ConnState* state, const JsonValue& req, Reply* reply);

  /// Appends the slow-query records as a JSON array ("" graph = all
  /// graphs).
  Status AppendSlowQueries(const std::string& graph, std::string* out);

  /// Appends the query-stats entries as a JSON array sorted by total
  /// time, descending ("" graph / "" tenant = no filter). Reads the store
  /// the executions record into (ServerOptions::engine.query_stats, or
  /// the process-wide store when that is null).
  Status AppendQueryStats(const std::string& graph, const std::string& tenant,
                          std::string* out);

  /// Served graph names by identity token, for the stats bodies.
  std::map<uint64_t, std::string> GraphNamesByToken();

  /// gpml_tenant_refusals_total{tenant=...,reason=...} in the server
  /// registry, which /metrics exports (AggregateAllRegistries) along with
  /// the tenant's steps counter and sessions gauge.
  obs::Counter* TenantRefusalsCounter(const std::string& tenant,
                                      const char* reason);

  /// Releases the session's admission slot exactly once (the
  /// admission_released latch) and decrements the tenant's active-sessions
  /// gauge with it. Both teardown paths — connection close and the idle
  /// reaper — funnel through here.
  void ReleaseSessionSlot(const std::shared_ptr<ServerSession>& session);

  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  mutable std::mutex catalog_mu_;
  Catalog catalog_;

  AdmissionController admission_;
  SessionRegistry registry_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mu_;

  std::thread accept_thread_;
  std::thread reaper_thread_;
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  // Server-level telemetry, registered process-wide so the /metrics
  // endpoint (AggregateAllRegistries) exports it alongside the per-graph
  // engine registries.
  obs::MetricsRegistry metrics_;
  obs::Counter* connections_total_;
  obs::Counter* requests_total_;
  obs::Counter* errors_total_;
  obs::Counter* rejected_saturated_total_;
  obs::Counter* rejected_quota_total_;
  obs::Counter* sessions_opened_total_;
  obs::Counter* sessions_reaped_total_;
  obs::Counter* queries_total_;
  obs::Histogram* query_duration_us_;
};

}  // namespace server
}  // namespace gpml

#endif  // GPML_SERVER_SERVER_H_
