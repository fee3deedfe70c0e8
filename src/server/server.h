#ifndef GPML_SERVER_SERVER_H_
#define GPML_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
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
#include "server/worker_pool.h"

namespace gpml {
namespace server {

/// Server configuration. Engine options default to one worker thread per
/// query — the server's parallelism comes from running many tenants'
/// queries concurrently on the worker pool, not from sharding every query
/// across the whole box.
struct ServerOptions {
  ServerOptions() { engine.num_threads = 1; }

  /// Listen address. Defaults to loopback: this daemon has no auth layer,
  /// so binding wide is an explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (tests, benchmarks) — read the
  /// real one back with port().
  int port = 0;
  /// Worker threads executing queries (execute/open/fetch run here).
  size_t worker_threads = 4;
  /// Bounded worker-pool queue; a request arriving with the queue full is
  /// rejected with SERVER_SATURATED instead of queueing unboundedly.
  size_t max_queue = 64;
  /// Concurrent TCP connections; further accepts are turned away with an
  /// error line.
  size_t max_connections = 256;
  /// Sessions idle longer than this are reaped: statements and cursors
  /// dropped, subsequent requests answered with SESSION_EXPIRED.
  double idle_timeout_ms = 5 * 60 * 1000.0;
  /// Reaper wake-up period.
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

  /// Binds, listens, and spawns the accept/reaper/worker threads.
  Status Start();

  /// Graceful shutdown; safe to call more than once, also from the
  /// destructor. Blocks until every in-flight execution has completed and
  /// every thread has joined.
  void Stop();

  /// The port actually bound (== options().port unless that was 0).
  int port() const { return port_; }
  const ServerOptions& options() const { return options_; }

  /// Per-tenant quota installation and inspection (tests, mains).
  AdmissionController& admission() { return admission_; }
  /// Live session table (tests assert on reaping).
  SessionRegistry& sessions() { return registry_; }

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

  void AcceptLoop();
  void ReaperLoop();
  void HandleConnection(Connection* conn);
  void HandleHttp(int fd, const std::string& request_line,
                  std::string* buffered, size_t* buffer_pos);

  /// Dispatches one NDJSON request line to its handler; returns the
  /// response line (without trailing newline).
  std::string Dispatch(ConnState* state, const std::string& line);

  /// Ensures the connection has a session (creating one under `tenant`
  /// admission); empty tenant means "default".
  Status EnsureSession(ConnState* state, const std::string& tenant);

  /// Runs `fn` on the worker pool under a tenant query ticket, blocking
  /// until it finishes; maps saturation and quota refusals to structured
  /// errors. Builds the request-level trace (root "request" with
  /// admission/queue/session child spans, emitted to the engine trace
  /// sink when one is configured) and injects a "timing" object —
  /// admission_ms / queue_ms / exec_ms — into successful responses.
  /// `trace_id` is the client-supplied correlation id ("" = none): echoed
  /// as a root-span attribute and threaded into the engine options so
  /// slow-query captures carry it.
  std::string RunPooled(const char* op, const std::string& tenant,
                        const std::string& trace_id, const std::string& id_raw,
                        const std::function<std::string()>& fn);

  /// What execute and open share: the session check, the statement
  /// lookup, and the `params`, `limit` (rejected when negative) and
  /// `trace_id` decode. Returns the error response for a malformed or
  /// unresolvable request; otherwise runs `run` on the worker pool through
  /// RunPooled and returns its response.
  struct StatementCall;
  std::string RunStatement(
      const char* op, ConnState* state, const JsonValue& req,
      const std::string& id_raw,
      const std::function<std::string(const StatementCall&)>& run);

  // Op handlers (NDJSON). All return a full response line.
  std::string OpHello(ConnState* state, const JsonValue& req,
                      const std::string& id_raw);
  std::string OpListGraphs(const std::string& id_raw);
  std::string OpLoadGraph(const JsonValue& req, const std::string& id_raw);
  std::string OpUseGraph(ConnState* state, const JsonValue& req,
                         const std::string& id_raw);
  std::string OpPrepare(ConnState* state, const JsonValue& req,
                        const std::string& id_raw);
  std::string OpExplain(ConnState* state, const JsonValue& req,
                        const std::string& id_raw);
  std::string OpExecute(ConnState* state, const JsonValue& req,
                        const std::string& id_raw);
  std::string OpOpen(ConnState* state, const JsonValue& req,
                     const std::string& id_raw);
  std::string OpFetch(ConnState* state, const JsonValue& req,
                      const std::string& id_raw);
  std::string OpCloseCursor(ConnState* state, const JsonValue& req,
                            const std::string& id_raw);
  std::string OpCloseStatement(ConnState* state, const JsonValue& req,
                               const std::string& id_raw);
  std::string OpMetrics(const std::string& id_raw);
  std::string OpSlowQueries(const JsonValue& req, const std::string& id_raw);
  std::string OpQueryStats(const JsonValue& req, const std::string& id_raw);
  std::string OpStats(ConnState* state, const std::string& id_raw);
  std::string OpDebugSleep(ConnState* state, const JsonValue& req,
                           const std::string& id_raw);

  /// Slow-query records as a JSON array ("" graph = all graphs).
  Result<std::string> SlowQueriesJson(const std::string& graph);

  /// Query-stats entries as a JSON array sorted by total time, descending
  /// ("" graph / "" tenant = no filter). Reads the store the executions
  /// record into (ServerOptions::engine.query_stats, or the process-wide
  /// store when that is null).
  Result<std::string> QueryStatsJson(const std::string& graph,
                                     const std::string& tenant);

  /// Engine options for one execution of `tenant`: base options with the
  /// tenant's quota mapped onto the matcher budget, `metrics` attached,
  /// and the tenant / client trace_id stamped for slow-query captures and
  /// query-stats attribution.
  EngineOptions ExecutionOptions(const std::string& tenant,
                                 EngineMetrics* metrics,
                                 const std::string& trace_id) const;

  // Per-tenant metric families, registered in the server registry with
  // the tenant (and refusal reason) spliced into the series name as
  // Prometheus labels — AggregateAllRegistries exports them via /metrics.
  obs::Counter* TenantStepsCounter(const std::string& tenant);
  obs::Counter* TenantRefusalsCounter(const std::string& tenant,
                                      const char* reason);
  obs::Gauge* TenantSessionsGauge(const std::string& tenant);

  /// Charges `steps` against the session tenant's admission budget and
  /// mirrors them into its gpml_tenant_steps_total{tenant=...} counter.
  void ChargeTenantSteps(const ServerSession& session, uint64_t steps);

  /// Releases the session's admission slot exactly once (the
  /// admission_released latch) and decrements the tenant's active-sessions
  /// gauge with it. Both teardown paths — connection close and the idle
  /// reaper — funnel through here. Returns whether this call released.
  bool ReleaseSessionSlot(const std::shared_ptr<ServerSession>& session);

  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  mutable std::mutex catalog_mu_;
  Catalog catalog_;

  AdmissionController admission_;
  SessionRegistry registry_;
  std::unique_ptr<WorkerPool> pool_;

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
