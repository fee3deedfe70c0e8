// End-to-end tests of the network query server (server/server.h) through
// the client library (server/client.h) and raw sockets: protocol happy
// paths with byte-identity to the in-process engine, cursor paging,
// structured errors, the session lifecycle edge cases (idle reaping with
// an open cursor, double-close, quota exhaustion), admission control
// backpressure, the HTTP observability endpoints, and graceful shutdown.
//
// Every test runs its own server on an ephemeral loopback port, so tests
// are independent and parallel-safe. The concurrent smoke test at the end
// is the one the TSan CI job runs to race-check the whole stack.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "eval/engine.h"
#include "gql/json_export.h"
#include "graph/generator.h"
#include "obs/query_stats.h"
#include "obs/slow_query_log.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"
#include "server/session.h"

namespace gpml {
namespace server {
namespace {

constexpr int kAccounts = 60;
constexpr char kOwnerQuery[] =
    "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)";
constexpr char kAllTransfers[] =
    "MATCH (x:Account)-[t:Transfer]->(y:Account)";

PropertyGraph TestGraph() {
  FraudGraphOptions options;
  options.num_accounts = kAccounts;
  return MakeFraudGraph(options);
}

Params Owner(int i) {
  return Params{{"owner", Value::String("u" + std::to_string(i))}};
}

/// A started server with the fraud test graph loaded; Stop on scope exit.
struct TestServer {
  explicit TestServer(ServerOptions options = {}) : server(options) {
    EXPECT_TRUE(server.AddGraph("fraud", TestGraph()).ok());
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~TestServer() { server.Stop(); }
  int port() const { return server.port(); }
  Server server;
};

Client MustConnect(const TestServer& srv, const std::string& tenant = "") {
  Result<Client> client = Client::Connect("127.0.0.1", srv.port(), tenant);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(*client);
}

/// In-process oracle rows for one binding of kOwnerQuery (raw RowToJson
/// bytes — what the wire must carry verbatim).
std::vector<std::string> OracleRows(const PropertyGraph& g,
                                    const std::string& query,
                                    const Params& params) {
  Engine engine(g);
  Result<PreparedQuery> prepared = engine.Prepare(query);
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  Result<MatchOutput> out = prepared->Execute(params);
  EXPECT_TRUE(out.ok()) << out.status();
  std::vector<std::string> rows;
  for (const ResultRow& row : out->rows) {
    rows.push_back(RowToJson(*out, row, g));
  }
  return rows;
}

/// Blocking HTTP/1.1 GET against the server's port; returns the whole
/// response (status line, headers, body). The server closes after one
/// response, so read-until-EOF frames it.
std::string HttpGet(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// --- lifecycle and happy paths ---------------------------------------------

TEST(ServerTest, StartStopAndEphemeralPort) {
  Server srv;
  ASSERT_TRUE(srv.AddGraph("g", TestGraph()).ok());
  ASSERT_TRUE(srv.Start().ok());
  EXPECT_GT(srv.port(), 0);
  srv.Stop();
  srv.Stop();  // Idempotent.
}

TEST(ServerTest, HelloListLoadUse) {
  TestServer srv;
  Client client = MustConnect(srv, "alice");
  EXPECT_GE(client.hello().protocol, 1);
  EXPECT_GT(client.hello().session_id, 0u);
  EXPECT_EQ(client.hello().tenant, "alice");
  EXPECT_TRUE(client.Ping().ok());

  Result<std::vector<std::string>> graphs = client.ListGraphs();
  ASSERT_TRUE(graphs.ok());
  ASSERT_EQ(graphs->size(), 1u);
  EXPECT_EQ((*graphs)[0], "fraud");

  // load_graph materializes a generator graph; a second load of the same
  // name reports created=false instead of clobbering it.
  Result<bool> created = client.LoadGraph("c10", "chain", "\"n\":10");
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_TRUE(*created);
  created = client.LoadGraph("c10", "chain", "\"n\":10");
  ASSERT_TRUE(created.ok());
  EXPECT_FALSE(*created);

  EXPECT_TRUE(client.UseGraph("c10").ok());
  EXPECT_TRUE(client.UseGraph("fraud").ok());
  Status missing = client.UseGraph("nope");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Bye().ok());
}

TEST(ServerTest, ExecuteIsByteIdenticalToInProcessEngine) {
  PropertyGraph oracle_graph = TestGraph();
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kOwnerQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_EQ(prepared->params.size(), 1u);
  EXPECT_EQ(prepared->params[0], "owner");

  size_t nonempty = 0;
  for (int i = 0; i < kAccounts; ++i) {
    Result<ExecuteResult> got = client.Execute(prepared->stmt, Owner(i));
    ASSERT_TRUE(got.ok()) << got.status();
    std::vector<std::string> want =
        OracleRows(oracle_graph, kOwnerQuery, Owner(i));
    ASSERT_EQ(got->rows.size(), want.size()) << "owner u" << i;
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got->rows[r].raw, want[r]) << "owner u" << i << " row " << r;
    }
    nonempty += want.empty() ? 0 : 1;
  }
  EXPECT_GT(nonempty, 0u) << "workload must actually produce rows";
}

TEST(ServerTest, ExplainAndStats) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<std::string> plan = client.Explain(kAllTransfers);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->empty());

  Result<Client::RawResponse> stats = client.RoundTrip("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->parsed.Find("ok")->bool_v);
  ASSERT_NE(stats->parsed.Find("sessions"), nullptr);
  EXPECT_GE(stats->parsed.Find("sessions")->int_v, 1);
}

TEST(ServerTest, CursorPagingDrainsExactlyOnce) {
  PropertyGraph oracle_graph = TestGraph();
  std::vector<std::string> want = OracleRows(oracle_graph, kAllTransfers, {});
  ASSERT_GT(want.size(), 8u) << "need multiple pages";

  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());

  Result<int64_t> cursor = client.Open(prepared->stmt);
  ASSERT_TRUE(cursor.ok());
  std::vector<std::string> got;
  bool done = false;
  while (!done) {
    Result<ExecuteResult> page = client.Fetch(*cursor, 7);
    ASSERT_TRUE(page.ok()) << page.status();
    EXPECT_LE(page->rows.size(), 7u);
    for (const ClientRow& row : page->rows) got.push_back(row.raw);
    done = page->done;
    if (!done) EXPECT_EQ(page->rows.size(), 7u);
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  EXPECT_TRUE(client.CloseCursor(*cursor).ok());
}

TEST(ServerTest, OpenWithLimitReportsHitLimit) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  Result<int64_t> cursor = client.Open(prepared->stmt, {}, 5);
  ASSERT_TRUE(cursor.ok());
  size_t total = 0;
  bool hit_limit = false;
  for (bool done = false; !done;) {
    Result<ExecuteResult> page = client.Fetch(*cursor, 3);
    ASSERT_TRUE(page.ok());
    total += page->rows.size();
    done = page->done;
    hit_limit = hit_limit || page->hit_limit;
  }
  EXPECT_EQ(total, 5u);
  EXPECT_TRUE(hit_limit);
}

// --- structured errors -----------------------------------------------------

TEST(ServerTest, ErrorsCarryStableCodes) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());

  Result<Client::PreparedInfo> bad = client.Prepare("MATCH (((");
  EXPECT_EQ(bad.status().code(), StatusCode::kSyntaxError);

  Result<ExecuteResult> ghost = client.Execute(12345);
  EXPECT_EQ(ghost.status().code(), StatusCode::kNotFound);

  // Missing a $param the statement requires.
  Result<Client::PreparedInfo> prepared = client.Prepare(kOwnerQuery);
  ASSERT_TRUE(prepared.ok());
  Result<ExecuteResult> unbound = client.Execute(prepared->stmt);
  EXPECT_FALSE(unbound.ok());

  // The connection survives every one of those errors.
  EXPECT_TRUE(client.Ping().ok());
}

// Query text is parsed on the server: a request nested far past the
// parser's cap (about 1 MiB of brackets) gets a structured syntax error,
// and the connection keeps serving.
TEST(ServerTest, DeeplyNestedQueryIsSyntaxErrorAndConnectionSurvives) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  const size_t depth = (1u << 20) / 2;
  const std::string nested = "MATCH (x WHERE " + std::string(depth, '(') +
                             "x.a = 1" + std::string(depth, ')') + ")";
  Result<Client::PreparedInfo> refused = client.Prepare(nested);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kSyntaxError)
      << refused.status();
  EXPECT_NE(refused.status().message().find("nesting deeper than"),
            std::string::npos)
      << refused.status();

  EXPECT_TRUE(client.Ping().ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kOwnerQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result<ExecuteResult> rows = client.Execute(prepared->stmt, Owner(3));
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), OracleRows(TestGraph(), kOwnerQuery, Owner(3))
                                   .size());
}

// Out-of-range numeric literals and bounded quantifiers too large to
// compile get structured errors, and the connection keeps serving.
TEST(ServerTest, OversizedLiteralAndQuantifierRefusedConnectionSurvives) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  for (const char* text : {"MATCH (x WHERE x.w > 99999999999999999999)",
                           "MATCH (x)-[]->{99999999999999999999}(y)"}) {
    Result<Client::PreparedInfo> refused = client.Prepare(text);
    ASSERT_FALSE(refused.ok()) << text;
    EXPECT_EQ(refused.status().code(), StatusCode::kSyntaxError)
        << refused.status();
    EXPECT_NE(refused.status().message().find("offset="), std::string::npos)
        << refused.status();
    EXPECT_TRUE(client.Ping().ok());
  }
  Result<Client::PreparedInfo> huge =
      client.Prepare("MATCH (x)-[]->{10000000}(y)");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted)
      << huge.status();
  EXPECT_NE(huge.status().message().find("offset=14"), std::string::npos)
      << huge.status();

  EXPECT_TRUE(client.Ping().ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kOwnerQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result<ExecuteResult> rows = client.Execute(prepared->stmt, Owner(3));
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), OracleRows(TestGraph(), kOwnerQuery, Owner(3))
                                   .size());
}

// execute and open decode `limit` the same way: a negative one is a bad
// request for both, never an unbounded stream.
TEST(ServerTest, NegativeLimitIsBadRequestForExecuteAndOpen) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  const std::string stmt = std::to_string(prepared->stmt);
  for (const char* op : {"execute", "open"}) {
    Result<Client::RawResponse> response = client.RoundTrip(
        std::string("{\"op\":\"") + op + "\",\"stmt\":" + stmt +
        ",\"limit\":-1}");
    ASSERT_TRUE(response.ok()) << op;
    EXPECT_FALSE(response->parsed.Find("ok")->bool_v) << op;
    const JsonValue* error = response->parsed.Find("error");
    ASSERT_NE(error, nullptr) << op;
    EXPECT_EQ(error->Find("reason")->string_v, "BAD_REQUEST") << op;
  }
  EXPECT_TRUE(client.Ping().ok());
}

// Satellite edge case: double-closing a statement (and a cursor) is a
// structured NOT_FOUND on the second close, never a disconnect.
TEST(ServerTest, DoubleCloseIsStructuredNotFound) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  Result<int64_t> cursor = client.Open(prepared->stmt);
  ASSERT_TRUE(cursor.ok());

  EXPECT_TRUE(client.CloseCursor(*cursor).ok());
  Status again = client.CloseCursor(*cursor);
  EXPECT_EQ(again.code(), StatusCode::kNotFound);

  EXPECT_TRUE(client.CloseStatement(prepared->stmt).ok());
  again = client.CloseStatement(prepared->stmt);
  EXPECT_EQ(again.code(), StatusCode::kNotFound);

  // Closing the statement invalidated nothing else: session still works.
  EXPECT_TRUE(client.Ping().ok());
  Result<Client::PreparedInfo> fresh = client.Prepare(kAllTransfers);
  EXPECT_TRUE(fresh.ok());
}

TEST(ServerTest, MalformedRequestsGetBadRequestAndConnectionSurvives) {
  TestServer srv;
  Client client = MustConnect(srv);

  Result<Client::RawResponse> bad_json = client.RoundTrip("{not json");
  ASSERT_TRUE(bad_json.ok()) << "transport must survive";
  EXPECT_FALSE(bad_json->parsed.Find("ok")->bool_v);

  Result<Client::RawResponse> bad_op =
      client.RoundTrip("{\"op\":\"warp_drive\"}");
  ASSERT_TRUE(bad_op.ok());
  EXPECT_FALSE(bad_op->parsed.Find("ok")->bool_v);
  EXPECT_EQ(bad_op->parsed.Find("error")->Find("reason")->string_v,
            "BAD_REQUEST");

  Result<Client::RawResponse> no_op = client.RoundTrip("{\"id\":1}");
  ASSERT_TRUE(no_op.ok());
  EXPECT_FALSE(no_op->parsed.Find("ok")->bool_v);

  EXPECT_TRUE(client.Ping().ok());
}

// --- session lifecycle edge cases (satellite 4) ----------------------------

ServerOptions FastReapOptions() {
  ServerOptions options;
  options.idle_timeout_ms = 60;
  options.reap_interval_ms = 10;
  return options;
}

// A session idle past the timeout is expired in place — its open cursor
// is dropped, the next request gets SESSION_EXPIRED (a structured error,
// not a disconnect), and a fresh hello on the same connection recovers.
TEST(ServerTest, IdleReapExpiresOpenCursorAndHelloRecovers) {
  TestServer srv(FastReapOptions());
  Client client = MustConnect(srv, "sleepy");
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  Result<int64_t> cursor = client.Open(prepared->stmt);
  ASSERT_TRUE(cursor.ok());
  Result<ExecuteResult> first = client.Fetch(*cursor, 4);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->rows.empty());

  // Let the reaper find the idle session (with its cursor still open).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Result<ExecuteResult> after = client.Fetch(*cursor, 4);
  ASSERT_FALSE(after.ok()) << "expired session must not serve cursors";
  EXPECT_EQ(client.last_reason(), "SESSION_EXPIRED");

  // Still connected: a new hello re-admits and the session works again.
  Result<Client::RawResponse> rehello =
      client.RoundTrip("{\"op\":\"hello\",\"tenant\":\"sleepy\"}");
  ASSERT_TRUE(rehello.ok());
  EXPECT_TRUE(rehello->parsed.Find("ok")->bool_v);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> again = client.Prepare(kAllTransfers);
  ASSERT_TRUE(again.ok());
  Result<ExecuteResult> rows = client.Execute(again->stmt);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows->rows.empty());
}

// An in-flight request fences its session from the reaper: a fetch that
// takes longer than the idle timeout must not have the cursor destroyed
// under it. debug_sleep stands in for a slow execution.
// The reaper samples the clock before it locks each session, so a request
// finishing in between leaves the session's clock ahead of `now_us`. That
// session is busy, not idle: the unsigned difference must not wrap into an
// enormous idle time and reap it.
TEST(SessionRegistryTest, ClockAheadOfNowIsNotIdle) {
  SessionRegistry registry;
  obs::Counter steps;
  std::shared_ptr<ServerSession> session = registry.Create("busy", &steps);
  const uint64_t now_us = 1'000'000'000;
  const uint64_t idle_us = 1'000;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->last_active_us = now_us + 1;
  }
  EXPECT_TRUE(registry.ReapIdle(now_us, idle_us).empty());
  EXPECT_FALSE(session->expired);

  // Control: a clock exactly one timeout behind is reaped.
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->last_active_us = now_us - idle_us;
  }
  EXPECT_EQ(registry.ReapIdle(now_us, idle_us).size(), 1u);
  EXPECT_TRUE(session->expired);
}

TEST(ServerTest, InFlightRequestIsNeverReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 150;
  options.reap_interval_ms = 10;
  options.enable_debug_ops = true;
  TestServer srv(options);
  Client client = MustConnect(srv);
  // Sleeps 4x the idle timeout on the worker pool while holding the
  // session in flight; must come back OK, and the session must still be
  // usable immediately after.
  EXPECT_TRUE(client.DebugSleep(600).ok());
  EXPECT_TRUE(client.UseGraph("fraud").ok());
}

// Satellite edge case: a tenant at max_sessions gets a structured
// RESOURCE_EXHAUSTED with reason TENANT_SESSIONS — and a slot freed by
// closing the first connection admits the next.
TEST(ServerTest, SessionQuotaIsStructuredError) {
  ServerOptions options;
  options.default_quota.max_sessions = 1;
  TestServer srv(options);

  Result<Client> first = Client::Connect("127.0.0.1", srv.port(), "tight");
  ASSERT_TRUE(first.ok());

  Result<Client> second = Client::Connect("127.0.0.1", srv.port(), "tight");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("TENANT_SESSIONS"),
            std::string::npos);

  first->Bye();
  first->Close();
  // The slot comes back (poll briefly: teardown is asynchronous).
  bool admitted = false;
  for (int i = 0; i < 100 && !admitted; ++i) {
    Result<Client> retry = Client::Connect("127.0.0.1", srv.port(), "tight");
    admitted = retry.ok();
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted) << "closing the first session must free its slot";
}

// A tenant at max_concurrent has further queries refused with
// TENANT_CONCURRENCY while one is still running.
TEST(ServerTest, ConcurrencyQuotaRefusesSecondQuery) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.default_quota.max_concurrent = 1;
  TestServer srv(options);

  Client sleeper = MustConnect(srv, "busy");
  Client prober = MustConnect(srv, "busy");
  ASSERT_TRUE(prober.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = prober.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());

  std::thread holder([&sleeper] { sleeper.DebugSleep(2000); });
  // Wait until the server reports the sleeper's query in flight (stats is
  // scoped to the caller's tenant, which both clients share).
  bool in_flight = false;
  for (int i = 0; i < 200 && !in_flight; ++i) {
    Result<Client::RawResponse> stats =
        prober.RoundTrip("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.ok());
    const JsonValue* tenant = stats->parsed.Find("tenant");
    in_flight =
        tenant != nullptr && tenant->Find("in_flight")->int_v >= 1;
    if (!in_flight) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(in_flight) << "sleeper never showed up in flight";

  Result<ExecuteResult> refused = prober.Execute(prepared->stmt);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(prober.last_reason(), "TENANT_CONCURRENCY");
  holder.join();

  // With the slot free again, the same statement executes fine.
  Result<ExecuteResult> ok = prober.Execute(prepared->stmt);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// A tenant that spent its cumulative step budget is refused with
// TENANT_STEP_BUDGET — the quota -> SharedBudget mapping's terminal state.
TEST(ServerTest, StepBudgetExhaustionIsStructuredError) {
  ServerOptions options;
  options.default_quota.max_total_steps = 200;
  TestServer srv(options);
  Client client = MustConnect(srv, "meter");
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());

  // Each admitted execution charges real steps against the cumulative
  // budget (the last admitted one may itself die mid-query when ApplyQuota
  // tightens its per-query cap to the dwindling remainder — that is the
  // in-query flavor, reason-less). Eventually admission itself refuses
  // with the structured TENANT_STEP_BUDGET.
  bool budget_refused = false;
  for (int i = 0; i < 50 && !budget_refused; ++i) {
    Result<ExecuteResult> result = client.Execute(prepared->stmt);
    if (!result.ok() && client.last_reason() == "TENANT_STEP_BUDGET") {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      budget_refused = true;
    }
  }
  EXPECT_TRUE(budget_refused) << "cumulative budget never tripped";

  // Statement-less ops still work: the session is alive, only query
  // admission is refused.
  EXPECT_TRUE(client.Ping().ok());
}

// --- backpressure ----------------------------------------------------------

// With one worker and a one-slot queue, a third simultaneous query (one
// running, one queued) bounces with SERVER_SATURATED instead of queueing
// unboundedly.
TEST(ServerTest, SaturatedPoolRejectsWithStructuredError) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.worker_threads = 1;
  options.max_queue = 1;
  TestServer srv(options);

  Client running = MustConnect(srv, "hog1");
  Client queued = MustConnect(srv, "hog2");
  Client prober = MustConnect(srv, "victim");
  ASSERT_TRUE(prober.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = prober.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());

  // Stagger the sleepers: the second submit only lands in the queue once
  // the first has been dequeued by the worker (Submit rejects whenever the
  // queue itself is full, even if a worker is about to drain it).
  std::thread holder1([&running] { running.DebugSleep(1500); });
  bool active = false;
  for (int i = 0; i < 400 && !active; ++i) {
    Result<Client::RawResponse> stats =
        prober.RoundTrip("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.ok());
    active = stats->parsed.Find("active")->int_v >= 1;
    if (!active) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(active) << "first sleeper never occupied the worker";

  std::thread holder2([&queued] { queued.DebugSleep(1500); });
  bool full = false;
  for (int i = 0; i < 400 && !full; ++i) {
    Result<Client::RawResponse> stats =
        prober.RoundTrip("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.ok());
    full = stats->parsed.Find("active")->int_v >= 1 &&
           stats->parsed.Find("queue_depth")->int_v >= 1;
    if (!full) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(full) << "second sleeper never landed in the queue";

  Result<ExecuteResult> refused = prober.Execute(prepared->stmt);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(prober.last_reason(), "SERVER_SATURATED");
  holder1.join();
  holder2.join();

  Result<ExecuteResult> ok = prober.Execute(prepared->stmt);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// --- observability endpoints -----------------------------------------------

TEST(ServerTest, HttpMetricsEndpointServesPrometheusAggregate) {
  TestServer srv;
  // Generate some traffic so the counters are non-zero.
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(client.Execute(prepared->stmt).ok());

  std::string response = HttpGet(srv.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("gpml_server_requests_total"), std::string::npos);
  EXPECT_NE(response.find("gpml_server_queries_total"), std::string::npos);
  EXPECT_NE(response.find("gpml_server_connections_total"),
            std::string::npos);

  // The in-band metrics op serves the same rendering.
  Result<std::string> text = client.Metrics();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("gpml_server_queries_total"), std::string::npos);

  EXPECT_NE(HttpGet(srv.port(), "/teapot").find("404"), std::string::npos);
}

TEST(ServerTest, SlowQueryEndpointCapturesAndFiltersByGraph) {
  obs::SlowQueryLog log;
  ServerOptions options;
  options.engine.slow_query_ms = 0;  // Capture everything.
  options.engine.slow_log = &log;
  TestServer srv(options);
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(client.Execute(prepared->stmt).ok());

  // In-band op, filtered to the graph we queried.
  Result<std::string> records = client.SlowQueries("fraud");
  ASSERT_TRUE(records.ok()) << records.status();
  Result<JsonValue> parsed = ParseJson(*records);
  ASSERT_TRUE(parsed.ok()) << *records;
  ASSERT_TRUE(parsed->is_array());
  EXPECT_FALSE(parsed->array_v.empty());
  EXPECT_EQ(parsed->array_v[0].Find("graph")->string_v, "fraud");

  // A graph that never ran anything has no records.
  ASSERT_TRUE(client.LoadGraph("idle", "chain", "\"n\":4").ok());
  Result<std::string> idle = client.SlowQueries("idle");
  ASSERT_TRUE(idle.ok());
  Result<JsonValue> idle_parsed = ParseJson(*idle);
  ASSERT_TRUE(idle_parsed.ok());
  EXPECT_TRUE(idle_parsed->array_v.empty());

  // Raw HTTP flavor of the same endpoint.
  std::string response = HttpGet(srv.port(), "/slow_queries?graph=fraud");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"fingerprint\""), std::string::npos);
}

TEST(ServerTest, QueryStatsOpAndHttpEndpointFilterAndSort) {
  obs::QueryStatsStore store;
  ServerOptions options;
  options.engine.query_stats = &store;  // Hermetic: no global-store bleed.
  TestServer srv(options);
  Client client = MustConnect(srv, "acme");
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> all = client.Prepare(kAllTransfers);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(client.Execute(all->stmt).ok());
  ASSERT_TRUE(client.Execute(all->stmt).ok());
  Result<Client::PreparedInfo> owner = client.Prepare(kOwnerQuery);
  ASSERT_TRUE(owner.ok());
  ASSERT_TRUE(client.Execute(owner->stmt, Owner(1)).ok());

  // In-band op, filtered to the graph we queried.
  Result<std::string> stats = client.QueryStats("fraud");
  ASSERT_TRUE(stats.ok()) << stats.status();
  Result<JsonValue> parsed = ParseJson(*stats);
  ASSERT_TRUE(parsed.ok()) << *stats;
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array_v.size(), 2u);
  // Sorted by total time descending.
  EXPECT_GE(parsed->array_v[0].Find("total_ms")->AsDouble(),
            parsed->array_v[1].Find("total_ms")->AsDouble());
  for (const JsonValue& entry : parsed->array_v) {
    EXPECT_EQ(entry.Find("graph")->string_v, "fraud");
    EXPECT_EQ(entry.Find("tenant")->string_v, "acme");
    EXPECT_NE(entry.Find("plan_hash")->AsDouble(), 0);
    bool is_owner = entry.Find("fingerprint")->string_v.find("owner") !=
                    std::string::npos;
    EXPECT_EQ(entry.Find("calls")->AsDouble(), is_owner ? 1 : 2);
  }

  // Tenant filter: a tenant that never ran anything has no entries.
  Result<std::string> mine = client.QueryStats("", "acme");
  ASSERT_TRUE(mine.ok());
  Result<JsonValue> mine_parsed = ParseJson(*mine);
  ASSERT_TRUE(mine_parsed.ok());
  EXPECT_EQ(mine_parsed->array_v.size(), 2u);
  Result<std::string> nobody = client.QueryStats("", "nobody");
  ASSERT_TRUE(nobody.ok());
  Result<JsonValue> nobody_parsed = ParseJson(*nobody);
  ASSERT_TRUE(nobody_parsed.ok());
  EXPECT_TRUE(nobody_parsed->array_v.empty());

  // An unknown graph is a structured error, not an empty list.
  EXPECT_FALSE(client.QueryStats("missing").ok());

  // Raw HTTP flavor of the same endpoint.
  std::string response = HttpGet(srv.port(), "/query_stats?graph=fraud");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"plan_hash\""), std::string::npos);
  EXPECT_NE(response.find("\"p95_ms\""), std::string::npos);
  EXPECT_NE(HttpGet(srv.port(), "/query_stats?graph=missing").find("404"),
            std::string::npos);
}

// The timing object must account for queue wait from enqueue (not worker
// pickup): saturate the single worker, then check the queued request's
// queue_ms + exec_ms against its client-observed wall time.
TEST(ServerTest, TimingSeparatesQueueWaitFromExecution) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.worker_threads = 1;
  TestServer srv(options);
  Client holder = MustConnect(srv);
  Client prober = MustConnect(srv);

  std::thread occupy([&holder] { holder.DebugSleep(600); });
  // Let the holder's sleep reach the lone worker before probing.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto start = std::chrono::steady_clock::now();
  Result<Client::RawResponse> response =
      prober.RoundTrip("{\"op\":\"debug_sleep\",\"ms\":200}");
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  occupy.join();
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->parsed.Find("ok")->bool_v) << response->raw;
  const JsonValue* timing = response->parsed.Find("timing");
  ASSERT_NE(timing, nullptr) << response->raw;
  double queue_ms = timing->Find("queue_ms")->AsDouble();
  double exec_ms = timing->Find("exec_ms")->AsDouble();
  // The probe sat behind ~450ms of the holder's sleep, then slept 200ms
  // itself. Wide margins: CI boxes stall, but the invariants hold.
  EXPECT_GE(queue_ms, 100.0) << response->raw;
  EXPECT_GE(exec_ms, 180.0) << response->raw;
  EXPECT_LE(queue_ms + exec_ms, wall_ms + 1.0)
      << "timing cannot exceed the client-observed wall time";
  EXPECT_GE(queue_ms + exec_ms, wall_ms - 150.0)
      << "queue + exec should account for nearly all of the wall time";
}

TEST(ServerTest, SlowQueryRecordsCarryTenantAndTraceId) {
  obs::SlowQueryLog log;
  ServerOptions options;
  options.engine.slow_query_ms = 0;  // Capture everything.
  options.engine.slow_log = &log;
  TestServer srv(options);
  Client client = MustConnect(srv, "acme");
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  Result<Client::RawResponse> executed = client.RoundTrip(
      "{\"op\":\"execute\",\"stmt\":" + std::to_string(prepared->stmt) +
      ",\"trace_id\":\"req-42\"}");
  ASSERT_TRUE(executed.ok());
  ASSERT_TRUE(executed->parsed.Find("ok")->bool_v) << executed->raw;

  Result<std::string> records = client.SlowQueries("fraud");
  ASSERT_TRUE(records.ok()) << records.status();
  Result<JsonValue> parsed = ParseJson(*records);
  ASSERT_TRUE(parsed.ok()) << *records;
  ASSERT_FALSE(parsed->array_v.empty());
  const JsonValue& record = parsed->array_v[0];
  EXPECT_EQ(record.Find("tenant")->string_v, "acme");
  EXPECT_EQ(record.Find("trace_id")->string_v, "req-42");
}

TEST(ServerTest, PerTenantMetricFamiliesAreExported) {
  ServerOptions options;
  options.default_quota.max_sessions = 1;
  TestServer srv(options);
  Client acme = MustConnect(srv, "acme");
  ASSERT_TRUE(acme.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = acme.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(acme.Execute(prepared->stmt).ok());
  // A second acme connection trips the session quota -> refusal counter.
  EXPECT_FALSE(Client::Connect("127.0.0.1", srv.port(), "acme").ok());

  Result<std::string> text = acme.Metrics();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("# TYPE gpml_tenant_steps_total counter"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("gpml_tenant_steps_total{tenant=\"acme\"} "),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("gpml_tenant_active_sessions{tenant=\"acme\"} 1"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("gpml_tenant_refusals_total{tenant=\"acme\","
                       "reason=\"TENANT_SESSIONS\"} 1"),
            std::string::npos)
      << *text;
  // Steps were actually charged, not just registered at zero.
  size_t pos = text->find("gpml_tenant_steps_total{tenant=\"acme\"} ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE((*text)[pos + std::string(
                              "gpml_tenant_steps_total{tenant=\"acme\"} ")
                              .size()],
            '0')
      << *text;
}

// --- shutdown and concurrency ----------------------------------------------

TEST(ServerTest, GracefulStopDrainsWithOpenCursor) {
  TestServer srv;
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  Result<int64_t> cursor = client.Open(prepared->stmt);
  ASSERT_TRUE(cursor.ok());
  Result<ExecuteResult> page = client.Fetch(*cursor, 4);
  ASSERT_TRUE(page.ok());

  srv.server.Stop();  // Must not hang on the open connection.

  Result<ExecuteResult> after = client.Fetch(*cursor, 4);
  EXPECT_FALSE(after.ok()) << "stopped server must not serve fetches";
}

// The TSan target: several clients hammering one server concurrently,
// with every response checked against the in-process oracle.
TEST(ServerTest, ConcurrentClientsStayByteIdentical) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  PropertyGraph oracle_graph = TestGraph();
  std::vector<std::vector<std::string>> expected;
  expected.reserve(kAccounts);
  for (int i = 0; i < kAccounts; ++i) {
    expected.push_back(OracleRows(oracle_graph, kOwnerQuery, Owner(i)));
  }

  TestServer srv;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &srv, &expected, &failures] {
      Result<Client> client =
          Client::Connect("127.0.0.1", srv.port(), "smoke");
      if (!client.ok() || !client->UseGraph("fraud").ok()) {
        failures[t] = kPerThread;
        return;
      }
      Result<Client::PreparedInfo> prepared = client->Prepare(kOwnerQuery);
      if (!prepared.ok()) {
        failures[t] = kPerThread;
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        int owner = (t * kPerThread + i) % kAccounts;
        Result<ExecuteResult> got =
            client->Execute(prepared->stmt, Owner(owner));
        if (!got.ok() || got->rows.size() != expected[owner].size()) {
          ++failures[t];
          continue;
        }
        for (size_t r = 0; r < expected[owner].size(); ++r) {
          if (got->rows[r].raw != expected[owner][r]) {
            ++failures[t];
            break;
          }
        }
      }
      client->Bye();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "client thread " << t;
  }
}

}  // namespace
}  // namespace server
}  // namespace gpml
