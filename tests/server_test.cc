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
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/engine.h"
#include "gql/json_export.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
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

/// A blocking TCP connection to the server's loopback port.
int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Blocking HTTP/1.1 GET against the server's port; returns the whole
/// response (status line, headers, body). The server closes after one
/// response, so read-until-EOF frames it.
std::string HttpGet(int port, const std::string& target) {
  int fd = ConnectLoopback(port);
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

// Doubles reach the client as doubles: integral ones keep a ".0", finite
// ones parse back to the same value, and NaN and the infinities (which
// JSON cannot spell) arrive as null instead of breaking the response.
TEST(ServerTest, DoublePropertiesRoundTripAndNonFiniteArriveAsNull) {
  GraphBuilder b;
  b.AddNode("d", {"D"},
            {{"three", Value::Double(3.0)},
             {"tenth", Value::Double(0.1)},
             {"huge", Value::Double(1e300)},
             {"nan", Value::Double(std::numeric_limits<double>::quiet_NaN())},
             {"inf", Value::Double(std::numeric_limits<double>::infinity())}});
  Result<PropertyGraph> graph = std::move(b).Build();
  ASSERT_TRUE(graph.ok()) << graph.status();
  TestServer srv;
  ASSERT_TRUE(srv.server.AddGraph("doubles", std::move(*graph)).ok());
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("doubles").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare("MATCH (x:D)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result<ExecuteResult> got = client.Execute(prepared->stmt, {});
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->rows.size(), 1u);
  const JsonValue* x = got->rows[0].parsed.Find("x");
  ASSERT_NE(x, nullptr);
  const JsonValue* props = x->Find("properties");
  ASSERT_NE(props, nullptr);
  const JsonValue* three = props->Find("three");
  ASSERT_NE(three, nullptr);
  EXPECT_TRUE(three->is_double()) << got->rows[0].raw;
  EXPECT_EQ(three->double_v, 3.0);
  const JsonValue* tenth = props->Find("tenth");
  ASSERT_NE(tenth, nullptr);
  EXPECT_TRUE(tenth->is_double());
  EXPECT_EQ(tenth->double_v, 0.1);
  const JsonValue* huge = props->Find("huge");
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(huge->double_v, 1e300);
  for (const char* name : {"nan", "inf"}) {
    const JsonValue* v = props->Find(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_TRUE(v->is_null()) << name << ": " << got->rows[0].raw;
  }
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
  obs::Gauge sessions;
  std::shared_ptr<ServerSession> session =
      registry.Create("busy", &steps, &sessions);
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
  // Sleeps 4x the idle timeout on its connection thread while holding the
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

// With one run slot and one waiting place, a third simultaneous query (one
// running, one waiting) bounces with SERVER_SATURATED instead of queueing
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

  // Stagger the sleepers so the first holds the run slot and the second
  // waits for it (the stats poll observes each step). The probe must land
  // within the first sleeper's 300 ms.
  std::thread holder1([&running] { running.DebugSleep(300); });
  bool active = false;
  for (int i = 0; i < 400 && !active; ++i) {
    Result<Client::RawResponse> stats =
        prober.RoundTrip("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.ok());
    active = stats->parsed.Find("active")->int_v >= 1;
    if (!active) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(active) << "first sleeper never occupied the worker";

  std::thread holder2([&queued] { queued.DebugSleep(300); });
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

/// Polls the stats op until `active` queries hold a run slot and
/// `queue_depth` wait for one; false if that never happens. Checked with
/// EXPECT, not ASSERT: the callers' client threads must be joined anyway.
bool WaitForRuns(Client* prober, int64_t active, int64_t queue_depth) {
  for (int i = 0; i < 400; ++i) {
    Result<Client::RawResponse> stats =
        prober->RoundTrip("{\"op\":\"stats\"}");
    if (!stats.ok()) return false;
    if (stats->parsed.Find("active")->int_v == active &&
        stats->parsed.Find("queue_depth")->int_v == queue_depth) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// max_queue = 0 means "run if a slot is free, else refuse": a lone query
// finds the slot free and runs.
TEST(ServerTest, ZeroQueueRunsAQueryWhenASlotIsFree) {
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 0;
  TestServer srv(options);
  Client client = MustConnect(srv);
  ASSERT_TRUE(client.UseGraph("fraud").ok());
  Result<Client::PreparedInfo> prepared = client.Prepare(kAllTransfers);
  ASSERT_TRUE(prepared.ok());
  Result<ExecuteResult> result = client.Execute(prepared->stmt);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->rows.empty());
}

// Queries waiting for a run slot take it in arrival order.
TEST(ServerTest, WaitingQueriesRunInArrivalOrder) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.worker_threads = 1;
  options.max_queue = 2;
  TestServer srv(options);
  Client holder = MustConnect(srv);
  Client first = MustConnect(srv);
  Client second = MustConnect(srv);
  Client prober = MustConnect(srv);

  std::mutex mu;
  std::vector<std::string> finished;
  auto sleep_and_record = [&mu, &finished](Client* client, int64_t ms,
                                           const char* name) {
    EXPECT_TRUE(client->DebugSleep(ms).ok()) << name;
    std::lock_guard<std::mutex> lock(mu);
    finished.push_back(name);
  };
  std::thread hold(sleep_and_record, &holder, 400, "holder");
  EXPECT_TRUE(WaitForRuns(&prober, 1, 0));
  std::thread a(sleep_and_record, &first, 50, "A");
  EXPECT_TRUE(WaitForRuns(&prober, 1, 1));
  std::thread b(sleep_and_record, &second, 50, "B");
  EXPECT_TRUE(WaitForRuns(&prober, 1, 2));
  hold.join();
  a.join();
  b.join();
  EXPECT_EQ(finished, (std::vector<std::string>{"holder", "A", "B"}));
}

// Stop drains a query that runs and one that waits for the run slot: both
// get their responses, and Stop returns.
TEST(ServerTest, StopDrainsRunningAndWaitingQueries) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.worker_threads = 1;
  TestServer srv(options);
  Client running = MustConnect(srv);
  Client waiting = MustConnect(srv);
  Client prober = MustConnect(srv);

  Result<Client::RawResponse> ran = Status::Internal("never answered");
  Result<Client::RawResponse> waited = Status::Internal("never answered");
  std::thread run([&] {
    ran = running.RoundTrip("{\"op\":\"debug_sleep\",\"ms\":300}");
  });
  EXPECT_TRUE(WaitForRuns(&prober, 1, 0));
  std::thread wait([&] {
    waited = waiting.RoundTrip("{\"op\":\"debug_sleep\",\"ms\":50}");
  });
  EXPECT_TRUE(WaitForRuns(&prober, 1, 1));
  srv.server.Stop();
  run.join();
  wait.join();
  ASSERT_TRUE(ran.ok()) << ran.status();
  EXPECT_TRUE(ran->parsed.Find("ok")->bool_v) << ran->raw;
  ASSERT_TRUE(waited.ok()) << waited.status();
  EXPECT_TRUE(waited->parsed.Find("ok")->bool_v) << waited->raw;
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

// The timing object must account for the wait for a run slot: saturate the
// single slot, then check the waiting request's queue_ms + exec_ms against
// its client-observed wall time.
TEST(ServerTest, TimingSeparatesQueueWaitFromExecution) {
  ServerOptions options;
  options.enable_debug_ops = true;
  options.worker_threads = 1;
  TestServer srv(options);
  Client holder = MustConnect(srv);
  Client prober = MustConnect(srv);

  std::thread occupy([&holder] { holder.DebugSleep(600); });
  // Let the holder's sleep take the lone run slot before probing.
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

// --- wire bytes ------------------------------------------------------------

/// A raw NDJSON connection: request lines out, response lines back, byte
/// for byte (Client says hello on connect and parses every response).
class RawConnection {
 public:
  explicit RawConnection(int port) : fd_(ConnectLoopback(port)) {}
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  /// Sends `line` plus a newline and returns the response line.
  std::string Call(const std::string& line) {
    std::string out = line + "\n";
    EXPECT_EQ(::send(fd_, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
    return ReadLine();
  }

  int fd() const { return fd_; }

  /// The next response line without its newline, or "" at end of stream.
  std::string ReadLine() {
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t at = s->find(from); at != std::string::npos;
       at = s->find(from, at + to.size())) {
    s->replace(at, from.size(), to);
  }
}

/// `text` with the values that differ between runs masked: every pooled
/// op's timing object is dropped, and the metrics text, the query-stats
/// clock stamps and an HTTP Content-Length become fixed placeholders.
std::string MaskVolatile(std::string text) {
  for (size_t at = text.find(",\"timing\":{"); at != std::string::npos;
       at = text.find(",\"timing\":{", at)) {
    text.erase(at, text.find('}', at) - at + 1);
  }
  for (const std::string key :
       {"\"first_seen_us\":", "\"last_seen_us\":", "Content-Length: "}) {
    for (size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + 1)) {
      size_t begin = at + key.size();
      size_t end = text.find_first_not_of("0123456789", begin);
      text.replace(begin, end - begin, "N");
    }
  }
  const std::string text_key = "\"text\":\"";
  if (size_t at = text.find(text_key); at != std::string::npos) {
    size_t begin = at + text_key.size();
    size_t end = begin;
    while (text[end] != '"') end += text[end] == '\\' ? 2 : 1;
    text.replace(begin, end - begin, "...");
  }
  return text;
}

struct Pin {
  std::string request;
  std::string response;  // Masked by MaskVolatile.
};

/// Sends each pinned request over `conn` and compares the masked response
/// line with the pinned bytes, `graph_token` (when set) spelled TOKEN.
void ExpectPinned(RawConnection* conn, const std::vector<Pin>& pins,
                  uint64_t graph_token = 0) {
  for (const Pin& pin : pins) {
    std::string got = MaskVolatile(conn->Call(pin.request));
    if (graph_token != 0) {
      ReplaceAll(&got, "\"graph_token\":" + std::to_string(graph_token),
                 "\"graph_token\":TOKEN");
    }
    EXPECT_EQ(got, pin.response) << pin.request;
  }
}

constexpr char kPinOwner[] =
    R"pin(MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account))pin";
constexpr char kPinAll[] = R"pin(MATCH (x:Account)-[t:Transfer]->(y:Account))pin";

// The exact response bytes of every op's success shape and of each error
// shape, on one connection that starts without a session; only the timing
// object and the metrics text are masked.
TEST(ServerTest, ResponseBytesArePinned) {
  ServerOptions options;
  options.enable_debug_ops = true;
  obs::SlowQueryLog log;  // Hermetic: nothing bleeds in from other tests.
  obs::QueryStatsStore store;
  options.engine.slow_log = &log;
  options.engine.query_stats = &store;
  TestServer srv(options);
  RawConnection conn(srv.port());
  const std::string prepare_owner =
      std::string(R"pin({"op":"prepare","id":20,"query":")pin") + kPinOwner +
      R"pin("})pin";
  const std::string prepare_all =
      std::string(R"pin({"op":"prepare","id":21,"query":")pin") + kPinAll + R"pin("})pin";
  const std::string explain =
      std::string(R"pin({"op":"explain","id":23,"query":")pin") + kPinAll + R"pin("})pin";
  ExpectPinned(&conn, {
      {R"pin({not json)pin", R"pin({"ok":false,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"request is not valid JSON: JSON parse error at offset 1: expected object key string","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"id":1})pin", R"pin({"ok":false,"id":1,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"request needs a string \"op\" field","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"warp_drive","id":2})pin", R"pin({"ok":false,"id":2,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"unknown op 'warp_drive'","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"execute","id":3,"stmt":1})pin", R"pin({"ok":false,"id":3,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"execute needs a session; send hello first","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"open","id":4,"stmt":1})pin", R"pin({"ok":false,"id":4,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"open needs a session; send hello first","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"fetch","id":5,"cursor":1})pin", R"pin({"ok":false,"id":5,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"fetch needs a session; send hello first","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"close_cursor","id":6,"cursor":1})pin", R"pin({"ok":false,"id":6,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"close_cursor needs a session; send hello first","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"close_stmt","id":7,"stmt":1})pin", R"pin({"ok":false,"id":7,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"close_stmt needs a session; send hello first","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"ping","id":"p"})pin", R"pin({"ok":true,"id":"p"})pin"},
      {R"pin({"op":"list_graphs","id":{"k":[8,"x"]}})pin", R"pin({"ok":true,"id":{"k":[8,"x"]},"graphs":["fraud"]})pin"},
      {R"pin({"op":"load_graph","id":9,"kind":"chain"})pin", R"pin({"ok":false,"id":9,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"load_graph needs a string \"name\"","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"load_graph","id":10,"name":"c4","kind":"teapot"})pin", R"pin({"ok":false,"id":10,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"unknown graph kind 'teapot' (expected paper|chain|cycle|complete|diamond|grid|fraud|random)"}})pin"},
      {R"pin({"op":"load_graph","id":11,"name":"c4","kind":"chain","n":4})pin",
       R"pin({"ok":true,"id":11,"graph":"c4","created":true})pin"},
      {R"pin({"op":"load_graph","id":12,"name":"c4","kind":"chain","n":4})pin",
       R"pin({"ok":true,"id":12,"graph":"c4","created":false})pin"},
      {R"pin({"op":"hello","id":13,"tenant":"pin"})pin", R"pin({"ok":true,"id":13,"protocol":1,"server":"gpml","session":1,"tenant":"pin"})pin"},
      {R"pin({"op":"prepare","id":14,"query":"MATCH (x)"})pin", R"pin({"ok":false,"id":14,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"no graph selected; send use_graph first","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"use_graph","id":15})pin", R"pin({"ok":false,"id":15,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"use_graph needs a string \"graph\"","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"use_graph","id":16,"graph":"nope"})pin", R"pin({"ok":false,"id":16,"error":{"code":104,"name":"NOT_FOUND","message":"no graph named nope"}})pin"},
      {R"pin({"op":"use_graph","id":17,"graph":"c4"})pin", R"pin({"ok":true,"id":17,"graph":"c4"})pin"},
      {R"pin({"op":"prepare","id":18})pin", R"pin({"ok":false,"id":18,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"prepare needs a string \"query\"","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"prepare","id":19,"query":"MATCH ((("})pin", R"pin({"ok":false,"id":19,"error":{"code":101,"name":"SYNTAX_ERROR","message":"expected ) in node pattern (offset=9, at '<end>')\n  MATCH (((\n           ^"}})pin"},
      {prepare_owner, R"pin({"ok":true,"id":20,"stmt":1,"params":["owner"],"from_cache":false,"always_empty":false})pin"},
      {prepare_all, R"pin({"ok":true,"id":21,"stmt":2,"params":[],"from_cache":false,"always_empty":false})pin"},
      {R"pin({"op":"explain","id":22})pin", R"pin({"ok":false,"id":22,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"explain needs a string \"query\"","reason":"BAD_REQUEST"}})pin"},
      {explain, R"pin({"ok":true,"id":23,"plan":"plan: 1 declaration(s)\nexec: threads=1 cached=true\nstep 1: decl=0 dir=forward anchor=left var=x seeds~4 source=label:Account fanout~0.75 sel~1 join=[] selector=none\n"})pin"},
      {R"pin({"op":"execute","id":24,"stmt":1,"params":{"owner":"u1"}})pin", R"pin({"ok":true,"id":24,"rows":[{"t":{"kind":"edge","name":"t1","directed":true,"endpoints":["v1","v2"],"labels":["Transfer"],"properties":{"amount":4000000,"date":"1/1/2020"}},"x":{"kind":"node","name":"v1","labels":["Account"],"properties":{"isBlocked":"no","owner":"u1"}},"y":{"kind":"node","name":"v2","labels":["Account"],"properties":{"isBlocked":"no","owner":"u2"}}}],"row_count":1,"truncated":false,"hit_limit":false})pin"},
      {R"pin({"op":"execute","id":25,"stmt":2,"limit":2})pin", R"pin({"ok":true,"id":25,"rows":[{"t":{"kind":"edge","name":"t0","directed":true,"endpoints":["v0","v1"],"labels":["Transfer"],"properties":{"amount":10000000,"date":"1/1/2020"}},"x":{"kind":"node","name":"v0","labels":["Account"],"properties":{"isBlocked":"no","owner":"u0"}},"y":{"kind":"node","name":"v1","labels":["Account"],"properties":{"isBlocked":"no","owner":"u1"}}},{"t":{"kind":"edge","name":"t1","directed":true,"endpoints":["v1","v2"],"labels":["Transfer"],"properties":{"amount":4000000,"date":"1/1/2020"}},"x":{"kind":"node","name":"v1","labels":["Account"],"properties":{"isBlocked":"no","owner":"u1"}},"y":{"kind":"node","name":"v2","labels":["Account"],"properties":{"isBlocked":"no","owner":"u2"}}}],"row_count":2,"truncated":false,"hit_limit":true})pin"},
      {R"pin({"op":"execute","id":26})pin", R"pin({"ok":false,"id":26,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"execute needs an integer \"stmt\" handle","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"execute","id":27,"stmt":99})pin", R"pin({"ok":false,"id":27,"error":{"code":104,"name":"NOT_FOUND","message":"unknown statement handle 99"}})pin"},
      {R"pin({"op":"execute","id":28,"stmt":1,"limit":-1})pin", R"pin({"ok":false,"id":28,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"\"limit\" must be non-negative","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"execute","id":29,"stmt":1,"params":{"owner":[1]}})pin", R"pin({"ok":false,"id":29,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"parameter values must be scalars (null/bool/number/string)","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"execute","id":30,"stmt":1})pin", R"pin({"ok":false,"id":30,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"missing parameter $owner"}})pin"},
      {R"pin({"op":"open","id":31,"stmt":2,"limit":-1})pin", R"pin({"ok":false,"id":31,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"\"limit\" must be non-negative","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"open","id":32,"stmt":99})pin", R"pin({"ok":false,"id":32,"error":{"code":104,"name":"NOT_FOUND","message":"unknown statement handle 99"}})pin"},
      {R"pin({"op":"open","id":33,"stmt":2,"limit":2})pin", R"pin({"ok":true,"id":33,"cursor":3})pin"},
      {R"pin({"op":"fetch","id":34,"cursor":3,"max_rows":1})pin", R"pin({"ok":true,"id":34,"rows":[{"t":{"kind":"edge","name":"t0","directed":true,"endpoints":["v0","v1"],"labels":["Transfer"],"properties":{"amount":10000000,"date":"1/1/2020"}},"x":{"kind":"node","name":"v0","labels":["Account"],"properties":{"isBlocked":"no","owner":"u0"}},"y":{"kind":"node","name":"v1","labels":["Account"],"properties":{"isBlocked":"no","owner":"u1"}}}],"row_count":1,"done":false,"truncated":false,"hit_limit":false})pin"},
      {R"pin({"op":"fetch","id":35,"cursor":3,"trace_id":"t-1"})pin", R"pin({"ok":true,"id":35,"rows":[{"t":{"kind":"edge","name":"t1","directed":true,"endpoints":["v1","v2"],"labels":["Transfer"],"properties":{"amount":4000000,"date":"1/1/2020"}},"x":{"kind":"node","name":"v1","labels":["Account"],"properties":{"isBlocked":"no","owner":"u1"}},"y":{"kind":"node","name":"v2","labels":["Account"],"properties":{"isBlocked":"no","owner":"u2"}}}],"row_count":1,"done":true,"truncated":false,"hit_limit":true})pin"},
      {R"pin({"op":"fetch","id":36,"cursor":3})pin", R"pin({"ok":true,"id":36,"rows":[],"row_count":0,"done":true,"truncated":false,"hit_limit":true})pin"},
      {R"pin({"op":"fetch","id":37})pin", R"pin({"ok":false,"id":37,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"fetch needs an integer \"cursor\" handle","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"fetch","id":38,"cursor":99})pin", R"pin({"ok":false,"id":38,"error":{"code":104,"name":"NOT_FOUND","message":"unknown cursor handle 99"}})pin"},
      {R"pin({"op":"close_cursor","id":39,"cursor":3})pin", R"pin({"ok":true,"id":39,"closed":true})pin"},
      {R"pin({"op":"close_cursor","id":40,"cursor":3})pin", R"pin({"ok":false,"id":40,"error":{"code":104,"name":"NOT_FOUND","message":"unknown cursor handle 3"}})pin"},
      {R"pin({"op":"close_cursor","id":41})pin", R"pin({"ok":false,"id":41,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"close_cursor needs an integer \"cursor\"","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"close_stmt","id":42,"stmt":2})pin", R"pin({"ok":true,"id":42,"closed":true})pin"},
      {R"pin({"op":"close_stmt","id":43,"stmt":2})pin", R"pin({"ok":false,"id":43,"error":{"code":104,"name":"NOT_FOUND","message":"unknown statement handle 2"}})pin"},
      {R"pin({"op":"close_stmt","id":44})pin", R"pin({"ok":false,"id":44,"error":{"code":100,"name":"INVALID_ARGUMENT","message":"close_stmt needs an integer \"stmt\"","reason":"BAD_REQUEST"}})pin"},
      {R"pin({"op":"stats","id":45})pin", R"pin({"ok":true,"id":45,"sessions":1,"queue_depth":0,"active":0,"tenant":{"name":"pin","sessions":1,"in_flight":0,"total_steps":23}})pin"},
      {R"pin({"op":"metrics","id":46})pin", R"pin({"ok":true,"id":46,"text":"..."})pin"},
      {R"pin({"op":"slow_queries","id":47,"graph":"nope"})pin", R"pin({"ok":false,"id":47,"error":{"code":104,"name":"NOT_FOUND","message":"no graph named nope"}})pin"},
      {R"pin({"op":"query_stats","id":48,"graph":"nope"})pin", R"pin({"ok":false,"id":48,"error":{"code":104,"name":"NOT_FOUND","message":"no graph named nope"}})pin"},
      {R"pin({"op":"debug_sleep","id":49,"ms":1})pin", R"pin({"ok":true,"id":49,"slept_ms":1})pin"},
      {R"pin({"op":"bye","id":50})pin", R"pin({"ok":true,"id":50})pin"},
  });
}

// SESSION_EXPIRED for an op that needs hello's session and for one that
// opens a session itself; ping still answers, and hello starts over.
TEST(ServerTest, ExpiredSessionResponseBytesArePinned) {
  TestServer srv(FastReapOptions());
  RawConnection conn(srv.port());
  ExpectPinned(&conn, {{R"pin({"op":"hello","id":1,"tenant":"sleepy"})pin", R"pin({"ok":true,"id":1,"protocol":1,"server":"gpml","session":1,"tenant":"sleepy"})pin"}});
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ExpectPinned(&conn, {
      {R"pin({"op":"ping","id":2})pin", R"pin({"ok":true,"id":2})pin"},
      {R"pin({"op":"execute","id":3,"stmt":1})pin", R"pin({"ok":false,"id":3,"error":{"code":104,"name":"NOT_FOUND","message":"session expired after idle timeout; send hello to start a new one","reason":"SESSION_EXPIRED"}})pin"},
      {R"pin({"op":"use_graph","id":4,"graph":"fraud"})pin", R"pin({"ok":false,"id":4,"error":{"code":104,"name":"NOT_FOUND","message":"session expired after idle timeout; send hello to start a new one","reason":"SESSION_EXPIRED"}})pin"},
      {R"pin({"op":"close_stmt","id":5,"stmt":1})pin", R"pin({"ok":false,"id":5,"error":{"code":104,"name":"NOT_FOUND","message":"session expired after idle timeout; send hello to start a new one","reason":"SESSION_EXPIRED"}})pin"},
      {R"pin({"op":"hello","id":6,"tenant":"sleepy"})pin", R"pin({"ok":true,"id":6,"protocol":1,"server":"gpml","session":2,"tenant":"sleepy"})pin"},
  });
}

// The stats body, and the slow-query and query-stats bodies over stores
// fed fixed records, through the NDJSON ops and the HTTP routes alike.
TEST(ServerTest, ObservabilityBodiesArePinned) {
  obs::SlowQueryLog log;
  obs::QueryStatsStore store;
  ServerOptions options;
  options.engine.slow_log = &log;
  options.engine.query_stats = &store;
  PropertyGraph graph = TestGraph();
  const uint64_t token = graph.identity_token();
  Server server(options);
  ASSERT_TRUE(server.AddGraph("fraud", std::move(graph)).ok());
  ASSERT_TRUE(server.Start().ok());

  obs::SlowQueryRecord slow;
  slow.graph_token = token;
  slow.fingerprint = kPinOwner;
  slow.total_ms = 12.3456;
  slow.rows = 3;
  slow.explain = "Match\n  \"x\" \xC3\xA9 \x01";
  slow.tenant = "acme";
  slow.trace_id = "req-1";
  log.Add(slow);
  slow.graph_token = 0;  // A graph the server does not serve.
  slow.fingerprint = "MATCH (x)";
  slow.total_ms = 0.5;
  slow.rows = 0;
  slow.explain.clear();
  slow.tenant = "bob";
  slow.trace_id.clear();
  log.Add(slow);

  obs::QueryObservation seen;
  seen.fingerprint = kPinOwner;
  seen.graph_token = token;
  seen.tenant = "acme";
  seen.plan_hash = 11;
  seen.total_ms = 1.5;
  seen.rows = 2;
  seen.seeds = 1;
  seen.steps = 40;
  seen.cache_hit = false;
  store.Record(seen);
  seen.plan_hash = 22;
  seen.total_ms = 4.0;
  seen.cache_hit = true;
  seen.batch_engaged = true;
  store.Record(seen);
  seen.fingerprint = kPinAll;
  seen.graph_token = 0;
  seen.tenant = "bob";
  seen.plan_hash = 33;
  seen.total_ms = 0.25;
  seen.error = true;
  seen.truncated = true;
  store.Record(seen);

  RawConnection conn(server.port());
  ExpectPinned(&conn, {
      {R"pin({"op":"stats","id":1})pin", R"pin({"ok":true,"id":1,"sessions":0,"queue_depth":0,"active":0,"tenant":{"name":"default","sessions":0,"in_flight":0,"total_steps":0}})pin"},
      {R"pin({"op":"slow_queries","id":2})pin", R"pin({"ok":true,"id":2,"records":[{"sequence":0,"graph_token":TOKEN,"graph":"fraud","fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","tenant":"acme","trace_id":"req-1","total_ms":12.346,"rows":3,"explain":"Match\n  \"x\" é \u0001"},{"sequence":1,"graph_token":0,"graph":"","fingerprint":"MATCH (x)","tenant":"bob","trace_id":"","total_ms":0.500,"rows":0,"explain":""}]})pin"},
      {R"pin({"op":"slow_queries","id":3,"graph":"fraud"})pin", R"pin({"ok":true,"id":3,"records":[{"sequence":0,"graph_token":TOKEN,"graph":"fraud","fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","tenant":"acme","trace_id":"req-1","total_ms":12.346,"rows":3,"explain":"Match\n  \"x\" é \u0001"}]})pin"},
      {R"pin({"op":"query_stats","id":4})pin", R"pin({"ok":true,"id":4,"entries":[{"fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","graph_token":TOKEN,"graph":"fraud","tenant":"acme","calls":2,"errors":0,"truncations":0,"rows":4,"seeds":2,"steps":80,"cache_hits":1,"cache_misses":1,"batch_calls":1,"total_ms":5.500,"mean_ms":2.750,"min_ms":1.500,"max_ms":4.000,"p50_ms":2.048,"p95_ms":4.096,"plan_hash":22,"plan_changed":true,"plan_changes":1,"plans":[{"plan_hash":11,"calls":1,"total_ms":1.500,"min_ms":1.500,"max_ms":1.500,"first_seen_us":N,"last_seen_us":N},{"plan_hash":22,"calls":1,"total_ms":4.000,"min_ms":4.000,"max_ms":4.000,"first_seen_us":N,"last_seen_us":N}]},{"fingerprint":"MATCH (x:Account)-[t:Transfer]->(y:Account)","graph_token":0,"graph":"","tenant":"bob","calls":1,"errors":1,"truncations":1,"rows":2,"seeds":1,"steps":40,"cache_hits":1,"cache_misses":0,"batch_calls":1,"total_ms":0.250,"mean_ms":0.250,"min_ms":0.250,"max_ms":0.250,"p50_ms":0.256,"p95_ms":0.256,"plan_hash":33,"plan_changed":false,"plan_changes":0,"plans":[{"plan_hash":33,"calls":1,"total_ms":0.250,"min_ms":0.250,"max_ms":0.250,"first_seen_us":N,"last_seen_us":N}]}]})pin"},
      {R"pin({"op":"query_stats","id":5,"graph":"fraud","tenant":"acme"})pin",
       R"pin({"ok":true,"id":5,"entries":[{"fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","graph_token":TOKEN,"graph":"fraud","tenant":"acme","calls":2,"errors":0,"truncations":0,"rows":4,"seeds":2,"steps":80,"cache_hits":1,"cache_misses":1,"batch_calls":1,"total_ms":5.500,"mean_ms":2.750,"min_ms":1.500,"max_ms":4.000,"p50_ms":2.048,"p95_ms":4.096,"plan_hash":22,"plan_changed":true,"plan_changes":1,"plans":[{"plan_hash":11,"calls":1,"total_ms":1.500,"min_ms":1.500,"max_ms":1.500,"first_seen_us":N,"last_seen_us":N},{"plan_hash":22,"calls":1,"total_ms":4.000,"min_ms":4.000,"max_ms":4.000,"first_seen_us":N,"last_seen_us":N}]}]})pin"},
      {R"pin({"op":"query_stats","id":6,"tenant":"bob"})pin", R"pin({"ok":true,"id":6,"entries":[{"fingerprint":"MATCH (x:Account)-[t:Transfer]->(y:Account)","graph_token":0,"graph":"","tenant":"bob","calls":1,"errors":1,"truncations":1,"rows":2,"seeds":1,"steps":40,"cache_hits":1,"cache_misses":0,"batch_calls":1,"total_ms":0.250,"mean_ms":0.250,"min_ms":0.250,"max_ms":0.250,"p50_ms":0.256,"p95_ms":0.256,"plan_hash":33,"plan_changed":false,"plan_changes":0,"plans":[{"plan_hash":33,"calls":1,"total_ms":0.250,"min_ms":0.250,"max_ms":0.250,"first_seen_us":N,"last_seen_us":N}]}]})pin"},
      {R"pin({"op":"debug_sleep","id":7})pin", R"pin({"ok":false,"id":7,"error":{"code":107,"name":"UNIMPLEMENTED","message":"debug ops are disabled on this server"}})pin"},
  }, token);

  const std::vector<Pin> http = {
      {"/slow_queries", R"pin(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: N\r\nConnection: close\r\n\r\n[{"sequence":0,"graph_token":TOKEN,"graph":"fraud","fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","tenant":"acme","trace_id":"req-1","total_ms":12.346,"rows":3,"explain":"Match\n  \"x\" é \u0001"},{"sequence":1,"graph_token":0,"graph":"","fingerprint":"MATCH (x)","tenant":"bob","trace_id":"","total_ms":0.500,"rows":0,"explain":""}]\n)pin"},
      {"/slow_queries?graph=fraud", R"pin(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: N\r\nConnection: close\r\n\r\n[{"sequence":0,"graph_token":TOKEN,"graph":"fraud","fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","tenant":"acme","trace_id":"req-1","total_ms":12.346,"rows":3,"explain":"Match\n  \"x\" é \u0001"}]\n)pin"},
      {"/query_stats", R"pin(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: N\r\nConnection: close\r\n\r\n[{"fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","graph_token":TOKEN,"graph":"fraud","tenant":"acme","calls":2,"errors":0,"truncations":0,"rows":4,"seeds":2,"steps":80,"cache_hits":1,"cache_misses":1,"batch_calls":1,"total_ms":5.500,"mean_ms":2.750,"min_ms":1.500,"max_ms":4.000,"p50_ms":2.048,"p95_ms":4.096,"plan_hash":22,"plan_changed":true,"plan_changes":1,"plans":[{"plan_hash":11,"calls":1,"total_ms":1.500,"min_ms":1.500,"max_ms":1.500,"first_seen_us":N,"last_seen_us":N},{"plan_hash":22,"calls":1,"total_ms":4.000,"min_ms":4.000,"max_ms":4.000,"first_seen_us":N,"last_seen_us":N}]},{"fingerprint":"MATCH (x:Account)-[t:Transfer]->(y:Account)","graph_token":0,"graph":"","tenant":"bob","calls":1,"errors":1,"truncations":1,"rows":2,"seeds":1,"steps":40,"cache_hits":1,"cache_misses":0,"batch_calls":1,"total_ms":0.250,"mean_ms":0.250,"min_ms":0.250,"max_ms":0.250,"p50_ms":0.256,"p95_ms":0.256,"plan_hash":33,"plan_changed":false,"plan_changes":0,"plans":[{"plan_hash":33,"calls":1,"total_ms":0.250,"min_ms":0.250,"max_ms":0.250,"first_seen_us":N,"last_seen_us":N}]}]\n)pin"},
      {"/query_stats?graph=fraud&tenant=acme", R"pin(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: N\r\nConnection: close\r\n\r\n[{"fingerprint":"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)","graph_token":TOKEN,"graph":"fraud","tenant":"acme","calls":2,"errors":0,"truncations":0,"rows":4,"seeds":2,"steps":80,"cache_hits":1,"cache_misses":1,"batch_calls":1,"total_ms":5.500,"mean_ms":2.750,"min_ms":1.500,"max_ms":4.000,"p50_ms":2.048,"p95_ms":4.096,"plan_hash":22,"plan_changed":true,"plan_changes":1,"plans":[{"plan_hash":11,"calls":1,"total_ms":1.500,"min_ms":1.500,"max_ms":1.500,"first_seen_us":N,"last_seen_us":N},{"plan_hash":22,"calls":1,"total_ms":4.000,"min_ms":4.000,"max_ms":4.000,"first_seen_us":N,"last_seen_us":N}]}]\n)pin"},
      {"/query_stats?graph=missing", R"pin(HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: N\r\nConnection: close\r\n\r\nno graph named missing\n)pin"},
      {"/nowhere", R"pin(HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: N\r\nConnection: close\r\n\r\nnot found\n)pin"},
  };
  for (const Pin& pin : http) {
    std::string got = HttpGet(server.port(), pin.request);
    size_t body = got.find("\r\n\r\n") + 4;
    EXPECT_NE(got.find("Content-Length: " + std::to_string(got.size() - body) +
                       "\r\n"),
              std::string::npos)
        << pin.request;
    got = MaskVolatile(got);
    ReplaceAll(&got, "\"graph_token\":" + std::to_string(token),
               "\"graph_token\":TOKEN");
    ReplaceAll(&got, "\r\n", "\\r\\n");
    ReplaceAll(&got, "\n", "\\n");
    EXPECT_EQ(got, pin.response) << pin.request;
  }
  server.Stop();
}

// load_graph sizes no generator can build are refused with a structured
// error before anything is built (a zero-city fraud graph used to abort
// the whole server), and the same connection keeps serving.
TEST(ServerTest, LoadGraphRejectsDegenerateSizes) {
  TestServer srv;
  RawConnection conn(srv.port());
  const char* const kBelowMinimum[] = {
      R"pin("kind":"fraud","cities":0)pin",
      R"pin("kind":"fraud","accounts":0)pin",
      R"pin("kind":"random","nodes":0)pin",
      R"pin("kind":"chain","n":-1)pin",
  };
  for (const char* sizes : kBelowMinimum) {
    Result<JsonValue> response = ParseJson(conn.Call(
        std::string(R"pin({"op":"load_graph","name":"bad",)pin") + sizes + "}"));
    ASSERT_TRUE(response.ok()) << sizes;
    EXPECT_FALSE(response->Find("ok")->bool_v) << sizes;
    const JsonValue* error = response->Find("error");
    ASSERT_NE(error, nullptr) << sizes;
    EXPECT_EQ(error->Find("name")->string_v, "INVALID_ARGUMENT") << sizes;
    EXPECT_EQ(error->Find("reason")->string_v, "BAD_REQUEST") << sizes;
    EXPECT_EQ(conn.Call(R"pin({"op":"ping"})pin"), R"pin({"ok":true})pin") << sizes;
  }
  // 2^32 + 5 nodes must not wrap to 5, and a complete graph on 10^5 nodes
  // would have 10^10 elements: all are over the element bound.
  const char* const kTooLarge[] = {
      R"pin("kind":"complete","n":4294967301)pin",
      R"pin("kind":"complete","n":100000)pin",
      R"pin("kind":"fraud","accounts":1000000,"transfers":1000000)pin",
  };
  for (const char* sizes : kTooLarge) {
    Result<JsonValue> response = ParseJson(conn.Call(
        std::string(R"pin({"op":"load_graph","name":"big",)pin") + sizes + "}"));
    ASSERT_TRUE(response.ok()) << sizes;
    EXPECT_FALSE(response->Find("ok")->bool_v) << sizes;
    const JsonValue* error = response->Find("error");
    ASSERT_NE(error, nullptr) << sizes;
    EXPECT_EQ(error->Find("reason")->string_v, "BAD_REQUEST") << sizes;
    EXPECT_NE(error->Find("message")->string_v.find("2000000"),
              std::string::npos)
        << sizes;
    EXPECT_EQ(conn.Call(R"pin({"op":"ping"})pin"), R"pin({"ok":true})pin") << sizes;
  }
  EXPECT_EQ(conn.Call(R"pin({"op":"list_graphs"})pin"),
            R"pin({"ok":true,"graphs":["fraud"]})pin");
}

// The server ends the stream right after acknowledging bye, so a client
// reading to end of stream is not left waiting for the next accept.
TEST(ServerTest, ByeEndsTheStream) {
  TestServer srv;
  RawConnection conn(srv.port());
  EXPECT_EQ(conn.Call(R"pin({"op":"bye","id":1})pin"),
            R"pin({"ok":true,"id":1})pin");
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  char byte = 0;
  EXPECT_EQ(::recv(conn.fd(), &byte, 1, 0), 0) << "end of stream, no timeout";
}

// A request line longer than the 16 MiB line cap gets one BAD_REQUEST
// error line before the server closes the connection; other connections
// are unaffected.
TEST(ServerTest, OverLongRequestLineGetsBadRequest) {
  TestServer srv;
  RawConnection conn(srv.port());
  std::string line((16u << 20) + 1024, 'x');
  Result<JsonValue> response = ParseJson(conn.Call(line));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->bool_v);
  const JsonValue* error = response->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("reason")->string_v, "BAD_REQUEST");
  EXPECT_EQ(conn.ReadLine(), "") << "the connection closes after the error";
  Client client = MustConnect(srv);
  EXPECT_TRUE(client.Ping().ok());
}

// A request arriving one byte per send, and requests whose bytes straddle
// the server's 64 KiB reads, are each answered once and in order.
TEST(ServerTest, RequestsSplitAcrossReadsAreAnswered) {
  TestServer srv;
  RawConnection conn(srv.port());
  const std::string ping = R"pin({"op":"ping","id":1})pin" "\n";
  for (char c : ping) {
    ASSERT_EQ(::send(conn.fd(), &c, 1, MSG_NOSIGNAL), 1);
  }
  EXPECT_EQ(conn.ReadLine(), R"pin({"ok":true,"id":1})pin");

  // The first line ends 10 bytes short of 64 KiB, so the second starts in
  // the first read and ends in the next; the third spans several reads.
  auto padded = [](int id, size_t bytes) {
    std::string head = R"({"op":"ping","id":)" + std::to_string(id) +
                       R"(,"pad":")";
    return head + std::string(bytes - head.size() - 3, 'x') + "\"}\n";
  };
  std::string burst = padded(2, (64u << 10) - 10) +
                      R"pin({"op":"ping","id":3})pin" "\n" +
                      padded(4, 200u << 10);
  ASSERT_EQ(burst.find('\n'), (64u << 10) - 11);
  ASSERT_EQ(::send(conn.fd(), burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  EXPECT_EQ(conn.ReadLine(), R"pin({"ok":true,"id":2})pin");
  EXPECT_EQ(conn.ReadLine(), R"pin({"ok":true,"id":3})pin");
  EXPECT_EQ(conn.ReadLine(), R"pin({"ok":true,"id":4})pin");
}

/// Open file descriptors of this process.
size_t OpenFds() {
  size_t n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd");
       it != std::filesystem::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

// Connections that said bye release their threads and fds within a reap
// interval, with no further connection arriving to trigger the sweep.
TEST(ServerTest, ClosedConnectionsReleaseFdsWithoutNewAccept) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to count open descriptors";
  }
  TestServer srv(FastReapOptions());
  const size_t before = OpenFds();
  {
    std::vector<std::unique_ptr<RawConnection>> conns;
    for (int i = 0; i < 4; ++i) {
      conns.push_back(std::make_unique<RawConnection>(srv.port()));
      EXPECT_EQ(conns.back()->Call(R"pin({"op":"bye"})pin"),
                R"pin({"ok":true})pin");
    }
    for (auto& conn : conns) {
      EXPECT_EQ(conn->ReadLine(), "") << "the stream ends after bye";
    }
  }  // Client ends closed: only the server's ends remain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t open = OpenFds();
  while (open > before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    open = OpenFds();
  }
  EXPECT_EQ(open, before) << "server ends of closed connections still open";
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
