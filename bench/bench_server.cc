// Network server contract gate (docs/server.md):
//
//   * byte-identity — a fleet of client threads executes >= 1000
//     parameterized queries against an in-process server and every result
//     row, as raw response bytes, equals the in-process engine's
//     RowToJson output for the same binding (transport adds nothing,
//     loses nothing);
//   * concurrency — the fleet runs on 8 connections concurrently, each
//     query on its connection's thread behind the admission controller's
//     run slots and bounded wait queue, with zero spurious failures;
//   * tail latency — per-query wall times are summarized as p50/p95/p99
//     into BENCH_server.json (bench_util.h percentile helpers);
//   * workload introspection — after the mixed fleet (two fingerprints),
//     GET /query_stats reports calls/rows/steps that exactly equal the
//     client-side oracle sums, and the per-tenant Prometheus families
//     (gpml_tenant_steps_total, gpml_tenant_active_sessions) carry the
//     fleet tenant's exact step total;
//   * graceful shutdown — Stop() drains with a cursor still open and a
//     subsequent fetch fails with a transport error, not a hang.
//
// Run under ctest as bench_server_contract; exits non-zero on violation.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "gql/json_export.h"
#include "graph/generator.h"
#include "obs/clock.h"
#include "obs/query_stats.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"

namespace gpml {
namespace {

constexpr int kAccounts = 300;
constexpr int kClientThreads = 8;
constexpr int kQueriesPerThread = 150;  // 1200 total, > the 1000 floor.

// Parameterized fraud probe: suspect account by $owner, transfers out to
// blocked receivers. MATCH-only text — the engine-level prepare surface
// the server exposes.
constexpr char kQuery[] =
    "MATCH (x:Account WHERE x.isBlocked='no' AND x.owner = $owner)"
    "-[t:Transfer]->(y:Account WHERE y.isBlocked='yes')";

// Every kScanEvery-th fleet query runs this second fingerprint instead, so
// the workload the /query_stats oracle checks is genuinely mixed.
constexpr char kScanQuery[] =
    "MATCH (x:Account)-[t:Transfer]->(y:Account WHERE y.isBlocked='yes')";
constexpr int kScanEvery = 10;

FraudGraphOptions WorkloadOptions() {
  FraudGraphOptions options;
  options.num_accounts = kAccounts;
  return options;
}

Params OwnerParams(int index) {
  return Params{{"owner", Value::String("u" + std::to_string(index))}};
}

/// The in-process oracle: expected row bytes and matcher steps per $owner
/// binding (plus the scan fingerprint's constants), computed on an
/// identical (same generator, same seed) graph. num_threads is pinned to 1
/// to match the server's per-query engine configuration, so step counts
/// are comparable, not just rows.
struct Oracle {
  std::vector<std::vector<std::string>> expected;  // Rows per binding.
  std::vector<uint64_t> owner_steps;               // Steps per binding.
  size_t scan_rows = 0;
  uint64_t scan_steps = 0;
};

Oracle ComputeOracle(const PropertyGraph& graph) {
  EngineMetrics metrics;
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;
  Engine engine(graph, options);
  Result<PreparedQuery> prepared = engine.Prepare(kQuery);
  if (!prepared.ok()) {
    std::fprintf(stderr, "oracle prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    std::exit(1);
  }
  Oracle oracle;
  oracle.expected.resize(kAccounts);
  oracle.owner_steps.resize(kAccounts);
  for (int i = 0; i < kAccounts; ++i) {
    Result<MatchOutput> output = prepared->Execute(OwnerParams(i));
    if (!output.ok()) {
      std::fprintf(stderr, "oracle execute failed: %s\n",
                   output.status().ToString().c_str());
      std::exit(1);
    }
    oracle.owner_steps[i] = metrics.matcher_steps;
    oracle.expected[i].reserve(output->rows.size());
    for (const ResultRow& row : output->rows) {
      oracle.expected[i].push_back(RowToJson(*output, row, graph));
    }
  }
  Result<MatchOutput> scan = engine.Match(kScanQuery);
  if (!scan.ok()) {
    std::fprintf(stderr, "oracle scan failed: %s\n",
                 scan.status().ToString().c_str());
    std::exit(1);
  }
  oracle.scan_rows = scan->rows.size();
  oracle.scan_steps = metrics.matcher_steps;
  return oracle;
}

struct FleetResult {
  std::vector<double> latencies_ms;
  size_t rows = 0;
  size_t failures = 0;
  size_t mismatches = 0;
  // Client-side tallies the /query_stats response must reproduce exactly.
  size_t owner_calls = 0;
  size_t owner_rows = 0;
  uint64_t owner_steps = 0;  // Oracle steps summed over executed bindings.
  size_t scan_calls = 0;
  size_t scan_rows = 0;
};

FleetResult RunFleet(int port, const Oracle& oracle) {
  std::mutex mu;
  FleetResult merged;
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([t, port, &oracle, &mu, &merged] {
      FleetResult local;
      Result<server::Client> client =
          server::Client::Connect("127.0.0.1", port, "bench");
      if (!client.ok() || !client->UseGraph("fraud").ok()) {
        local.failures += kQueriesPerThread;
        std::lock_guard<std::mutex> lock(mu);
        merged.failures += local.failures;
        return;
      }
      Result<server::Client::PreparedInfo> prepared =
          client->Prepare(kQuery);
      Result<server::Client::PreparedInfo> scan = client->Prepare(kScanQuery);
      if (!prepared.ok() || !scan.ok()) {
        local.failures += kQueriesPerThread;
        std::lock_guard<std::mutex> lock(mu);
        merged.failures += local.failures;
        return;
      }
      for (int i = 0; i < kQueriesPerThread; ++i) {
        bool is_scan = i % kScanEvery == 0;
        int owner = (t * kQueriesPerThread + i) % kAccounts;
        obs::Stopwatch watch;
        Result<server::ExecuteResult> result =
            is_scan ? client->Execute(scan->stmt)
                    : client->Execute(prepared->stmt, OwnerParams(owner));
        double ms = static_cast<double>(watch.ElapsedMicros()) / 1e3;
        if (!result.ok()) {
          ++local.failures;
          continue;
        }
        local.latencies_ms.push_back(ms);
        local.rows += result->rows.size();
        if (is_scan) {
          ++local.scan_calls;
          local.scan_rows += result->rows.size();
          if (result->rows.size() != oracle.scan_rows) ++local.mismatches;
          continue;
        }
        ++local.owner_calls;
        local.owner_rows += result->rows.size();
        local.owner_steps += oracle.owner_steps[owner];
        const std::vector<std::string>& want = oracle.expected[owner];
        if (result->rows.size() != want.size()) {
          ++local.mismatches;
        } else {
          for (size_t r = 0; r < want.size(); ++r) {
            if (result->rows[r].raw != want[r]) {
              ++local.mismatches;
              break;
            }
          }
        }
      }
      client->Bye();
      std::lock_guard<std::mutex> lock(mu);
      merged.failures += local.failures;
      merged.mismatches += local.mismatches;
      merged.rows += local.rows;
      merged.owner_calls += local.owner_calls;
      merged.owner_rows += local.owner_rows;
      merged.owner_steps += local.owner_steps;
      merged.scan_calls += local.scan_calls;
      merged.scan_rows += local.scan_rows;
      merged.latencies_ms.insert(merged.latencies_ms.end(),
                                 local.latencies_ms.begin(),
                                 local.latencies_ms.end());
    });
  }
  for (std::thread& thread : threads) thread.join();
  return merged;
}

/// Blocking HTTP/1.1 GET against the server's observability port; returns
/// the body ("" on any transport or status failure).
std::string HttpGetBody(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (response.rfind("HTTP/1.1 200", 0) != 0) return "";
  size_t header_end = response.find("\r\n\r\n");
  return header_end == std::string::npos ? ""
                                         : response.substr(header_end + 4);
}

/// GET /query_stats vs the client-side oracle tallies: calls, rows, and
/// matcher steps for both fingerprints must match exactly.
bool QueryStatsContract(int port, const FleetResult& fleet,
                        const Oracle& oracle) {
  std::string body =
      HttpGetBody(port, "/query_stats?graph=fraud&tenant=bench");
  Result<server::JsonValue> parsed = server::ParseJson(body);
  if (!parsed.ok() || !parsed->is_array() || parsed->array_v.size() != 2) {
    std::fprintf(stderr, "bad /query_stats payload: %s\n", body.c_str());
    return false;
  }
  bool ok = true;
  for (const server::JsonValue& entry : parsed->array_v) {
    const server::JsonValue* fp = entry.Find("fingerprint");
    if (fp == nullptr || !fp->is_string()) return false;
    bool is_owner = fp->string_v.find("owner") != std::string::npos;
    uint64_t want_calls = is_owner ? fleet.owner_calls : fleet.scan_calls;
    uint64_t want_rows = is_owner ? fleet.owner_rows : fleet.scan_rows;
    uint64_t want_steps = is_owner
                              ? fleet.owner_steps
                              : fleet.scan_calls * oracle.scan_steps;
    uint64_t got_calls = static_cast<uint64_t>(entry.Find("calls")->int_v);
    uint64_t got_rows = static_cast<uint64_t>(entry.Find("rows")->int_v);
    uint64_t got_steps = static_cast<uint64_t>(entry.Find("steps")->int_v);
    uint64_t got_errors = static_cast<uint64_t>(entry.Find("errors")->int_v);
    if (got_calls != want_calls || got_rows != want_rows ||
        got_steps != want_steps || got_errors != 0) {
      std::fprintf(stderr,
                   "/query_stats mismatch for %s fingerprint: "
                   "calls %" PRIu64 "/%" PRIu64 ", rows %" PRIu64 "/%" PRIu64
                   ", steps %" PRIu64 "/%" PRIu64 ", errors %" PRIu64 "\n",
                   is_owner ? "owner" : "scan", got_calls, want_calls,
                   got_rows, want_rows, got_steps, want_steps, got_errors);
      ok = false;
    }
  }
  return ok;
}

/// Stop() must drain and return with a client cursor still open, and the
/// abandoned client must see a clean transport error afterwards.
bool ShutdownDrainContract(server::Server* srv) {
  Result<server::Client> client =
      server::Client::Connect("127.0.0.1", srv->port(), "drain");
  if (!client.ok() || !client->UseGraph("fraud").ok()) return false;
  Result<server::Client::PreparedInfo> prepared =
      client->Prepare("MATCH (x:Account)-[t:Transfer]->(y:Account)");
  if (!prepared.ok()) return false;
  Result<int64_t> cursor = client->Open(prepared->stmt);
  if (!cursor.ok()) return false;
  Result<server::ExecuteResult> page = client->Fetch(*cursor, 16);
  if (!page.ok() || page->rows.empty()) return false;

  srv->Stop();  // Must not hang on the open connection/cursor.

  Result<server::ExecuteResult> after = client->Fetch(*cursor, 16);
  if (after.ok()) {
    std::fprintf(stderr, "fetch succeeded after server Stop()\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace gpml

int main() {
  using namespace gpml;

  PropertyGraph oracle_graph = MakeFraudGraph(WorkloadOptions());
  Oracle oracle = ComputeOracle(oracle_graph);
  size_t expected_rows = 0;
  for (const auto& rows : oracle.expected) expected_rows += rows.size();
  std::printf("oracle: %d bindings, %zu total rows (+%zu per scan)\n",
              kAccounts, expected_rows, oracle.scan_rows);

  obs::QueryStatsStore stats_store;
  server::ServerOptions options;
  options.worker_threads = 8;
  options.max_queue = 4096;
  options.engine.query_stats = &stats_store;  // Hermetic for the contract.
  server::Server srv(options);
  if (!srv.AddGraph("fraud", MakeFraudGraph(WorkloadOptions())).ok()) {
    std::fprintf(stderr, "AddGraph failed\n");
    return 1;
  }
  Status started = srv.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  obs::Stopwatch wall;
  FleetResult fleet = RunFleet(srv.port(), oracle);
  double wall_ms = wall.ElapsedMs();

  const size_t total = static_cast<size_t>(kClientThreads) *
                       static_cast<size_t>(kQueriesPerThread);
  std::printf(
      "fleet: %zu queries over %d connections in %.1f ms "
      "(%zu rows, %zu failures, %zu mismatched)\n",
      total, kClientThreads, wall_ms, fleet.rows, fleet.failures,
      fleet.mismatches);

  // The server's own telemetry must be visible through the aggregate the
  // /metrics endpoint serves — including the fleet tenant's per-tenant
  // families, with the step counter equal to the oracle's exact total.
  bool metrics_ok = false;
  bool tenant_metrics_ok = false;
  {
    Result<server::Client> probe =
        server::Client::Connect("127.0.0.1", srv.port(), "probe");
    if (probe.ok()) {
      Result<std::string> text = probe->Metrics();
      metrics_ok = text.ok() &&
                   text->find("gpml_server_queries_total") !=
                       std::string::npos;
      if (text.ok()) {
        uint64_t total_steps =
            fleet.owner_steps + fleet.scan_calls * oracle.scan_steps;
        char steps_line[128];
        std::snprintf(steps_line, sizeof(steps_line),
                      "gpml_tenant_steps_total{tenant=\"bench\"} %" PRIu64,
                      total_steps);
        tenant_metrics_ok =
            text->find(steps_line) != std::string::npos &&
            text->find("gpml_tenant_active_sessions{tenant=\"bench\"}") !=
                std::string::npos;
        if (!tenant_metrics_ok) {
          std::fprintf(stderr, "missing per-tenant series (want '%s')\n",
                       steps_line);
        }
      }
      probe->Bye();
    }
  }

  bool stats_ok = QueryStatsContract(srv.port(), fleet, oracle);
  bool drained = ShutdownDrainContract(&srv);

  std::vector<std::pair<std::string, double>> extra =
      bench::LatencySummary(fleet.latencies_ms);
  extra.emplace_back("connections", kClientThreads);
  extra.emplace_back("queries", static_cast<double>(total));
  extra.emplace_back("qps", wall_ms > 0 ? 1e3 * static_cast<double>(total) /
                                              wall_ms
                                        : 0);
  extra.emplace_back("failures", static_cast<double>(fleet.failures));
  extra.emplace_back("mismatches", static_cast<double>(fleet.mismatches));
  bench::JsonReport report("server");
  report.Add("fraud300_execute_8x150", wall_ms, 0, 0, fleet.rows, extra);
  report.Write();

  bool ok = true;
  if (fleet.failures != 0) {
    std::fprintf(stderr, "FAIL: %zu queries failed\n", fleet.failures);
    ok = false;
  }
  if (fleet.mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu queries returned rows differing from "
                         "the in-process oracle\n",
                 fleet.mismatches);
    ok = false;
  }
  if (fleet.latencies_ms.size() != total) {
    std::fprintf(stderr, "FAIL: expected %zu latency samples, got %zu\n",
                 total, fleet.latencies_ms.size());
    ok = false;
  }
  if (!metrics_ok) {
    std::fprintf(stderr, "FAIL: /metrics aggregate is missing "
                         "gpml_server_queries_total\n");
    ok = false;
  }
  if (!tenant_metrics_ok) {
    std::fprintf(stderr, "FAIL: per-tenant metric families absent or "
                         "step counter inexact\n");
    ok = false;
  }
  if (!stats_ok) {
    std::fprintf(stderr, "FAIL: /query_stats does not match the "
                         "client-side oracle\n");
    ok = false;
  }
  if (!drained) {
    std::fprintf(stderr, "FAIL: graceful-shutdown drain contract\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("bench_server: all contracts PASSED\n");
  return 0;
}
