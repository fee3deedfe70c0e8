// Parallel-execution and plan-cache contracts on the Figure 4 fraud
// workload (300 accounts). Like bench_planner this is a plain executable
// with a checked contract, run under ctest as a regression gate:
//
//  1. Correctness (always enforced): num_threads ∈ {1, 4} and plan cache
//     on/off produce identical rows in identical order, and the matcher
//     executes the identical instruction count.
//  2. Speedup (enforced only with >= 4 hardware threads and no sanitizer):
//     4 worker threads must cut wall time by >= 2x vs num_threads=1,
//     timed after a 3 s 4-thread warm-up (see WarmUpWorkers).
//  3. Plan-cache latency (always enforced): the second compilation of an
//     identical query — a cache hit skipping normalize/analyze/plan — must
//     be >= 10x faster than the first on a cold graph.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "parser/parser.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GPML_BENCH_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GPML_BENCH_SANITIZED 1
#endif
#endif

namespace gpml {
namespace {

struct Workload {
  const char* name;
  std::string query;
  /// Only substantial workloads gate the 2x speedup; sub-10ms queries are
  /// dominated by shard spawn/merge overhead and gate correctness only.
  bool gate_speedup = false;
};

const Workload kWorkloads[] = {
    {"fig4_fraud_any",
     "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
     "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
     "(y:Account WHERE y.isBlocked='yes'), "
     "ANY (x)-[:Transfer]->+(y)",
     /*gate_speedup=*/true},
    {"fig4_colocation_join",
     "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
     "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
     "(y:Account WHERE y.isBlocked='yes'), "
     "(x)-[t:Transfer]->(y2:Account), (y2)-[t2:Transfer]->(y)",
     /*gate_speedup=*/false},
};

PropertyGraph MakeWorkloadGraph() {
  FraudGraphOptions options;
  options.num_accounts = 300;
  options.num_cities = 3;
  return MakeFraudGraph(options);
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One row per result, order-preserving, for byte-identity checks.
std::vector<std::string> CanonRows(const MatchOutput& out,
                                   const PropertyGraph& g) {
  std::vector<std::string> rows;
  rows.reserve(out.rows.size());
  for (const ResultRow& row : out.rows) {
    std::string s;
    for (const auto& pb : row.bindings) {
      s += pb->ToString(g, *out.vars);
      s += " | ";
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

struct Measurement {
  std::vector<std::string> rows;
  EngineMetrics metrics;
  double millis = 0;
};

Measurement Measure(const PropertyGraph& g, const std::string& query,
                    size_t num_threads, bool* ok) {
  Measurement m;
  EngineOptions options;
  options.num_threads = num_threads;
  // Plans come from the graph's warm plan cache for every thread count
  // alike, which isolates the matcher timing from compilation.
  options.metrics = &m.metrics;
  Engine engine(g, options);
  auto start = std::chrono::steady_clock::now();
  Result<MatchOutput> out = engine.Match(query);
  m.millis = MillisSince(start);
  if (!out.ok()) {
    std::fprintf(stderr, "query failed (threads=%zu): %s\n  %s\n",
                 num_threads, query.c_str(), out.status().ToString().c_str());
    *ok = false;
    return m;
  }
  m.rows = CanonRows(*out, g);
  return m;
}

bool SpeedupGateActive() {
#ifdef GPML_BENCH_SANITIZED
  std::printf("speedup gate: SKIPPED (sanitizer build distorts timings)\n");
  return false;
#else
  unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    std::printf(
        "speedup gate: SKIPPED (%u hardware thread(s); need >= 4 to "
        "demonstrate a 4-worker speedup)\n",
        hw);
    return false;
  }
  return true;
#endif
}

/// Runs `query` on 4 threads for kWarmupSeconds before anything is timed.
/// On a virtualized host, vCPUs that sat idle answer a thread wakeup late:
/// right after an idle spell even a pure-CPU 4-thread loop ran serialized
/// for about 1.3 s before the host ran all four vCPUs at once, which fails
/// the 2x gate at any commit. Sustained 4-thread load first means the gate
/// measures the steady state it is about.
void WarmUpWorkers(const PropertyGraph& g, const std::string& query) {
  constexpr double kWarmupSeconds = 3.0;
  const auto start = std::chrono::steady_clock::now();
  bool ok = true;
  while (ok && MillisSince(start) < kWarmupSeconds * 1000) {
    Measure(g, query, 4, &ok);
  }
}

int RunBench() {
  bool ok = true;
  bench::JsonReport report("parallel");
  PropertyGraph g = MakeWorkloadGraph();
  const bool enforce_speedup = SpeedupGateActive();
  if (enforce_speedup) WarmUpWorkers(g, kWorkloads[0].query);
  constexpr int kRepetitions = 3;

  std::printf("%-24s %8s | %10s %10s | %9s | %6s\n", "workload", "accounts",
              "ms:1thr", "ms:4thr", "speedup", "rows");
  for (const Workload& w : kWorkloads) {
    // Warm the plan cache and label indexes once so both sides measure the
    // same (pure matching) work.
    bool warm_ok = true;
    Measurement warm = Measure(g, w.query, 1, &warm_ok);
    if (!warm_ok) {
      ok = false;
      continue;
    }

    double best1 = 0, best4 = 0;
    Measurement m1, m4;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      m1 = Measure(g, w.query, 1, &ok);
      m4 = Measure(g, w.query, 4, &ok);
      if (!ok) break;
      best1 = rep == 0 ? m1.millis : std::min(best1, m1.millis);
      best4 = rep == 0 ? m4.millis : std::min(best4, m4.millis);
    }
    if (!ok) break;
    double speedup = best4 > 0 ? best1 / best4 : 0;
    std::printf("%-24s %8d | %10.2f %10.2f | %8.2fx | %6zu\n", w.name, 300,
                best1, best4, speedup, m4.rows.size());
    report.Add(std::string(w.name) + ":threads=1", best1,
               m1.metrics.seeded_nodes, m1.metrics.matcher_steps,
               m1.rows.size());
    report.Add(std::string(w.name) + ":threads=4", best4,
               m4.metrics.seeded_nodes, m4.metrics.matcher_steps,
               m4.rows.size(), {{"speedup", speedup}});

    if (m1.rows != m4.rows) {
      std::fprintf(stderr,
                   "FAIL %s: 4-thread rows differ from sequential rows "
                   "(%zu vs %zu, or order changed)\n",
                   w.name, m4.rows.size(), m1.rows.size());
      ok = false;
    }
    if (m1.metrics.matcher_steps != m4.metrics.matcher_steps) {
      std::fprintf(stderr,
                   "FAIL %s: sharding changed the executed instruction "
                   "count (%zu vs %zu)\n",
                   w.name, m1.metrics.matcher_steps,
                   m4.metrics.matcher_steps);
      ok = false;
    }
    if (enforce_speedup && w.gate_speedup && speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL %s: 4-thread speedup %.2fx < 2x (%.2fms -> "
                   "%.2fms)\n",
                   w.name, speedup, best1, best4);
      ok = false;
    }
  }

  // --- plan-cache latency gate ---------------------------------------------
  // A cold graph so the first compilation pays stats collection + planning;
  // the second execution of the identical query hits the cache and must
  // compile >= 10x faster. Measured on Engine::Plan, the compile path that
  // Match shares, so match time does not drown the comparison.
  {
    PropertyGraph cold = MakeWorkloadGraph();
    Result<GraphPattern> pattern = ParseGraphPattern(kWorkloads[0].query);
    if (!pattern.ok()) {
      std::fprintf(stderr, "parse failed: %s\n",
                   pattern.status().ToString().c_str());
      return 1;
    }
    Engine engine(cold);

    auto start = std::chrono::steady_clock::now();
    Result<planner::Plan> miss = engine.Plan(*pattern);
    double miss_ms = MillisSince(start);
    if (!miss.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   miss.status().ToString().c_str());
      return 1;
    }

    double hit_ms = 0;
    constexpr int kHits = 10;
    for (int i = 0; i < kHits; ++i) {
      start = std::chrono::steady_clock::now();
      Result<planner::Plan> hit = engine.Plan(*pattern);
      double ms = MillisSince(start);
      if (!hit.ok()) {
        std::fprintf(stderr, "cached plan failed: %s\n",
                     hit.status().ToString().c_str());
        return 1;
      }
      hit_ms = i == 0 ? ms : std::min(hit_ms, ms);
    }
    double ratio = hit_ms > 0 ? miss_ms / hit_ms : 1e9;
    std::printf(
        "plan cache: first compile %.3fms, cached compile %.4fms "
        "(%.0fx faster)\n",
        miss_ms, hit_ms, ratio);
    report.Add("plan_cache:miss", miss_ms, 0, 0, 0);
    report.Add("plan_cache:hit", hit_ms, 0, 0, 0, {{"speedup", ratio}});
    if (ratio < 10.0) {
      std::fprintf(stderr,
                   "FAIL plan cache: hit only %.1fx faster than miss "
                   "(need >= 10x)\n",
                   ratio);
      ok = false;
    }
  }

  report.Write();
  std::printf(ok ? "parallel contract holds: identical ordered rows, "
                   "shared-work sharding, cached compiles\n"
                 : "parallel contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
