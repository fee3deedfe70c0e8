// Prepared-query + cursor API contracts on the Figure 4 fraud workload
// (300 accounts). Like the other bench gates this is a plain executable
// with checked contracts, run under ctest in the Release CI job:
//
//  1. Plan-cache contract (always enforced): 1000 executions of the
//     parameterized fraud query with 1000 distinct bound values produce
//     exactly 1 plan-cache miss — the first prepare compiles, everything
//     after hits, and EXPLAIN shows cached=true from the second execution
//     on. The literal-inlined rendition of the same workload is measured
//     alongside: every execution fingerprints differently, so it misses
//     (and churns) the cache on every call.
//
//  2. First-row contract (always enforced): on a single fixed-length
//     declaration the cursor streams out of the matcher in seed-order
//     chunks, so LIMIT 1 executes exactly kFirstRowSteps matcher steps
//     where full materialization executes kFullSteps (38x more), and the
//     streamed row is byte-identical to the materialized row 0. The wall
//     ratio of the two is reported, not gated.
//
//  3. Analysis-overhead contract: the static analyzer (docs/analysis.md)
//     runs on every cold Prepare, so its cost is gated against the rest of
//     the prepare pipeline — over the same cold prepares, the median of the
//     analyzer's own time (PreparedQuery::analysis_ms, timed by the
//     engine) must stay within 5% of the median prepare wall time outside
//     it, plus a small absolute epsilon (enforced only in optimized,
//     unsanitized builds: bench::WallGatesEnforced). Both terms come from the same calls; the medians and their
//     MADs are reported either way.
//
// Writes BENCH_query_api.json via bench_util.h.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "gql/session.h"
#include "graph/generator.h"
#include "planner/explain.h"

namespace gpml {
namespace {

constexpr int kAccounts = 300;
constexpr int kExecutions = 1000;
/// Matcher steps of the first-row workload: fully materialized, and
/// through a LIMIT 1 cursor.
constexpr size_t kFullSteps = 2455;
constexpr size_t kFirstRowSteps = 64;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

PropertyGraph MakeWorkloadGraph() {
  FraudGraphOptions options;
  options.num_accounts = kAccounts;
  options.num_cities = 3;
  return MakeFraudGraph(options);
}

bool Fail(const char* what) {
  std::fprintf(stderr, "CONTRACT FAILED: %s\n", what);
  return false;
}

/// Contract 1: 1000 literal-varying executions of the parameterized fraud
/// query share one compiled plan.
bool PlanCacheContract(bench::JsonReport* report) {
  Catalog catalog;
  if (!catalog.AddGraph("fraud", MakeWorkloadGraph()).ok()) return false;

  // The Figure 4 fraud pattern, parameterized on the suspect account's
  // owner (prepared-statement style: the client binds a fresh suspect per
  // call; $batch tags the projection, making all 1000 binding sets
  // distinct).
  const std::string parameterized =
      "MATCH (x:Account WHERE x.isBlocked='no' AND x.owner = $owner)"
      "-[:isLocatedIn]->(c:City WHERE c.name = $city)"
      "<-[:isLocatedIn]-(y:Account WHERE y.isBlocked='yes'), "
      "ANY (x)-[:Transfer]->+(y) "
      "RETURN x.owner AS suspect, y.owner AS receiver, $batch AS batch";

  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Session session(catalog, options);
  if (!session.UseGraph("fraud").ok()) return false;

  size_t misses = 0;
  size_t hits = 0;
  size_t rows = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kExecutions; ++i) {
    Params params = {{"owner", Value::String("u" + std::to_string(
                                                       i % kAccounts))},
                     {"city", Value::String("Ankh-Morpork")},
                     {"batch", Value::Int(i)}};
    Result<Table> table = session.Execute(parameterized, params);
    if (!table.ok()) {
      std::fprintf(stderr, "parameterized execution failed: %s\n",
                   table.status().ToString().c_str());
      return false;
    }
    rows += table->num_rows();
    misses += metrics.plan_cache_misses;
    hits += metrics.plan_cache_hits;
  }
  double param_ms = MillisSince(start);

  // EXPLAIN after the warm-up shows the cached plan.
  Result<Table> explain =
      session.Execute("EXPLAIN " + parameterized);
  bool explain_cached = false;
  if (explain.ok()) {
    for (const Row& row : explain->rows()) {
      if (row[0].ToString().find("cached=true") != std::string::npos) {
        explain_cached = true;
      }
    }
  }

  // The literal-inlined rendition: every execution is a distinct pattern
  // text, so the cache can never serve it.
  EngineMetrics lit_metrics;
  EngineOptions lit_options;
  lit_options.metrics = &lit_metrics;
  Session literal_session(catalog, lit_options);
  if (!literal_session.UseGraph("fraud").ok()) return false;
  size_t literal_hits = 0;
  auto lit_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kExecutions; ++i) {
    std::string text =
        "MATCH (x:Account WHERE x.isBlocked='no' AND x.owner = 'u" +
        std::to_string(i % kAccounts) +
        "')-[:isLocatedIn]->(c:City WHERE c.name = 'Ankh-Morpork')"
        "<-[:isLocatedIn]-(y:Account WHERE y.isBlocked='yes'), "
        "ANY (x)-[:Transfer]->+(y) "
        "RETURN x.owner AS suspect, y.owner AS receiver, " +
        std::to_string(i) + " AS batch";
    Result<Table> table = literal_session.Execute(text);
    if (!table.ok()) {
      std::fprintf(stderr, "literal execution failed: %s\n",
                   table.status().ToString().c_str());
      return false;
    }
    literal_hits += lit_metrics.plan_cache_hits;
  }
  double literal_ms = MillisSince(lit_start);

  std::printf(
      "plan cache: %d parameterized executions -> %zu miss(es), %zu hit(s) "
      "(%.1f ms); literal-inlined -> %zu hit(s) (%.1f ms); EXPLAIN "
      "cached=%s\n",
      kExecutions, misses, hits, param_ms, literal_hits, literal_ms,
      explain_cached ? "true" : "false");

  report->Add("plan_cache_parameterized", param_ms, 0, 0, rows,
              {{"executions", kExecutions},
               {"cache_misses", static_cast<double>(misses)},
               {"cache_hits", static_cast<double>(hits)}});
  report->Add("plan_cache_literal", literal_ms, 0, 0, rows,
              {{"executions", kExecutions},
               {"cache_hits", static_cast<double>(literal_hits)}});

  bool ok = true;
  if (misses != 1) ok = Fail("expected exactly 1 plan-cache miss");
  if (hits < static_cast<size_t>(kExecutions - 1)) {
    ok = Fail("expected >= 999/1000 plan-cache hits");
  }
  if (!explain_cached) ok = Fail("EXPLAIN must show cached=true after warmup");
  return ok;
}

/// Contract 2: LIMIT 1 through the streaming cursor executes its pinned
/// steps, 38x fewer than full materialization.
bool FirstRowContract(const PropertyGraph& g, bench::JsonReport* report) {
  const std::string query =
      "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->"
      "(y:Account WHERE y.isBlocked='no')";

  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(g, options);
  Result<PreparedQuery> prepared = engine.Prepare(query);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return false;
  }

  Result<MatchOutput> full = prepared->Execute();
  if (!full.ok() || full->rows.empty()) return Fail("full run failed/empty");
  const size_t full_steps = metrics.matcher_steps;
  const size_t full_rows = full->rows.size();

  Result<Cursor> first = prepared->Open({}, uint64_t{1});
  if (!first.ok()) return false;
  RowView view;
  Result<bool> more = first->Next(&view);
  if (!more.ok() || !*more) return Fail("cursor produced no first row");
  const size_t first_steps = metrics.matcher_steps;

  // Byte-identity of the streamed prefix.
  {
    std::string a;
    for (const auto& pb : view.row->bindings) {
      a += pb->ToString(g, *view.context->vars);
    }
    std::string b;
    for (const auto& pb : full->rows[0].bindings) {
      b += pb->ToString(g, *full->vars);
    }
    if (a != b) return Fail("streamed first row differs from Match row 0");
  }

  // Wall time over repetitions (plan cache warm, prepared reused), for
  // the report.
  constexpr int kReps = 200;
  auto full_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    Result<MatchOutput> out = prepared->Execute();
    if (!out.ok()) return false;
  }
  double full_ms = MillisSince(full_start) / kReps;

  auto stream_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) {
    Result<Cursor> cursor = prepared->Open({}, uint64_t{1});
    if (!cursor.ok()) return false;
    RowView v;
    Result<bool> got = cursor->Next(&v);
    if (!got.ok() || !*got) return false;
  }
  double stream_ms = MillisSince(stream_start) / kReps;

  double step_ratio = static_cast<double>(full_steps) /
                      static_cast<double>(first_steps == 0 ? 1 : first_steps);
  double wall_ratio = stream_ms > 0 ? full_ms / stream_ms : 0;
  std::printf(
      "first row: full %zu steps / %.4f ms vs LIMIT 1 %zu steps / %.4f ms "
      "(step ratio %.1fx, wall ratio %.1fx, %zu rows)\n",
      full_steps, full_ms, first_steps, stream_ms, step_ratio, wall_ratio,
      full_rows);

  report->Add("limit1_full", full_ms, 0, full_steps, full_rows);
  report->Add("limit1_stream", stream_ms, 0, first_steps, 1,
              {{"step_ratio", step_ratio}, {"wall_ratio", wall_ratio}});

  if (full_steps != kFullSteps || first_steps != kFirstRowSteps) {
    return Fail("first-row steps moved off their pins (full / LIMIT 1)");
  }
  return true;
}

/// Contract 3: static analysis adds <= 5% to a cold prepare. The plan
/// cache is emptied before every Prepare, so each one pays the full
/// parse/normalize/analyze/plan/compile cost.
bool AnalysisOverheadContract(const PropertyGraph& g,
                              bench::JsonReport* report) {
  const std::string query =
      "MATCH (x:Account WHERE x.isBlocked='no' AND x.owner = $owner)"
      "-[:isLocatedIn]->(c:City WHERE c.name = $city)"
      "<-[:isLocatedIn]-(y:Account WHERE y.isBlocked='yes'), "
      "ANY (x)-[:Transfer]->+(y)";
  constexpr int kReps = 300;

  EngineOptions options;
  options.publish_metrics = false;
  Engine engine(g, options);

  std::vector<double> prepare_samples, analysis_samples, rest_samples;
  for (int i = -20; i < kReps; ++i) {
    g.set_plan_cache(nullptr);  // Every Prepare is a cold compile.
    auto start = std::chrono::steady_clock::now();
    Result<PreparedQuery> q = engine.Prepare(query);
    double wall_ms = MillisSince(start);
    if (!q.ok() || q->from_cache()) return Fail("cold prepare failed");
    if (i < 0) continue;  // Warmup reps.
    prepare_samples.push_back(wall_ms);
    analysis_samples.push_back(q->analysis_ms());
    rest_samples.push_back(wall_ms - q->analysis_ms());
  }
  const bench::Spread analysis = bench::MedianSpread(analysis_samples);
  const bench::Spread rest = bench::MedianSpread(rest_samples);

  double overhead_pct =
      rest.median > 0 ? analysis.median / rest.median * 100.0 : 0;
  std::printf(
      "analysis overhead: analyzer pass %.4f ms (MAD %.4f), rest of the "
      "cold prepare %.4f ms (MAD %.4f): %.1f%%\n",
      analysis.median, analysis.mad, rest.median, rest.mad, overhead_pct);

  report->Add("prepare_cold", bench::MedianSpread(prepare_samples).median, 0,
              0, 0,
              {{"reps", kReps},
               {"analysis_pass_ms", analysis.median},
               {"analysis_mad_ms", analysis.mad},
               {"rest_mad_ms", rest.mad},
               {"overhead_pct", overhead_pct}});

  bool ok = true;
  // 5% relative plus 5us absolute: sub-millisecond prepares jitter by
  // scheduler noise alone, which a pure ratio would amplify.
  if (!bench::WallGatesEnforced()) {
    std::printf("analysis gate: SKIPPED (sanitizer or unoptimized build "
                "distorts timings)\n");
  } else if (analysis.median > rest.median * 0.05 + 0.005) {
    ok = Fail("analysis must add <= 5% to cold prepare latency");
  }
  return ok;
}

}  // namespace
}  // namespace gpml

int main() {
  gpml::PropertyGraph g = gpml::MakeWorkloadGraph();
  gpml::bench::JsonReport report("query_api");
  bool ok = true;
  ok = gpml::PlanCacheContract(&report) && ok;
  ok = gpml::FirstRowContract(g, &report) && ok;
  ok = gpml::AnalysisOverheadContract(g, &report) && ok;
  report.Write();
  if (!ok) return 1;
  std::printf("bench_query_api: all contracts PASSED\n");
  return 0;
}
