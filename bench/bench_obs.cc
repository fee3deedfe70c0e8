// Observability-overhead contract on the Figure 4 fraud workload (300
// accounts). Like bench_planner this is a plain executable with a checked
// contract, run under ctest as a regression gate:
//
//  1. Overhead (enforced only in optimized, unsanitized builds): running
//     with the full observability stack attached — EngineMetrics, a Trace,
//     a TraceSink, registry publication, slow-query capture armed — must
//     cost <= 2% wall time vs running with everything off. This is the
//     contract that lets instrumentation stay on by default
//     (docs/observability.md).
//  2. Query-stats overhead (same build gating): recording into the
//     per-fingerprint statistics store (obs/query_stats.h), with everything
//     else off, must also cost <= 2% wall time vs the bare baseline.
//  3. Publication cost at microsecond scale (same build gating): the 2%
//     gates above run a query of hundreds of milliseconds and cannot see a
//     fixed per-execution cost. A prepared, index-seeded 1-hop lookup on a
//     fraud graph (~10us per execution, drained through a cursor like a
//     GQL session) is timed with telemetry off, at its defaults (registry,
//     query stats, slow-query capture armed) and fully on (plus
//     EngineMetrics, a caller trace and a sink), in interleaved reps. The
//     per-execution cost (on minus off, median and MAD over reps) goes to
//     BENCH_obs.json; the medians are gated at kPointDefaultBoundUs and
//     kPointFullBoundUs.
//  4. Functional (always enforced): the instrumented run actually produced
//     telemetry — span tree with a closed "query" root, emitted JSON lines,
//     advanced registry counters, a well-formed Prometheus rendering, a
//     slow-query capture whose EXPLAIN ANALYZE text parses back, an exact
//     per-fingerprint stats entry, and one query text run over a graph
//     and its reload with a different city count (which flips the
//     planner's anchor) surfacing as exactly one recorded plan change.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/query_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "planner/explain.h"

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

constexpr char kFraudQuery[] =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)";

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

/// Everything off: no metrics, no trace, no sink, no registry publication,
/// slow-query capture disabled. The baseline the 2% budget is against.
EngineOptions OffOptions() {
  EngineOptions options;
  options.num_threads = 1;  // Single-threaded for timing stability.
  options.publish_metrics = false;
  options.publish_query_stats = false;
  options.slow_query_ms = -1;
  return options;
}

/// The full stack attached, slow threshold high enough to never fire
/// during the timed loop (capture itself is measured separately).
EngineOptions OnOptions(EngineMetrics* metrics, obs::Trace* trace,
                        obs::TraceSink* sink, obs::QueryStatsStore* stats) {
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = metrics;
  options.trace = trace;
  options.trace_sink = sink;
  options.publish_metrics = true;
  options.publish_query_stats = true;
  options.query_stats = stats;
  options.slow_query_ms = 1e9;
  return options;
}

double MeasureOnce(const PropertyGraph& g, const EngineOptions& options,
                   bool* ok, size_t* rows) {
  Engine engine(g, options);
  auto start = std::chrono::steady_clock::now();
  Result<MatchOutput> out = engine.Match(kFraudQuery);
  double ms = MillisSince(start);
  if (!out.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 out.status().ToString().c_str());
    *ok = false;
    return ms;
  }
  *rows = out->rows.size();
  return ms;
}

// --- microsecond-scale publication cost --------------------------------------

constexpr char kPointQuery[] =
    "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)";
constexpr int kPointAccounts = 3000;
constexpr int kPointExecsPerRep = 3000;
constexpr int kPointReps = 21;
/// Bounds on the median per-execution publication cost, from the spread of
/// 11 runs on a 4-vCPU shared host (CHANGES.md lists them): each bound is
/// the highest median seen plus twice the range of the medians. Defaults:
/// medians 0.29-0.72us -> 1.6us, below the 1.9-3.5us of a publisher that
/// looks every metric up by name and builds a trace per execution.
/// Full stack: medians 1.36-2.34us -> 4.3us.
constexpr double kPointDefaultBoundUs = 1.6;
constexpr double kPointFullBoundUs = 4.3;

/// A sink that renders every trace like a real one would and keeps only
/// the byte count, so a long timed loop does not grow memory.
class CountingSink : public obs::TraceSink {
 public:
  void Emit(const obs::Trace& trace) override {
    bytes_ += trace.ToJsonLines().size();
  }
  size_t bytes() const { return bytes_; }

 private:
  size_t bytes_ = 0;
};

/// Mean wall time (us) of one execution of `query` over `params`, each
/// opened and drained through a cursor — the path GQL sessions take.
double PointRepMicros(const PreparedQuery& query,
                      const std::vector<Params>& params, bool* ok,
                      size_t* rows) {
  auto start = std::chrono::steady_clock::now();
  for (const Params& p : params) {
    Result<Cursor> cursor = query.Open(p);
    Result<MatchOutput> out =
        cursor.ok() ? cursor->Drain() : Result<MatchOutput>(cursor.status());
    if (!out.ok()) {
      std::fprintf(stderr, "point query failed: %s\n",
                   out.status().ToString().c_str());
      *ok = false;
      return 0;
    }
    *rows += out->rows.size();
  }
  return MillisSince(start) * 1e3 / static_cast<double>(params.size());
}

double Median(const std::vector<double>& v) {
  return bench::Percentile(v, 50);
}

/// Median absolute deviation from the median.
double Mad(const std::vector<double>& v) {
  double m = Median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (double x : v) dev.push_back(x > m ? x - m : m - x);
  return Median(dev);
}

bool OverheadGateActive() {
#ifdef GPML_BENCH_SANITIZED
  return false;
#elif !defined(NDEBUG)
  return false;
#else
  return true;
#endif
}

int RunBench() {
  bool ok = true;
  bench::JsonReport report("obs");
  PropertyGraph g = MakeWorkloadGraph();

  EngineMetrics metrics;
  obs::Trace trace;
  obs::StringTraceSink sink;
  obs::QueryStatsStore full_store;
  EngineOptions off = OffOptions();
  EngineOptions on = OnOptions(&metrics, &trace, &sink, &full_store);

  // Warm the plan cache, stats, and label indexes so both sides measure
  // pure matching work.
  size_t rows_off = 0, rows_on = 0;
  MeasureOnce(g, off, &ok, &rows_off);
  MeasureOnce(g, on, &ok, &rows_on);
  if (!ok) return 1;

  // Interleaved pairs, alternating which configuration goes first each
  // repetition: the two runs of a pair are adjacent in time, so slow
  // thermal/clock drift and a shared host's load phases hit both alike,
  // and alternation cancels any first-vs-second bias within a pair. The
  // overhead is the median over pairs of on/off - 1, which also ignores
  // the few pairs a phase change splits. (Comparing each side's fastest
  // run instead rests on two single samples: A/A rounds of it read from
  // -16% to +11% on a 4-vCPU shared host, the paired median within ±3%.)
  // Minima are still reported as each side's best time.
  constexpr int kRepetitions = 60;
  std::vector<double> on_ratios;
  auto measure_pair = [&](double* best_off, double* best_on) {
    for (int rep = 0; rep < kRepetitions && ok; ++rep) {
      double ms_off, ms_on;
      if (rep % 2 == 0) {
        ms_off = MeasureOnce(g, off, &ok, &rows_off);
        ms_on = MeasureOnce(g, on, &ok, &rows_on);
      } else {
        ms_on = MeasureOnce(g, on, &ok, &rows_on);
        ms_off = MeasureOnce(g, off, &ok, &rows_off);
      }
      *best_off = std::min(*best_off, ms_off);
      *best_on = std::min(*best_on, ms_on);
      if (ms_off > 0) on_ratios.push_back(ms_on / ms_off);
    }
  };
  auto overhead = [](const std::vector<double>& ratios) {
    return ratios.empty() ? 0 : (Median(ratios) - 1.0) * 100.0;
  };
  double best_off = 1e300, best_on = 1e300;
  measure_pair(&best_off, &best_on);
  if (OverheadGateActive() && ok && overhead(on_ratios) > 2.0) {
    // One retry before declaring failure: the first round may have run on
    // a machine still hot or loaded from an earlier bench gate. Pairs
    // accumulate across rounds, so a genuine regression still fails.
    std::printf("overhead %.2f%% on first round; re-measuring\n",
                overhead(on_ratios));
    measure_pair(&best_off, &best_on);
  }
  if (!ok) return 1;

  double overhead_pct = overhead(on_ratios);
  std::printf(
      "observability overhead: %+.2f%% (median of %zu pairs; best off "
      "%.3fms, on %.3fms), rows %zu\n",
      overhead_pct, on_ratios.size(), best_off, best_on, rows_on);
  report.Add("fraud300:obs=off", best_off, 0, 0, rows_off);
  report.Add("fraud300:obs=on", best_on, metrics.seeded_nodes,
             metrics.matcher_steps, rows_on,
             {{"overhead_pct", overhead_pct}});

  if (rows_off != rows_on) {
    std::fprintf(stderr, "FAIL: instrumentation changed the result (%zu vs %zu rows)\n",
                 rows_off, rows_on);
    ok = false;
  }
  if (!OverheadGateActive()) {
    std::printf(
        "overhead gate: SKIPPED (sanitizer or unoptimized build distorts "
        "timings)\n");
  } else if (overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% > 2%% "
                 "(best off %.3fms, on %.3fms)\n",
                 overhead_pct, best_off, best_on);
    ok = false;
  }

  // --- query-stats recording alone, against the same 2% budget -----------
  // Everything else stays off so the gate isolates what the per-fingerprint
  // store adds to every execution (docs/observability.md).
  obs::QueryStatsStore stats_store;
  EngineOptions stats = OffOptions();
  stats.publish_query_stats = true;
  stats.query_stats = &stats_store;
  size_t rows_stats = 0;
  size_t stats_calls = 0;
  MeasureOnce(g, stats, &ok, &rows_stats);  // Warm, like the main gate.
  ++stats_calls;
  if (!ok) return 1;
  std::vector<double> stats_ratios;
  auto measure_stats_pair = [&](double* best_base, double* best_stats) {
    for (int rep = 0; rep < kRepetitions && ok; ++rep) {
      double ms_base, ms_stats;
      if (rep % 2 == 0) {
        ms_base = MeasureOnce(g, off, &ok, &rows_off);
        ms_stats = MeasureOnce(g, stats, &ok, &rows_stats);
      } else {
        ms_stats = MeasureOnce(g, stats, &ok, &rows_stats);
        ms_base = MeasureOnce(g, off, &ok, &rows_off);
      }
      ++stats_calls;
      *best_base = std::min(*best_base, ms_base);
      *best_stats = std::min(*best_stats, ms_stats);
      if (ms_base > 0) stats_ratios.push_back(ms_stats / ms_base);
    }
  };
  double best_base = 1e300, best_stats = 1e300;
  measure_stats_pair(&best_base, &best_stats);
  if (OverheadGateActive() && ok && overhead(stats_ratios) > 2.0) {
    std::printf("query-stats overhead %.2f%% on first round; re-measuring\n",
                overhead(stats_ratios));
    measure_stats_pair(&best_base, &best_stats);
  }
  if (!ok) return 1;
  double stats_overhead_pct = overhead(stats_ratios);
  std::printf(
      "query-stats overhead: %+.2f%% (median of %zu pairs; best off "
      "%.3fms, stats %.3fms)\n",
      stats_overhead_pct, stats_ratios.size(), best_base, best_stats);
  report.Add("fraud300:stats=on", best_stats, 0, 0, rows_stats,
             {{"overhead_pct", stats_overhead_pct}});
  if (!OverheadGateActive()) {
    std::printf("query-stats gate: SKIPPED (sanitizer or unoptimized build "
                "distorts timings)\n");
  } else if (stats_overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: query-stats overhead %.2f%% > 2%% "
                 "(best off %.3fms, stats %.3fms)\n",
                 stats_overhead_pct, best_base, best_stats);
    ok = false;
  }

  // The store must have seen every instrumented execution, exactly.
  std::vector<obs::QueryStatEntry> recorded = stats_store.Snapshot();
  if (recorded.size() != 1 || recorded[0].calls != stats_calls ||
      recorded[0].rows != stats_calls * rows_stats ||
      recorded[0].steps == 0) {
    std::fprintf(stderr,
                 "FAIL: query-stats entry does not match the workload "
                 "(%zu entries; want calls %zu rows %zu)\n",
                 recorded.size(), stats_calls, stats_calls * rows_stats);
    ok = false;
  }

  // Plan-change regression detection: the same text run over a graph and
  // its reload with more cities than accounts, which mirrors the plan to
  // the Account end, must surface as exactly one plan change.
  {
    const char* flip_query = "MATCH (c:City)<-[:isLocatedIn]-(x:Account)";
    FraudGraphOptions reload_options;
    reload_options.num_accounts = 60;
    reload_options.num_cities = 2;
    PropertyGraph before = MakeFraudGraph(reload_options);
    reload_options.num_cities = 600;
    PropertyGraph after = MakeFraudGraph(reload_options);
    obs::QueryStatsStore change_store;
    EngineOptions recorded_options = OffOptions();
    recorded_options.publish_query_stats = true;
    recorded_options.query_stats = &change_store;
    Engine before_engine(before, recorded_options);
    Engine after_engine(after, recorded_options);
    Result<std::string> before_plan = before_engine.Explain(flip_query);
    Result<std::string> after_plan = after_engine.Explain(flip_query);
    bool ran = before_plan.ok() && after_plan.ok() &&
               before_plan->find("dir=forward") != std::string::npos &&
               after_plan->find("dir=reversed") != std::string::npos &&
               before_engine.Match(flip_query).ok() &&
               after_engine.Match(flip_query).ok() &&
               after_engine.Match(flip_query).ok();
    std::vector<obs::QueryStatEntry> changed = change_store.Snapshot();
    if (!ran || changed.size() != 1 || !changed[0].plan_changed ||
        changed[0].plan_changes != 1 || changed[0].plans.size() != 2) {
      std::fprintf(stderr,
                   "FAIL: graph reload did not record exactly one plan "
                   "change (%zu entries)\n",
                   changed.size());
      ok = false;
    }
  }

  // --- microsecond-scale publication cost ----------------------------------
  {
    FraudGraphOptions point_graph_options;
    point_graph_options.num_accounts = kPointAccounts;
    PropertyGraph pg = MakeFraudGraph(point_graph_options);
    EngineMetrics point_metrics;
    obs::Trace point_trace;
    CountingSink point_sink;
    obs::QueryStatsStore point_store;
    EngineOptions point_off = OffOptions();
    EngineOptions point_default;  // Production defaults, one thread.
    point_default.num_threads = 1;
    point_default.query_stats = &point_store;
    EngineOptions point_full = point_default;
    point_full.metrics = &point_metrics;
    point_full.trace = &point_trace;
    point_full.trace_sink = &point_sink;
    const std::array<const EngineOptions*, 3> configs = {
        &point_off, &point_default, &point_full};
    std::vector<PreparedQuery> queries;
    for (const EngineOptions* options : configs) {
      Result<PreparedQuery> q = Engine(pg, *options).Prepare(kPointQuery);
      if (!q.ok()) {
        std::fprintf(stderr, "FAIL: point prepare: %s\n",
                     q.status().ToString().c_str());
        return 1;
      }
      queries.push_back(*q);
    }
    std::vector<Params> params;
    for (int i = 0; i < kPointExecsPerRep; ++i) {
      params.push_back(Params{
          {"owner", Value::String("u" + std::to_string(
                                            (i * 7919) % kPointAccounts))}});
    }
    bool point_ok = true;  // Apart from `ok`: earlier gates may have failed.
    std::array<size_t, 3> point_rows = {0, 0, 0};
    for (size_t c = 0; c < configs.size(); ++c) {  // Warm-up.
      PointRepMicros(queries[c], params, &point_ok, &point_rows[c]);
    }
    // Each rep times every configuration once, rotating which goes first.
    std::array<std::vector<double>, 3> us;
    std::vector<double> cost_default, cost_full;
    size_t reps_run = 0;
    auto measure_reps = [&] {
      for (int rep = 0; rep < kPointReps && point_ok; ++rep, ++reps_run) {
        std::array<double, 3> t = {0, 0, 0};
        for (size_t k = 0; k < configs.size(); ++k) {
          size_t c = (reps_run + k) % configs.size();
          t[c] = PointRepMicros(queries[c], params, &point_ok, &point_rows[c]);
          us[c].push_back(t[c]);
        }
        cost_default.push_back(t[1] - t[0]);
        cost_full.push_back(t[2] - t[0]);
      }
    };
    auto over_bound = [&] {
      return Median(cost_default) > kPointDefaultBoundUs ||
             Median(cost_full) > kPointFullBoundUs;
    };
    measure_reps();
    if (OverheadGateActive() && point_ok && over_bound()) {
      // One more round before declaring failure, as above; the reps of
      // both rounds count, so a genuine regression still fails.
      std::printf("point publication over bound on first round; "
                  "re-measuring\n");
      measure_reps();
    }
    if (!point_ok) return 1;
    if (point_rows[0] != point_rows[1] || point_rows[0] != point_rows[2]) {
      std::fprintf(stderr, "FAIL: telemetry changed point-lookup rows\n");
      ok = false;
    }
    const double off_us = Median(us[0]);
    const double default_cost = Median(cost_default);
    const double full_cost = Median(cost_full);
    std::printf(
        "point publication cost: off %.2fus/exec, defaults %+.2fus "
        "(MAD %.2f), full %+.2fus (MAD %.2f) over %zu reps x %d execs\n",
        off_us, default_cost, Mad(cost_default), full_cost, Mad(cost_full),
        reps_run, kPointExecsPerRep);
    const size_t rows_per_rep = point_rows[0] / (reps_run + 1);
    report.Add("point1hop:obs=off", off_us / 1e3, 0, 0, rows_per_rep);
    report.Add("point1hop:obs=default", Median(us[1]) / 1e3, 0, 0,
               rows_per_rep,
               {{"publication_us", default_cost},
                {"publication_mad_us", Mad(cost_default)},
                {"bound_us", kPointDefaultBoundUs}});
    report.Add("point1hop:obs=full", Median(us[2]) / 1e3, 0, 0, rows_per_rep,
               {{"publication_us", full_cost},
                {"publication_mad_us", Mad(cost_full)},
                {"bound_us", kPointFullBoundUs}});
    if (!OverheadGateActive()) {
      std::printf("point publication gate: SKIPPED (sanitizer or "
                  "unoptimized build distorts timings)\n");
    } else if (over_bound()) {
      std::fprintf(stderr,
                   "FAIL: point publication cost per execution: defaults "
                   "%.2fus (bound %.1f), full %.2fus (bound %.1f)\n",
                   default_cost, kPointDefaultBoundUs, full_cost,
                   kPointFullBoundUs);
      ok = false;
    }
    if (point_sink.bytes() == 0 || point_trace.Find("query") == nullptr) {
      std::fprintf(stderr, "FAIL: point lookups emitted no traces\n");
      ok = false;
    }
  }

  // --- functional contract: the telemetry is actually there ---------------
  const obs::Span* root = trace.Find("query");
  if (trace.empty() || root == nullptr || root->duration_us < 0) {
    std::fprintf(stderr, "FAIL: no closed 'query' span in the trace\n");
    ok = false;
  }
  if (sink.traces_emitted() == 0 ||
      sink.TakeOutput().find("\"span\":\"query\"") == std::string::npos) {
    std::fprintf(stderr, "FAIL: trace sink received no query span\n");
    ok = false;
  }
  obs::MetricsSnapshot snapshot = g.metrics_registry()->Snapshot();
  if (snapshot.CounterValue("gpml_executions_total") == 0 ||
      snapshot.CounterValue("gpml_rows_total") == 0) {
    std::fprintf(stderr, "FAIL: registry counters did not advance\n");
    ok = false;
  }
  std::string prom = obs::RenderPrometheus(snapshot);
  if (prom.find("# TYPE gpml_executions_total counter") == std::string::npos ||
      prom.find("gpml_query_duration_us_bucket") == std::string::npos) {
    std::fprintf(stderr, "FAIL: Prometheus rendering incomplete:\n%s\n",
                 prom.c_str());
    ok = false;
  }

  // Slow-query capture: threshold 0 sends this run into a private log; its
  // EXPLAIN ANALYZE text must parse back (the ms= roundtrip contract).
  obs::SlowQueryLog slow_log(4);
  EngineOptions slow = OnOptions(&metrics, &trace, &sink, &full_store);
  slow.slow_query_ms = 0;
  slow.slow_log = &slow_log;
  size_t rows_slow = 0;
  MeasureOnce(g, slow, &ok, &rows_slow);
  std::vector<obs::SlowQueryRecord> captured = slow_log.Snapshot();
  if (captured.empty()) {
    std::fprintf(stderr, "FAIL: slow-query capture did not fire\n");
    ok = false;
  } else {
    const obs::SlowQueryRecord& rec = captured.back();
    Result<planner::ExplainedPlan> parsed = planner::ParseExplain(rec.explain);
    if (rec.fingerprint.empty() || rec.trace_json.empty() || !parsed.ok() ||
        !parsed->analyzed || parsed->total_ms < 0) {
      std::fprintf(stderr, "FAIL: slow-query record incomplete:\n%s\n",
                   rec.explain.c_str());
      ok = false;
    }
  }

  report.Write();
  std::printf(ok ? "observability contract holds: <= 2%% overhead, live "
                   "telemetry on all surfaces\n"
                 : "observability contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
