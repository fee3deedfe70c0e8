// Observability contract: what the telemetry that is on by default costs
// each execution, and that every telemetry surface is live. Like
// bench_planner this is a plain executable with a checked contract, run
// under ctest as a regression gate:
//
//  1. Publication counts (always enforced, every build type): a prepared,
//     index-seeded 1-hop lookup on a fraud graph, opened and drained
//     through a cursor like a GQL session, runs kCountExecs times with
//     telemetry off, at its defaults (registry, query stats, slow-query
//     capture armed) and fully on (plus EngineMetrics, a caller trace and
//     a sink that renders every trace). The heap allocations and mutex
//     acquisitions of those executions are pinned per configuration; the
//     difference to off is what one published execution adds. This
//     binary replaces operator new (alloc_count.h) and pthread_mutex_lock
//     (below) to count every call, so an allocation or a lock added
//     anywhere on the execution or publish path moves a pin.
//  2. Publication cost at microsecond scale (optimized, unsanitized builds
//     only): the same lookup timed in the three configurations in
//     interleaved reps. The per-execution cost (configuration minus off,
//     median and MAD over reps) goes to BENCH_obs.json; the medians are
//     gated at kPointDefaultBoundUs and kPointFullBoundUs.
//  3. Functional (always enforced): the Figure 4 fraud workload (300
//     accounts) run with the full stack produces telemetry — a span tree
//     with a closed "query" root, emitted JSON lines, advanced registry
//     counters, a well-formed Prometheus rendering, a slow-query capture
//     whose EXPLAIN ANALYZE text parses back — and the rows of the bare
//     run; a query-stats entry counts its executions exactly; and one
//     query text run over a graph and its reload with a different city
//     count (which flips the planner's anchor) surfaces as exactly one
//     recorded plan change.

#include <dlfcn.h>
#include <pthread.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/query_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "planner/explain.h"

namespace {

/// Mutex acquisitions through pthread_mutex_lock since the process
/// started; std::mutex::lock ends there, in this binary and in the C++
/// runtime alike.
std::atomic<size_t> g_locks{0};

using LockFn = int (*)(pthread_mutex_t*);
std::atomic<LockFn> g_real_lock{nullptr};

}  // namespace

extern "C" int pthread_mutex_lock(pthread_mutex_t* mutex) {
  g_locks.fetch_add(1, std::memory_order_relaxed);
  LockFn real = g_real_lock.load(std::memory_order_relaxed);
  if (real == nullptr) {
    real = reinterpret_cast<LockFn>(dlsym(RTLD_NEXT, "pthread_mutex_lock"));
    g_real_lock.store(real, std::memory_order_relaxed);
  }
  return real(mutex);
}

namespace gpml {
namespace {

constexpr char kFraudQuery[] =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)";

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Everything off: no metrics, no trace, no sink, no registry publication,
/// slow-query capture disabled.
EngineOptions OffOptions() {
  EngineOptions options;
  options.num_threads = 1;
  options.publish_metrics = false;
  options.publish_query_stats = false;
  options.slow_query_ms = -1;
  return options;
}

/// The full stack attached, slow threshold high enough to never fire.
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

/// Rows of one Engine::Match of the fraud query; 0 (and *ok = false) on
/// failure.
size_t RunFraud(const PropertyGraph& g, const EngineOptions& options,
                bool* ok) {
  Result<MatchOutput> out = Engine(g, options).Match(kFraudQuery);
  if (!out.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 out.status().ToString().c_str());
    *ok = false;
    return 0;
  }
  return out->rows.size();
}

// --- the published point lookup ---------------------------------------------

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
/// Per configuration (off, defaults, full); off is the baseline.
constexpr std::array<double, 3> kPointBoundsUs = {0, kPointDefaultBoundUs,
                                                  kPointFullBoundUs};

/// Executions the allocation and lock pins cover, after the warm-up.
constexpr int kCountExecs = 100;
const char* const kConfigNames[] = {"off", "default", "full"};
/// Heap allocations and mutex acquisitions of kCountExecs executions, per
/// configuration (off, defaults, full). Publication adds 1 allocation (the
/// span detail's declaration list, kept while a slow capture is armed) and
/// the query-stats store's one lock per execution at the defaults, and 9
/// allocations and that lock with the full stack.
constexpr std::array<size_t, 3> kCountAllocations = {5901, 6001, 6801};
constexpr std::array<size_t, 3> kCountLocks = {0, 100, 100};

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

/// Opens and drains `query` once per entry of `params` — the path GQL
/// sessions take — adding the rows to *rows; false on a failure.
bool RunPoints(const PreparedQuery& query, const std::vector<Params>& params,
               size_t* rows) {
  for (const Params& p : params) {
    Result<Cursor> cursor = query.Open(p);
    Result<MatchOutput> out =
        cursor.ok() ? cursor->Drain() : Result<MatchOutput>(cursor.status());
    if (!out.ok()) {
      std::fprintf(stderr, "point query failed: %s\n",
                   out.status().ToString().c_str());
      return false;
    }
    *rows += out->rows.size();
  }
  return true;
}

/// Mean wall time (us) of one execution over `params`.
double PointRepMicros(const PreparedQuery& query,
                      const std::vector<Params>& params, bool* ok,
                      size_t* rows) {
  auto start = std::chrono::steady_clock::now();
  *ok = RunPoints(query, params, rows) && *ok;
  return MillisSince(start) * 1e3 / static_cast<double>(params.size());
}

/// Contracts 1 and 2 on the point lookup.
void CheckPointPublication(bench::JsonReport* report, bool* ok) {
  FraudGraphOptions graph_options;
  graph_options.num_accounts = kPointAccounts;
  PropertyGraph pg = MakeFraudGraph(graph_options);
  EngineMetrics metrics;
  obs::Trace trace;
  CountingSink sink;
  obs::QueryStatsStore store;
  EngineOptions off = OffOptions();
  EngineOptions defaults;  // Production defaults, one thread.
  defaults.num_threads = 1;
  defaults.query_stats = &store;
  EngineOptions full = defaults;
  full.metrics = &metrics;
  full.trace = &trace;
  full.trace_sink = &sink;
  const std::array<const EngineOptions*, 3> configs = {&off, &defaults,
                                                       &full};
  std::vector<PreparedQuery> queries;
  for (const EngineOptions* options : configs) {
    Result<PreparedQuery> q = Engine(pg, *options).Prepare(kPointQuery);
    if (!q.ok()) {
      std::fprintf(stderr, "FAIL: point prepare: %s\n",
                   q.status().ToString().c_str());
      *ok = false;
      return;
    }
    queries.push_back(*q);
  }
  std::vector<Params> params;
  for (int i = 0; i < kPointExecsPerRep; ++i) {
    params.push_back(Params{
        {"owner", Value::String("u" + std::to_string(
                                          (i * 7919) % kPointAccounts))}});
  }
  bool point_ok = true;
  std::array<size_t, 3> rows = {0, 0, 0};
  for (size_t c = 0; c < configs.size(); ++c) {  // Warm-up.
    point_ok = RunPoints(queries[c], params, &rows[c]) && point_ok;
  }

  // --- contract 1: exact allocation and lock counts -----------------------
  const std::vector<Params> counted(params.begin(),
                                    params.begin() + kCountExecs);
  std::array<size_t, 3> allocations{}, locks{}, counted_rows{};
  for (size_t c = 0; c < configs.size() && point_ok; ++c) {
    const size_t allocations_before = bench::g_allocations.load();
    const size_t locks_before = g_locks.load();
    point_ok = RunPoints(queries[c], counted, &counted_rows[c]);
    allocations[c] = bench::g_allocations.load() - allocations_before;
    locks[c] = g_locks.load() - locks_before;
  }
  if (!point_ok) {
    *ok = false;
    return;
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    std::printf("point publication counts, %s: %zu allocations (pin %zu), "
                "%zu locks (pin %zu) over %d executions\n",
                kConfigNames[c], allocations[c], kCountAllocations[c],
                locks[c], kCountLocks[c], kCountExecs);
    if (allocations[c] != kCountAllocations[c] ||
        locks[c] != kCountLocks[c]) {
      std::fprintf(stderr, "FAIL: point publication counts (%s) moved off "
                   "their pins\n", kConfigNames[c]);
      *ok = false;
    }
  }

  // --- contract 2: microsecond-scale cost ---------------------------------
  // Each rep times every configuration once, rotating which goes first;
  // cost[c] is configuration c's time minus off's in the same rep.
  std::array<std::vector<double>, 3> us, cost;
  size_t reps_run = 0;
  auto measure_reps = [&] {
    for (int rep = 0; rep < kPointReps && point_ok; ++rep, ++reps_run) {
      std::array<double, 3> t = {0, 0, 0};
      for (size_t k = 0; k < configs.size(); ++k) {
        size_t c = (reps_run + k) % configs.size();
        t[c] = PointRepMicros(queries[c], params, &point_ok, &rows[c]);
        us[c].push_back(t[c]);
      }
      for (size_t c = 1; c < configs.size(); ++c) {
        cost[c].push_back(t[c] - t[0]);
      }
    }
  };
  auto over_bound = [&] {
    for (size_t c = 1; c < configs.size(); ++c) {
      if (bench::MedianSpread(cost[c]).median > kPointBoundsUs[c]) return true;
    }
    return false;
  };
  measure_reps();
  if (bench::WallGatesEnforced() && point_ok && over_bound()) {
    // One more round before declaring failure; the reps of both rounds
    // count, so a genuine regression still fails.
    std::printf("point publication over bound on first round; "
                "re-measuring\n");
    measure_reps();
  }
  if (!point_ok) {
    *ok = false;
    return;
  }
  if (rows[0] != rows[1] || rows[0] != rows[2] ||
      counted_rows[0] != counted_rows[1] ||
      counted_rows[0] != counted_rows[2]) {
    std::fprintf(stderr, "FAIL: telemetry changed point-lookup rows\n");
    *ok = false;
  }
  const size_t rows_per_rep = rows[0] / (reps_run + 1);
  for (size_t c = 0; c < configs.size(); ++c) {
    const double exec_us = bench::MedianSpread(us[c]).median;
    std::vector<std::pair<std::string, double>> extra = {
        {"allocations_per_exec",
         static_cast<double>(allocations[c]) / kCountExecs},
        {"locks_per_exec", static_cast<double>(locks[c]) / kCountExecs}};
    if (c == 0) {
      std::printf("point publication cost over %zu reps x %d execs: off "
                  "%.2fus/exec",
                  reps_run, kPointExecsPerRep, exec_us);
    } else {
      const bench::Spread added = bench::MedianSpread(cost[c]);
      std::printf(", %s %+.2fus (MAD %.2f, bound %.1f)", kConfigNames[c],
                  added.median, added.mad, kPointBoundsUs[c]);
      extra.push_back({"publication_us", added.median});
      extra.push_back({"publication_mad_us", added.mad});
      extra.push_back({"bound_us", kPointBoundsUs[c]});
    }
    report->Add(std::string("point1hop:obs=") + kConfigNames[c],
                exec_us / 1e3, 0, 0, rows_per_rep, std::move(extra));
  }
  std::printf("\n");
  if (!bench::WallGatesEnforced()) {
    std::printf("point publication gate: SKIPPED (sanitizer or "
                "unoptimized build distorts timings)\n");
  } else if (over_bound()) {
    std::fprintf(stderr, "FAIL: point publication cost per execution over "
                 "its bound (see above)\n");
    *ok = false;
  }
  if (sink.bytes() == 0 || trace.Find("query") == nullptr) {
    std::fprintf(stderr, "FAIL: point lookups emitted no traces\n");
    *ok = false;
  }
}

int RunBench() {
  bool ok = true;
  bench::JsonReport report("obs");

  CheckPointPublication(&report, &ok);

  // --- functional contract on fraud-300 ------------------------------------
  FraudGraphOptions fraud_options;
  fraud_options.num_accounts = 300;
  fraud_options.num_cities = 3;
  PropertyGraph g = MakeFraudGraph(fraud_options);
  EngineMetrics metrics;
  obs::Trace trace;
  obs::StringTraceSink sink;
  obs::QueryStatsStore full_store;
  auto start = std::chrono::steady_clock::now();
  const size_t rows_off = RunFraud(g, OffOptions(), &ok);
  const double off_ms = MillisSince(start);
  start = std::chrono::steady_clock::now();
  const size_t rows_on =
      RunFraud(g, OnOptions(&metrics, &trace, &sink, &full_store), &ok);
  const double on_ms = MillisSince(start);
  if (!ok) return 1;
  report.Add("fraud300:obs=off", off_ms, 0, 0, rows_off);
  report.Add("fraud300:obs=on", on_ms, metrics.seeded_nodes,
             metrics.matcher_steps, rows_on);
  if (rows_off != rows_on) {
    std::fprintf(stderr,
                 "FAIL: instrumentation changed the result (%zu vs %zu "
                 "rows)\n",
                 rows_off, rows_on);
    ok = false;
  }

  // The query-stats store must see every execution, exactly.
  constexpr size_t kStatsCalls = 3;
  obs::QueryStatsStore stats_store;
  EngineOptions stats = OffOptions();
  stats.publish_query_stats = true;
  stats.query_stats = &stats_store;
  for (size_t i = 0; i < kStatsCalls; ++i) RunFraud(g, stats, &ok);
  std::vector<obs::QueryStatEntry> recorded = stats_store.Snapshot();
  if (recorded.size() != 1 || recorded[0].calls != kStatsCalls ||
      recorded[0].rows != kStatsCalls * rows_off ||
      recorded[0].steps == 0) {
    std::fprintf(stderr,
                 "FAIL: query-stats entry does not match the workload "
                 "(%zu entries; want calls %zu rows %zu)\n",
                 recorded.size(), kStatsCalls, kStatsCalls * rows_off);
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

  // The telemetry of the full-stack run is all there.
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
  RunFraud(g, slow, &ok);
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
  std::printf(ok ? "observability contract holds: pinned publication "
                   "counts, live telemetry on all surfaces\n"
                 : "observability contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
