// The observability layer (docs/observability.md): the metrics registry's
// counter/histogram semantics (including exactness under concurrent
// increments — run under TSan in CI), the engine's span-tree tracing across
// the {threads} x {cache} execution matrix, Prometheus
// text-format rendering validated against the exposition-format grammar,
// the slow-query ring buffer and its engine capture path, streaming-cursor
// publication semantics, and both hosts' retrieval surfaces.

#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "eval/engine.h"
#include "gql/session.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/query_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "pgq/graph_table.h"
#include "planner/explain.h"

namespace gpml {
namespace {

const char* kFraudQuery =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)";

// Single fixed-length declaration: takes the cursor's chunked stream mode.
const char* kStreamQuery =
    "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->(y:Account)";
// Streamed too, but on the scalar DFS: no kernel compiles IS NOT NULL.
const char* kScalarStreamQuery =
    "MATCH (x:Account WHERE x.isBlocked IS NOT NULL)-[t:Transfer]->"
    "(y:Account)";

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsTest, CounterHandleAndSnapshot) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("test_total");
  ASSERT_NE(c, nullptr);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name, same handle: hot paths resolve once and keep the pointer.
  EXPECT_EQ(registry.GetCounter("test_total"), c);

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("test_total"), 42u);
  EXPECT_EQ(snap.CounterValue("never_registered_total"), 0u);
}

TEST(MetricsTest, HistogramBucketsAreLogScaled) {
  // BucketIndex picks the smallest i with value <= 2^i.
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(uint64_t{1} << 26), 26u);
  // Past the last finite bound: the overflow slot.
  EXPECT_EQ(obs::Histogram::BucketIndex((uint64_t{1} << 26) + 1),
            obs::Histogram::kNumBounds);

  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("lat_us");
  ASSERT_NE(h, nullptr);
  h->Observe(1);
  h->Observe(100);   // <= 128 = 2^7.
  h->Observe(1000);  // <= 1024 = 2^10.
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum_us(), 1101u);
  EXPECT_EQ(h->bucket(0), 1u);
  EXPECT_EQ(h->bucket(7), 1u);
  EXPECT_EQ(h->bucket(10), 1u);

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  const obs::HistogramSnapshot* snap = snapshot.FindHistogram("lat_us");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, 3u);
  EXPECT_EQ(snap->sum_us, 1101u);
  ASSERT_EQ(snap->buckets.size(), obs::Histogram::kNumBounds + 1);
  EXPECT_EQ(snap->buckets[7], 1u);
}

TEST(MetricsTest, TypeMismatchReturnsNull) {
  obs::MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("name_total"), nullptr);
  EXPECT_EQ(registry.GetHistogram("name_total"), nullptr);
  ASSERT_NE(registry.GetHistogram("lat_us"), nullptr);
  EXPECT_EQ(registry.GetCounter("lat_us"), nullptr);
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  // The lock-free contract: concurrent relaxed adds lose nothing. CI runs
  // this under TSan (see .github/workflows/ci.yml).
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Each thread resolves its own handles (exercises the registration
      // mutex) and then hammers the shared atomics.
      obs::Counter* c = registry.GetCounter("race_total");
      obs::Histogram* h = registry.GetHistogram("race_us");
      for (int i = 0; i < kIters; ++i) {
        c->Increment();
        h->Observe(static_cast<uint64_t>(i % 1000));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("race_total"),
            static_cast<uint64_t>(kThreads) * kIters);
  const obs::HistogramSnapshot* h = snap.FindHistogram("race_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<uint64_t>(kThreads) * kIters);
  uint64_t bucket_sum = 0;
  for (uint64_t b : h->buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, h->count) << "every observation lands in a bucket";
}

TEST(MetricsTest, AggregateSumsAcrossRegistries) {
  // Two graphs, one query each: the process-wide aggregate sees both
  // executions (other live registries may add more, never less).
  PropertyGraph a = BuildPaperGraph();
  PropertyGraph b = BuildPaperGraph();
  uint64_t before =
      obs::AggregateAllRegistries().CounterValue("gpml_executions_total");
  ASSERT_TRUE(Engine(a).Match(kStreamQuery).ok());
  ASSERT_TRUE(Engine(b).Match(kStreamQuery).ok());
  EXPECT_EQ(a.metrics_registry()->Snapshot().CounterValue(
                "gpml_executions_total"),
            1u);
  EXPECT_GE(
      obs::AggregateAllRegistries().CounterValue("gpml_executions_total"),
      before + 2);
}

// --- Trace -------------------------------------------------------------------

TEST(TraceTest, SpanTreeBasics) {
  obs::Trace trace;
  EXPECT_TRUE(trace.empty());
  int root = trace.Begin("query");
  int child = trace.Begin("plan", root);
  trace.Attr(child, "cached", "false");
  trace.End(child);
  trace.End(root);
  int replayed = trace.AddComplete("shard", root, 5, 17);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[child].parent, root);
  EXPECT_EQ(trace.spans()[root].parent, obs::Trace::kNoParent);
  EXPECT_GE(trace.spans()[root].duration_us, 0);
  EXPECT_EQ(trace.spans()[replayed].start_us, 5u);
  EXPECT_EQ(trace.spans()[replayed].duration_us, 17);

  const obs::Span* found = trace.Find("plan");
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->attrs.size(), 1u);
  EXPECT_EQ(found->attrs[0].first, "cached");
  EXPECT_DOUBLE_EQ(trace.TotalMs("shard"), 0.017);

  std::string json = trace.ToJsonLines();
  EXPECT_NE(json.find("{\"span\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"attrs\":{\"cached\":\"false\"}"), std::string::npos)
      << json;

  trace.Clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.Find("query"), nullptr);
}

/// Asserts the engine-built span tree is well formed: a closed "query"
/// root, a "plan" span with the expected cached attribute, per-declaration
/// "decl" spans owning "seed" and "shard" children, valid parent indices,
/// and no span left open.
void CheckEngineTrace(const obs::Trace& trace, bool expect_cached,
                      const std::string& config) {
  ASSERT_FALSE(trace.empty()) << config;
  const std::vector<obs::Span>& spans = trace.spans();
  const obs::Span* root = trace.Find("query");
  ASSERT_NE(root, nullptr) << config;
  EXPECT_EQ(root->parent, obs::Trace::kNoParent) << config;

  size_t decls = 0, seeds = 0, shards = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    EXPECT_GE(s.duration_us, 0) << config << ": open span " << s.name;
    if (s.parent != obs::Trace::kNoParent) {
      ASSERT_GE(s.parent, 0) << config;
      ASSERT_LT(static_cast<size_t>(s.parent), i)
          << config << ": parents precede children";
    }
    if (s.name == "decl") ++decls;
    if (s.name == "seed") {
      ++seeds;
      EXPECT_EQ(spans[s.parent].name, "decl") << config;
    }
    if (s.name == "shard") {
      ++shards;
      EXPECT_EQ(spans[s.parent].name, "decl") << config;
    }
  }
  EXPECT_EQ(decls, 2u) << config << ": fraud query has two declarations";
  EXPECT_EQ(seeds, decls) << config;
  EXPECT_GE(shards, decls) << config << ": at least one shard per decl";

  const obs::Span* plan = trace.Find("plan");
  ASSERT_NE(plan, nullptr) << config;
  bool cached_attr = false;
  for (const auto& [key, value] : plan->attrs) {
    if (key == "cached") cached_attr = value == "true";
  }
  EXPECT_EQ(cached_attr, expect_cached) << config;
}

TEST(TraceTest, EngineTraceAcrossExecutionMatrix) {
  FraudGraphOptions graph_options;
  graph_options.num_accounts = 60;
  graph_options.num_cities = 2;

  size_t want_rows = 0;
  bool first_config = true;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    // Fresh graph per config: the first run is a plan-cache miss, the
    // second a hit whose trace replays the stored compile costs.
    PropertyGraph g = MakeFraudGraph(graph_options);
    EngineMetrics metrics;
    obs::Trace trace;
    EngineOptions options;
    options.num_threads = threads;
    options.metrics = &metrics;
    options.trace = &trace;
    Engine engine(g, options);

    for (bool warm : {false, true}) {
      std::string config = "threads=" + std::to_string(threads) +
                           " warm=" + std::to_string(warm);
      Result<MatchOutput> out = engine.Match(kFraudQuery);
      ASSERT_TRUE(out.ok()) << config << ": " << out.status();
      if (first_config) {
        want_rows = out->rows.size();
        first_config = false;
      }
      EXPECT_EQ(out->rows.size(), want_rows)
          << config << ": tracing must not change results";
      CheckEngineTrace(trace, /*expect_cached=*/warm, config);
      // The trace's stage totals are the same measurements the
      // metrics report (docs/observability.md).
      EXPECT_GE(metrics.plan_ms, 0) << config;
      EXPECT_GE(metrics.seed_ms, 0) << config;
      EXPECT_GE(metrics.exec_ms, 0) << config;
      EXPECT_EQ(metrics.plan_cache_hits, warm ? 1u : 0u) << config;
    }
  }
}

TEST(TraceTest, SinkReceivesJsonLinesWithoutAttachedTrace) {
  // A sink alone is enough: the engine builds a trace internally.
  PropertyGraph g = BuildPaperGraph();
  obs::StringTraceSink sink;
  EngineOptions options;
  options.trace_sink = &sink;
  Engine engine(g, options);
  ASSERT_TRUE(engine.Match(kFraudQuery).ok());
  ASSERT_TRUE(engine.Match(kFraudQuery).ok());
  EXPECT_EQ(sink.traces_emitted(), 2u);
  std::string out = sink.TakeOutput();
  EXPECT_NE(out.find("{\"span\":\"query\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"span\":\"decl\""), std::string::npos) << out;
  // Errored executions emit nothing.
  EXPECT_FALSE(engine.Match("MATCH (x WHERE $missing = 1)").ok());
  EXPECT_EQ(sink.traces_emitted(), 2u);
}

// --- registry publication from the engine ------------------------------------

TEST(MetricsTest, EnginePublishesToGraphRegistry) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<MatchOutput> out = engine.Match(kFraudQuery);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(engine.Match(kFraudQuery).ok());

  obs::MetricsSnapshot snap = g.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.CounterValue("gpml_executions_total"), 2u);
  EXPECT_EQ(snap.CounterValue("gpml_decls_total"), 4u);
  EXPECT_EQ(snap.CounterValue("gpml_rows_total"), 2 * out->rows.size());
  EXPECT_EQ(snap.CounterValue("gpml_plan_cache_misses_total"), 1u);
  EXPECT_EQ(snap.CounterValue("gpml_plan_cache_hits_total"), 1u);
  EXPECT_GT(snap.CounterValue("gpml_matcher_steps_total"), 0u);
  EXPECT_GT(snap.CounterValue("gpml_seeded_nodes_total"), 0u);
  // The transfer chain is seeded from the bound x values and kept to the
  // bound y values, once per execution.
  EXPECT_EQ(snap.CounterValue("gpml_seed_filtered_decls_total"), 2u);
  EXPECT_EQ(snap.CounterValue("gpml_target_filtered_decls_total"), 2u);

  for (const char* stage : {"plan", "seed", "match", "join", "filter"}) {
    const obs::HistogramSnapshot* h = snap.FindHistogram(
        std::string("gpml_stage_duration_us{stage=\"") + stage + "\"}");
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_EQ(h->count, 2u) << stage;
  }
  const obs::HistogramSnapshot* total =
      snap.FindHistogram("gpml_query_duration_us");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 2u);
}

TEST(MetricsTest, BatchMatcherPublishesBlockTelemetry) {
  // The vectorized matcher's telemetry (docs/vectorized.md): per-execution
  // block/candidate/survivor counts on EngineMetrics, a cumulative
  // gpml_batch_blocks_total counter, and per-execution survivor rates in
  // the gpml_batch_survivor_rate histogram.
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  ASSERT_TRUE(Engine(g, options).Match(kStreamQuery).ok());
  EXPECT_GT(metrics.batch_blocks, 0u);
  EXPECT_GT(metrics.batch_candidates, 0u);
  EXPECT_GT(metrics.batch_survivors, 0u);
  EXPECT_LE(metrics.batch_survivors, metrics.batch_candidates);

  obs::MetricsSnapshot snap = g.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.CounterValue("gpml_batch_blocks_total"),
            metrics.batch_blocks);
  const obs::HistogramSnapshot* rate =
      snap.FindHistogram("gpml_batch_survivor_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->count, 1u);

  // A query on the scalar route leaves the batch telemetry untouched.
  PropertyGraph scalar_graph = BuildPaperGraph();
  ASSERT_TRUE(Engine(scalar_graph, options).Match(kScalarStreamQuery).ok());
  EXPECT_EQ(metrics.batch_blocks, 0u);
  EXPECT_EQ(metrics.batch_candidates, 0u);
  obs::MetricsSnapshot scalar_snap =
      scalar_graph.metrics_registry()->Snapshot();
  EXPECT_EQ(scalar_snap.CounterValue("gpml_batch_blocks_total"), 0u);
  EXPECT_EQ(scalar_snap.FindHistogram("gpml_batch_survivor_rate"), nullptr);
}

TEST(MetricsTest, PublishMetricsOffLeavesRegistryEmpty) {
  PropertyGraph g = BuildPaperGraph();
  EngineOptions options;
  options.publish_metrics = false;
  options.slow_query_ms = -1;
  ASSERT_TRUE(Engine(g, options).Match(kFraudQuery).ok());
  obs::MetricsSnapshot snap = g.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.CounterValue("gpml_executions_total"), 0u);
  EXPECT_EQ(snap.CounterValue("gpml_plan_cache_misses_total"), 0u);
  EXPECT_TRUE(snap.histograms.empty());
}

// --- Prometheus rendering ----------------------------------------------------

/// Strips `suffix` off `s` in place; false when `s` does not end with it.
bool StripSuffix(std::string* s, const std::string& suffix) {
  if (s->size() < suffix.size() ||
      s->compare(s->size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  s->resize(s->size() - suffix.size());
  return true;
}

/// A line-level validator for the Prometheus text exposition format:
/// comment lines are `# TYPE <base> <counter|histogram>`, sample lines are
/// `<name>[{<labels>}] <number>`, every base is TYPE-declared before its
/// first sample with the series suffixes its type allows, histogram buckets
/// are cumulative per label set with the series' `_count` equal to its
/// final le="+Inf" bucket.
void ValidatePrometheusText(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::map<std::string, std::string> declared;  // base -> type.
  std::map<std::string, uint64_t> last_bucket;  // base|labels -> last count.
  std::map<std::string, uint64_t> inf_bucket;   // base|labels -> +Inf count.
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition output";
    if (line[0] == '#') {
      std::istringstream fields(line);
      std::string hash, kw, base, type;
      fields >> hash >> kw >> base >> type;
      EXPECT_EQ(hash, "#") << line;
      EXPECT_EQ(kw, "TYPE") << line;
      EXPECT_TRUE(type == "counter" || type == "histogram") << line;
      EXPECT_TRUE(declared.emplace(base, type).second)
          << "duplicate TYPE for " << base;
      continue;
    }
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    std::string value = line.substr(space + 1);
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    ASSERT_TRUE(end != value.c_str() && *end == '\0')
        << "unparseable sample value: " << line;
    EXPECT_GE(v, 0) << line;

    // Split `base{labels}`, peeling the le pair off histogram buckets.
    size_t brace = name.find('{');
    std::string base = name.substr(0, brace);
    std::string labels;
    std::string le;
    if (brace != std::string::npos) {
      ASSERT_EQ(name.back(), '}') << line;
      labels = name.substr(brace + 1, name.size() - brace - 2);
      size_t le_pos = labels.find("le=\"");
      if (le_pos != std::string::npos) {
        size_t le_end = labels.find('"', le_pos + 4);
        ASSERT_NE(le_end, std::string::npos) << line;
        le = labels.substr(le_pos + 4, le_end - le_pos - 4);
        // Remove the pair (and the comma joining it to a predecessor).
        size_t cut = le_pos > 0 ? le_pos - 1 : le_pos;
        labels.erase(cut, le_end + 1 - cut);
      }
    }

    if (declared.count(base) && declared[base] == "counter") {
      EXPECT_TRUE(le.empty()) << "le label on a counter: " << line;
      continue;
    }
    // Histogram series: base must carry a _bucket/_sum/_count suffix and
    // the stripped base must be TYPE-declared as a histogram.
    std::string stripped = base;
    if (StripSuffix(&stripped, "_bucket")) {
      ASSERT_FALSE(le.empty()) << "bucket without le: " << line;
      std::string key = stripped + "|" + labels;
      uint64_t count = static_cast<uint64_t>(v);
      if (last_bucket.count(key)) {
        EXPECT_GE(count, last_bucket[key])
            << "non-cumulative buckets: " << line;
      }
      last_bucket[key] = count;
      if (le == "+Inf") inf_bucket[key] = count;
    } else if (StripSuffix(&stripped, "_count")) {
      std::string key = stripped + "|" + labels;
      ASSERT_TRUE(inf_bucket.count(key))
          << "_count before its +Inf bucket: " << line;
      EXPECT_EQ(static_cast<uint64_t>(v), inf_bucket[key]) << line;
    } else {
      EXPECT_TRUE(StripSuffix(&stripped, "_sum"))
          << "unexpected histogram series: " << line;
    }
    EXPECT_TRUE(declared.count(stripped) &&
                declared[stripped] == "histogram")
        << "sample before TYPE: " << line;
  }
  EXPECT_FALSE(declared.empty()) << "no metrics rendered";
}

TEST(PrometheusTest, RenderedOutputFollowsTheTextGrammar) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  ASSERT_TRUE(engine.Match(kFraudQuery).ok());
  ASSERT_TRUE(engine.Match(kStreamQuery).ok());
  std::string text = obs::RenderPrometheus(*g.metrics_registry());
  ValidatePrometheusText(text);
  EXPECT_NE(text.find("# TYPE gpml_executions_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gpml_executions_total 2"), std::string::npos) << text;
  EXPECT_NE(
      text.find("gpml_stage_duration_us_bucket{stage=\"match\",le=\"+Inf\"}"),
      std::string::npos)
      << text;
}

TEST(PrometheusTest, SplitMetricName) {
  std::string base, labels;
  obs::SplitMetricName("gpml_executions_total", &base, &labels);
  EXPECT_EQ(base, "gpml_executions_total");
  EXPECT_TRUE(labels.empty());
  obs::SplitMetricName("gpml_stage_duration_us{stage=\"seed\"}", &base,
                       &labels);
  EXPECT_EQ(base, "gpml_stage_duration_us");
  EXPECT_EQ(labels, "stage=\"seed\"");
}

// --- slow-query log ----------------------------------------------------------

TEST(SlowLogTest, RingBufferKeepsNewest) {
  obs::SlowQueryLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  for (int i = 0; i < 5; ++i) {
    obs::SlowQueryRecord rec;
    rec.fingerprint = "q" + std::to_string(i);
    log.Add(std::move(rec));
  }
  EXPECT_EQ(log.total_added(), 5u);
  std::vector<obs::SlowQueryRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].fingerprint, "q2");
  EXPECT_EQ(snap[2].fingerprint, "q4");
  EXPECT_EQ(snap[0].sequence + 2, snap[2].sequence);
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(SlowLogTest, EngineCapturesSlowExecutions) {
  PropertyGraph g = BuildPaperGraph();
  obs::SlowQueryLog log(8);
  EngineOptions options;
  options.slow_query_ms = 0;  // Everything is "slow".
  options.slow_log = &log;
  Engine engine(g, options);
  Result<MatchOutput> out = engine.Match(kFraudQuery);
  ASSERT_TRUE(out.ok());

  std::vector<obs::SlowQueryRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::SlowQueryRecord& rec = snap[0];
  EXPECT_EQ(rec.graph_token, g.identity_token());
  EXPECT_NE(rec.fingerprint.find("MATCH"), std::string::npos);
  EXPECT_EQ(rec.rows, out->rows.size());
  EXPECT_GE(rec.total_ms, 0);
  EXPECT_NE(rec.trace_json.find("{\"span\":\"query\""), std::string::npos);
  // The stored EXPLAIN ANALYZE parses back with measured actuals — the
  // capture is a post-hoc EXPLAIN ANALYZE of the slow run, for free.
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(rec.explain);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << rec.explain;
  EXPECT_TRUE(parsed->analyzed);
  EXPECT_GE(parsed->total_ms, 0);
  EXPECT_EQ(parsed->rows, out->rows.size());

  // Fast executions (or capture disabled) never touch the log.
  options.slow_query_ms = 1e9;
  ASSERT_TRUE(Engine(g, options).Match(kFraudQuery).ok());
  options.slow_query_ms = -1;
  ASSERT_TRUE(Engine(g, options).Match(kFraudQuery).ok());
  EXPECT_EQ(log.total_added(), 1u);
}

TEST(SlowLogTest, HostsFilterByGraphIdentity) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("bank", BuildPaperGraph()).ok());
  ASSERT_TRUE(catalog.AddGraph("other", BuildPaperGraph()).ok());

  obs::SlowQueryLog log(8);
  EngineOptions options;
  options.slow_query_ms = 0;
  options.slow_log = &log;

  Session session(catalog, options);
  ASSERT_TRUE(session.UseGraph("bank").ok());
  ASSERT_TRUE(session.Execute(kStreamQuery).ok());
  ASSERT_TRUE(session.UseGraph("other").ok());
  ASSERT_TRUE(session.Execute(kFraudQuery).ok());
  ASSERT_TRUE(session.UseGraph("bank").ok());

  // Session: only the current graph's captures.
  Result<std::vector<obs::SlowQueryRecord>> mine = session.SlowQueries();
  ASSERT_TRUE(mine.ok());
  ASSERT_EQ(mine->size(), 1u);
  EXPECT_NE((*mine)[0].fingerprint.find("Transfer"), std::string::npos);

  // SQL/PGQ host sees the same log through the catalog.
  Result<std::vector<obs::SlowQueryRecord>> pgq =
      GraphTableSlowQueries(catalog, "other", &log);
  ASSERT_TRUE(pgq.ok());
  EXPECT_EQ(pgq->size(), 1u);
  EXPECT_FALSE(GraphTableSlowQueries(catalog, "missing", &log).ok());

  // Metrics surfaces of both hosts render Prometheus text.
  Result<std::string> session_text = session.MetricsText();
  ASSERT_TRUE(session_text.ok());
  ValidatePrometheusText(*session_text);
  Result<std::string> pgq_text = GraphTableMetricsText(catalog, "bank");
  ASSERT_TRUE(pgq_text.ok());
  EXPECT_EQ(*pgq_text, *session_text);

  Session detached(catalog);
  EXPECT_FALSE(detached.MetricsText().ok()) << "no graph selected";
  EXPECT_FALSE(detached.SlowQueries().ok());
}

// --- streaming cursors -------------------------------------------------------

TEST(CursorObsTest, StreamPublishesOnceOnCleanCompletion) {
  PropertyGraph g = BuildPaperGraph();
  obs::StringTraceSink sink;
  obs::SlowQueryLog log(8);
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  options.trace_sink = &sink;
  options.slow_query_ms = 0;
  options.slow_log = &log;
  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(kStreamQuery);
  ASSERT_TRUE(q.ok());

  Result<Cursor> cursor = q->Open();
  ASSERT_TRUE(cursor.ok());
  RowView view;
  size_t rows = 0;
  while (true) {
    Result<bool> more = cursor->Next(&view);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++rows;
  }
  // One execution published: counters advanced once, one trace emitted,
  // one slow capture (threshold 0), and the metrics describe the stream.
  obs::MetricsSnapshot snap = g.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.CounterValue("gpml_executions_total"), 1u);
  EXPECT_EQ(snap.CounterValue("gpml_rows_total"), rows);
  EXPECT_EQ(sink.traces_emitted(), 1u);
  std::string json = sink.TakeOutput();
  EXPECT_NE(json.find("\"mode\":\"stream\""), std::string::npos) << json;
  EXPECT_EQ(log.total_added(), 1u);
  EXPECT_EQ(log.Snapshot()[0].rows, rows);
  EXPECT_EQ(metrics.rows, rows);
  EXPECT_GE(metrics.exec_ms, 0);

  // Pulling past the end never re-publishes (FinishStream is one-shot).
  Result<bool> more = cursor->Next(&view);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_EQ(g.metrics_registry()->Snapshot().CounterValue(
                "gpml_executions_total"),
            1u);
  EXPECT_EQ(sink.traces_emitted(), 1u);
  EXPECT_EQ(log.total_added(), 1u);
}

TEST(CursorObsTest, LimitStopPublishesAbandonmentDoesNot) {
  PropertyGraph g = BuildPaperGraph();
  obs::StringTraceSink sink;
  EngineOptions options;
  options.trace_sink = &sink;
  options.slow_query_ms = -1;
  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(kStreamQuery);
  ASSERT_TRUE(q.ok());

  // LIMIT hit: a clean completion — publishes.
  {
    Result<Cursor> cursor = q->Open({}, 1);
    ASSERT_TRUE(cursor.ok());
    RowView view;
    while (true) {
      Result<bool> more = cursor->Next(&view);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
    }
    EXPECT_TRUE(cursor->hit_limit());
  }
  EXPECT_EQ(sink.traces_emitted(), 1u);
  EXPECT_EQ(g.metrics_registry()->Snapshot().CounterValue(
                "gpml_executions_total"),
            1u);

  // Abandoned mid-stream: no publication (the stream never completed).
  {
    Result<Cursor> cursor = q->Open();
    ASSERT_TRUE(cursor.ok());
    RowView view;
    Result<bool> more = cursor->Next(&view);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
  }
  EXPECT_EQ(sink.traces_emitted(), 1u);
  EXPECT_EQ(g.metrics_registry()->Snapshot().CounterValue(
                "gpml_executions_total"),
            1u);
}

TEST(CursorObsTest, MetricsResetOnEachExecution) {
  // Reset-on-execute (engine.h): the struct always describes the latest
  // execution — including a cursor stream, which resets at Open and
  // accumulates across pulls.
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(g, options);

  ASSERT_TRUE(engine.Match(kFraudQuery).ok());
  size_t fraud_rows = metrics.rows;
  EXPECT_GT(metrics.decls, 1u);

  Result<PreparedQuery> q = engine.Prepare(kStreamQuery);
  ASSERT_TRUE(q.ok());
  Result<Cursor> cursor = q->Open();
  ASSERT_TRUE(cursor.ok());
  // Open started a new execution: the fraud run's counters are gone.
  EXPECT_EQ(metrics.decls, 1u);
  EXPECT_EQ(metrics.rows, 0u);
  RowView view;
  size_t pulled = 0;
  while (true) {
    Result<bool> more = cursor->Next(&view);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++pulled;
    EXPECT_EQ(metrics.rows, pulled) << "counters grow as rows are pulled";
  }
  EXPECT_EQ(metrics.rows, cursor->rows_emitted());

  // And the next materializing execution resets again.
  ASSERT_TRUE(engine.Match(kFraudQuery).ok());
  EXPECT_EQ(metrics.rows, fraud_rows);
}

// --- one execution record, two execution paths -----------------------------

/// EngineMetrics with the wall-clock fields zeroed: what must agree between
/// two executions of one query whatever the timings.
EngineMetrics WithoutDurations(EngineMetrics m) {
  m.plan_ms = 0;
  m.seed_ms = 0;
  m.exec_ms = 0;
  return m;
}

void ExpectSameCounts(const EngineMetrics& a, const EngineMetrics& b) {
  EngineMetrics x = WithoutDurations(a);
  EngineMetrics y = WithoutDurations(b);
  EXPECT_EQ(x.decls, y.decls);
  EXPECT_EQ(x.seeded_nodes, y.seeded_nodes);
  EXPECT_EQ(x.matcher_steps, y.matcher_steps);
  EXPECT_EQ(x.reversed_decls, y.reversed_decls);
  EXPECT_EQ(x.seed_filtered_decls, y.seed_filtered_decls);
  EXPECT_EQ(x.target_filtered_decls, y.target_filtered_decls);
  EXPECT_EQ(x.witness_decls, y.witness_decls);
  EXPECT_EQ(x.threads, y.threads);
  EXPECT_EQ(x.plan_cache_hits, y.plan_cache_hits);
  EXPECT_EQ(x.plan_cache_misses, y.plan_cache_misses);
  EXPECT_EQ(x.index_seeded_decls, y.index_seeded_decls);
  EXPECT_EQ(x.rows, y.rows);
  EXPECT_EQ(x.budget_truncated, y.budget_truncated);
  EXPECT_EQ(x.batch_blocks, y.batch_blocks);
  EXPECT_EQ(x.batch_candidates, y.batch_candidates);
  EXPECT_EQ(x.batch_survivors, y.batch_survivors);
  EXPECT_EQ(x.arena_records, y.arena_records);
}

/// Per-series change between two registry snapshots: counter values and
/// histogram observation counts (a series absent from `before` counts 0).
std::map<std::string, uint64_t> RegistryDelta(
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after) {
  std::map<std::string, uint64_t> delta;
  for (const obs::CounterSnapshot& c : after.counters) {
    delta[c.name] = c.value - before.CounterValue(c.name);
  }
  for (const obs::HistogramSnapshot& h : after.histograms) {
    const obs::HistogramSnapshot* old = before.FindHistogram(h.name);
    delta[h.name] = h.count - (old != nullptr ? old->count : 0);
  }
  return delta;
}

TEST(ExecutionRecordTest, StreamAndMaterializedRunsPublishEqualRecords) {
  // A single fixed-length declaration over the paper graph's few accounts:
  // the cursor streams it in one seed chunk, so both paths do the same
  // matcher work and must publish the same record, durations aside.
  PropertyGraph g = BuildPaperGraph();
  obs::QueryStatsStore store;
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  options.query_stats = &store;
  options.slow_query_ms = -1;
  Result<PreparedQuery> q = Engine(g, options).Prepare(kStreamQuery);
  ASSERT_TRUE(q.ok()) << q.status();

  obs::MetricsSnapshot start = g.metrics_registry()->Snapshot();
  Result<MatchOutput> materialized = q->Execute();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  const EngineMetrics materialized_metrics = metrics;
  obs::MetricsSnapshot middle = g.metrics_registry()->Snapshot();

  Result<Cursor> cursor = q->Open();
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  Result<MatchOutput> streamed = cursor->Drain();
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  const EngineMetrics streamed_metrics = metrics;
  obs::MetricsSnapshot end = g.metrics_registry()->Snapshot();

  ASSERT_GT(materialized->rows.size(), 0u);
  EXPECT_EQ(streamed->rows.size(), materialized->rows.size());
  ExpectSameCounts(materialized_metrics, streamed_metrics);
  EXPECT_EQ(streamed_metrics.rows, materialized->rows.size());

  std::map<std::string, uint64_t> materialized_delta =
      RegistryDelta(start, middle);
  std::map<std::string, uint64_t> streamed_delta = RegistryDelta(middle, end);
  EXPECT_EQ(materialized_delta, streamed_delta);
  // Both paths observe every stage histogram, join and filter included.
  for (const char* stage : {"plan", "seed", "match", "join", "filter"}) {
    std::string name =
        std::string("gpml_stage_duration_us{stage=\"") + stage + "\"}";
    EXPECT_EQ(streamed_delta[name], 1u) << name;
  }
  EXPECT_EQ(streamed_delta["gpml_executions_total"], 1u);

  std::vector<obs::QueryStatEntry> stats = store.Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].calls, 2u);
  EXPECT_EQ(stats[0].rows, 2 * materialized->rows.size());
  EXPECT_EQ(stats[0].steps, 2 * materialized_metrics.matcher_steps);
}

TEST(ExecutionRecordTest, EveryViewReportsTheRouteEachDeclarationRan) {
  // kFraudQuery's fixed-length co-location declaration runs batched and its
  // ANY chain on the witness route: EXPLAIN ANALYZE names both, and
  // EngineMetrics counts the witness declaration for a materialized run
  // and for a cursor over the same prepared query alike.
  FraudGraphOptions graph_options;
  graph_options.num_accounts = 60;
  graph_options.num_cities = 2;
  PropertyGraph g = MakeFraudGraph(graph_options);
  Result<std::string> explained = Engine(g).ExplainAnalyze(kFraudQuery);
  ASSERT_TRUE(explained.ok()) << explained.status();
  Result<planner::ExplainedPlan> plan = planner::ParseExplain(*explained);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->decls.size(), 2u);
  EXPECT_EQ(plan->decls[0].actual_route, "batch") << *explained;
  EXPECT_EQ(plan->decls[1].actual_route, "witness") << *explained;
  // The batch matcher keeps no search records; the witness route's links
  // live in the arena.
  EXPECT_EQ(plan->decls[0].actual_arena, 0) << *explained;
  EXPECT_GT(plan->decls[1].actual_arena, 0) << *explained;

  // Materialized and streamed runs of one query report the same route and
  // the same peak arena: a selector query (the cursor materializes it) and
  // fixed-length ones (the cursor streams them in seed chunks), batched
  // and on the scalar DFS, whose arena holds one seed's search at a time.
  struct Case {
    const char* query;
    size_t witness_decls;
    bool batched;
  };
  for (const Case& c : {Case{kFraudQuery, 1, true},
                        Case{kStreamQuery, 0, true},
                        Case{kScalarStreamQuery, 0, false}}) {
    SCOPED_TRACE(c.query);
    EngineMetrics metrics;
    EngineOptions options;
    options.metrics = &metrics;
    Result<PreparedQuery> q = Engine(g, options).Prepare(c.query);
    ASSERT_TRUE(q.ok()) << q.status();
    ASSERT_TRUE(q->Execute().ok());
    const EngineMetrics materialized = metrics;
    Result<Cursor> cursor = q->Open();
    ASSERT_TRUE(cursor.ok()) << cursor.status();
    ASSERT_TRUE(cursor->Drain().ok());
    EXPECT_EQ(materialized.witness_decls, c.witness_decls);
    EXPECT_EQ(metrics.witness_decls, c.witness_decls);
    EXPECT_EQ(materialized.batch_blocks > 0, c.batched);
    EXPECT_EQ(metrics.batch_blocks > 0, c.batched);
    EXPECT_EQ(materialized.arena_records, metrics.arena_records);
    EXPECT_EQ(metrics.arena_records > 0, c.witness_decls > 0 || !c.batched);
  }
}

TEST(ExecutionRecordTest, SlowCaptureRendersTheTraceOfEachMode) {
  // No caller trace and no sink: the slow capture is the only consumer, so
  // the trace is rendered from the record only because the run was slow.
  PropertyGraph g = BuildPaperGraph();
  obs::SlowQueryLog log(8);
  EngineOptions options;
  options.slow_query_ms = 0;
  options.slow_log = &log;
  Result<PreparedQuery> q = Engine(g, options).Prepare(kStreamQuery);
  ASSERT_TRUE(q.ok()) << q.status();

  ASSERT_TRUE(q->Execute().ok());
  Result<Cursor> cursor = q->Open();
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->Drain().ok());

  std::vector<obs::SlowQueryRecord> captured = log.Snapshot();
  ASSERT_EQ(captured.size(), 2u);
  auto has_span = [](const std::string& json, const char* name) {
    return json.find(std::string("{\"span\":\"") + name + "\"") !=
           std::string::npos;
  };
  const std::string& materialized = captured[0].trace_json;
  for (const char* name : {"query", "plan", "decl", "seed", "shard",
                           "filter"}) {
    EXPECT_TRUE(has_span(materialized, name)) << name << "\n" << materialized;
  }
  const std::string& streamed = captured[1].trace_json;
  for (const char* name : {"query", "plan", "seed", "match"}) {
    EXPECT_TRUE(has_span(streamed, name)) << name << "\n" << streamed;
  }
  EXPECT_FALSE(has_span(streamed, "decl")) << streamed;
  EXPECT_NE(streamed.find("\"mode\":\"stream\""), std::string::npos);
}

TEST(ExecutionRecordTest, TargetFilteredDeclsReachEveryView) {
  // The fraud query's transfer chain has both endpoints bound by the
  // co-location step: EngineMetrics, the registry counter and EXPLAIN
  // ANALYZE all report the one target-restricted declaration.
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  ASSERT_TRUE(Engine(g, options).Match(kFraudQuery).ok());
  EXPECT_EQ(metrics.target_filtered_decls, 1u);
  EXPECT_EQ(g.metrics_registry()->Snapshot().CounterValue(
                "gpml_target_filtered_decls_total"),
            1u);
  Result<std::string> text = Engine(g, options).ExplainAnalyze(kFraudQuery);
  ASSERT_TRUE(text.ok()) << text.status();
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << *text;
  ASSERT_EQ(parsed->decls.size(), 2u);
  EXPECT_EQ(parsed->decls[1].target, "bound:y") << *text;
  EXPECT_GT(parsed->decls[1].actual_targets, 0) << *text;
  EXPECT_EQ(g.metrics_registry()->Snapshot().CounterValue(
                "gpml_target_filtered_decls_total"),
            2u);  // The Match and EXPLAIN ANALYZE runs.
}

// --- ExplainAnalyze plumbing -------------------------------------------------

TEST(ObsTest, ExplainAnalyzeReportsStageActuals) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<std::string> text = engine.ExplainAnalyze(kFraudQuery);
  ASSERT_TRUE(text.ok()) << text.status();
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << *text;
  EXPECT_TRUE(parsed->analyzed);
  EXPECT_GE(parsed->total_ms, 0) << *text;
  EXPECT_GE(parsed->plan_ms, 0) << *text;
  double decl_ms = 0;
  for (const planner::ExplainedDecl& d : parsed->decls) {
    EXPECT_GE(d.actual_ms, 0) << *text;
    decl_ms += d.actual_ms;
  }
  EXPECT_LE(decl_ms, parsed->total_ms + 1.0)
      << "per-declaration time is contained in the total\n"
      << *text;
}

}  // namespace
}  // namespace gpml
