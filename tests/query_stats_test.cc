// The per-fingerprint workload-statistics store (obs/query_stats.h) and
// its engine wiring: exact aggregation against a per-call oracle under the
// concurrent {threads} x {batch} execution matrix (the TSan CI job
// races this), LRU eviction at capacity, plan-hash stability across
// plan-cache hits, plan-change detection when a reloaded graph replans,
// per-tenant metric families in the Prometheus rendering, and both hosts'
// graph-identity-filtered retrieval surfaces.

#include <cstdint>
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
#include "pgq/graph_table.h"

namespace gpml {
namespace {

// Single fixed-length declaration: streams through the cursor and is
// eligible for the batch path, so one query exercises every recording
// route in the matrix.
const char* kStreamQuery =
    "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->(y:Account)";
// The same shape on the scalar route: no kernel compiles IS NOT NULL.
const char* kScalarQuery =
    "MATCH (x:Account WHERE x.isBlocked IS NOT NULL)-[t:Transfer]->"
    "(y:Account)";

// The planner anchors this at its rarer endpoint: the City end over a
// graph with a few cities, the Account end (mirrored) over one with more
// cities than accounts — two compiled plans for one query shape.
const char* kAnchorFlipQuery =
    "MATCH (c:City)<-[:isLocatedIn]-(x:Account)";

// No City anywhere: the plan depends only on the Account/Transfer
// structure, which does not change with the city count, so its entry must
// never record a plan change.
const char* kPlainQuery = "MATCH (x:Account)-[t:Transfer]->(y:Account)";

PropertyGraph TestGraph(int num_cities = 2) {
  FraudGraphOptions options;
  options.num_accounts = 60;
  options.num_cities = num_cities;
  return MakeFraudGraph(options);
}

obs::QueryObservation Obs(const std::string& fingerprint, uint64_t plan_hash,
                          double total_ms = 1.0) {
  obs::QueryObservation o;
  o.fingerprint = fingerprint;
  o.graph_token = 7;
  o.plan_hash = plan_hash;
  o.total_ms = total_ms;
  o.rows = 2;
  o.seeds = 3;
  o.steps = 5;
  return o;
}

const obs::QueryStatEntry* FindEntry(
    const std::vector<obs::QueryStatEntry>& entries,
    const std::string& fingerprint_piece) {
  for (const obs::QueryStatEntry& e : entries) {
    if (e.fingerprint.find(fingerprint_piece) != std::string::npos) return &e;
  }
  return nullptr;
}

// --- store semantics ---------------------------------------------------------

TEST(QueryStatsStoreTest, RecordAggregatesUnderOneFingerprint) {
  obs::QueryStatsStore store;
  obs::QueryStatsStore::RecordOutcome first = store.Record(Obs("q1", 11, 2.0));
  EXPECT_TRUE(first.new_entry);
  EXPECT_FALSE(first.plan_changed);
  EXPECT_FALSE(first.evicted);
  obs::QueryStatsStore::RecordOutcome second =
      store.Record(Obs("q1", 11, 6.0));
  EXPECT_FALSE(second.new_entry);
  EXPECT_FALSE(second.plan_changed);

  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::QueryStatEntry& e = snap[0];
  EXPECT_EQ(e.fingerprint, "q1");
  EXPECT_EQ(e.graph_token, 7u);
  EXPECT_EQ(e.calls, 2u);
  EXPECT_EQ(e.rows, 4u);
  EXPECT_EQ(e.seeds, 6u);
  EXPECT_EQ(e.steps, 10u);
  EXPECT_DOUBLE_EQ(e.total_ms, 8.0);
  EXPECT_DOUBLE_EQ(e.min_ms, 2.0);
  EXPECT_DOUBLE_EQ(e.max_ms, 6.0);
  // One plan, stable across both calls.
  ASSERT_EQ(e.plans.size(), 1u);
  EXPECT_EQ(e.plans[0].plan_hash, 11u);
  EXPECT_EQ(e.plans[0].calls, 2u);
  EXPECT_FALSE(e.plan_changed);
  EXPECT_EQ(e.plan_changes, 0u);
  // Latency histogram holds every call.
  uint64_t bucketed = 0;
  for (uint64_t b : e.latency_buckets) bucketed += b;
  EXPECT_EQ(bucketed, 2u);
  EXPECT_EQ(store.total_recorded(), 2u);
}

TEST(QueryStatsStoreTest, TenantIsPartOfTheKey) {
  obs::QueryStatsStore store;
  obs::QueryObservation a = Obs("q", 1);
  a.tenant = "alpha";
  obs::QueryObservation b = Obs("q", 1);
  b.tenant = "beta";
  store.Record(a);
  store.Record(b);
  store.Record(a);
  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // MRU first: alpha was updated last.
  EXPECT_EQ(snap[0].tenant, "alpha");
  EXPECT_EQ(snap[0].calls, 2u);
  EXPECT_EQ(snap[1].tenant, "beta");
  EXPECT_EQ(snap[1].calls, 1u);
}

TEST(QueryStatsStoreTest, LruEvictsLeastRecentlyUpdatedAtCapacity) {
  obs::QueryStatsStore store(3);
  EXPECT_EQ(store.capacity(), 3u);
  store.Record(Obs("q0", 1));
  store.Record(Obs("q1", 1));
  store.Record(Obs("q2", 1));
  // Touch q0 so q1 becomes the LRU victim.
  store.Record(Obs("q0", 1));
  obs::QueryStatsStore::RecordOutcome overflow = store.Record(Obs("q3", 1));
  EXPECT_TRUE(overflow.new_entry);
  EXPECT_TRUE(overflow.evicted);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evictions(), 1u);

  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].fingerprint, "q3");  // MRU first.
  EXPECT_EQ(snap[1].fingerprint, "q0");
  EXPECT_EQ(snap[2].fingerprint, "q2");
  EXPECT_EQ(FindEntry(snap, "q1"), nullptr) << "q1 was the LRU victim";

  // A re-recorded evicted fingerprint starts a fresh entry (and evicts
  // again); cumulative counters keep the history.
  obs::QueryStatsStore::RecordOutcome back = store.Record(Obs("q1", 1));
  EXPECT_TRUE(back.new_entry);
  EXPECT_TRUE(back.evicted);
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_EQ(store.total_recorded(), 6u);
}

TEST(QueryStatsStoreTest, PlanRingTracksChangesRevisitsAndCap) {
  obs::QueryStatsStore store;
  EXPECT_FALSE(store.Record(Obs("q", 1)).plan_changed);  // First plan.
  EXPECT_TRUE(store.Record(Obs("q", 2)).plan_changed);   // 1 -> 2.
  EXPECT_TRUE(store.Record(Obs("q", 1)).plan_changed);   // Revisit counts.
  EXPECT_FALSE(store.Record(Obs("q", 1)).plan_changed);  // Still current.
  EXPECT_TRUE(store.Record(Obs("q", 3)).plan_changed);
  EXPECT_TRUE(store.Record(Obs("q", 4)).plan_changed);
  EXPECT_TRUE(store.Record(Obs("q", 5)).plan_changed);  // Ring is full: 4.

  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::QueryStatEntry& e = snap[0];
  EXPECT_TRUE(e.plan_changed);
  EXPECT_EQ(e.plan_changes, 5u);
  ASSERT_EQ(e.plans.size(), obs::QueryStatsStore::kMaxPlans);
  // Oldest (plan 2) fell off; back() is the current plan.
  EXPECT_EQ(e.plans[0].plan_hash, 1u);
  EXPECT_EQ(e.plans[1].plan_hash, 3u);
  EXPECT_EQ(e.plans[2].plan_hash, 4u);
  EXPECT_EQ(e.plans[3].plan_hash, 5u);
  // The revisited plan kept its per-plan call count.
  EXPECT_EQ(e.plans[0].calls, 3u);
}

TEST(QueryStatsStoreTest, ConcurrentRecordsAreExact) {
  // 8 writers x 200 records each, half into a shared fingerprint and half
  // into a per-thread one: totals must come out exact, not approximate.
  obs::QueryStatsStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.Record(Obs("shared", 1));
        store.Record(Obs("private" + std::to_string(t), 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();

  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u + kThreads);
  const obs::QueryStatEntry* shared = FindEntry(snap, "shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->calls, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(shared->rows, static_cast<uint64_t>(kThreads * kPerThread * 2));
  for (int t = 0; t < kThreads; ++t) {
    const obs::QueryStatEntry* mine =
        FindEntry(snap, "private" + std::to_string(t));
    ASSERT_NE(mine, nullptr) << t;
    EXPECT_EQ(mine->calls, static_cast<uint64_t>(kPerThread)) << t;
  }
  EXPECT_EQ(store.total_recorded(),
            static_cast<uint64_t>(2 * kThreads * kPerThread));
}

TEST(QueryStatsStoreTest, HashPlanTextIsStableAndDiscriminating) {
  const std::string plan_a = "decl 0: scan Account -> expand Transfer";
  EXPECT_EQ(obs::HashPlanText(plan_a), obs::HashPlanText(plan_a));
  EXPECT_NE(obs::HashPlanText(plan_a),
            obs::HashPlanText(plan_a + " reversed"));
  EXPECT_NE(obs::HashPlanText(""), 0u) << "FNV offset basis, not zero";
}

// --- engine recording --------------------------------------------------------

TEST(QueryStatsEngineTest, ExactAggregationAcrossConcurrentMatrix) {
  // {engine threads} x {batch route, scalar route}; in every cell, 4 client threads
  // each run 5 executions against a shared private store. The per-call
  // EngineMetrics are the oracle: the store's cumulative entry must equal
  // their sums exactly, even under concurrent Record calls.
  constexpr int kClients = 4;
  constexpr int kCallsEach = 5;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    for (const char* query : {kStreamQuery, kScalarQuery}) {
      std::string config =
          "threads=" + std::to_string(threads) + " " + query;
      PropertyGraph g = TestGraph();
      obs::QueryStatsStore store;

      struct Oracle {
        uint64_t rows = 0;
        uint64_t seeds = 0;
        uint64_t steps = 0;
        uint64_t batch_calls = 0;
        uint64_t cache_hits = 0;
      };
      std::vector<Oracle> oracles(kClients);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          EngineMetrics metrics;
          EngineOptions options;
          options.num_threads = threads;
          options.query_stats = &store;
          options.metrics = &metrics;
          Engine engine(g, options);
          for (int i = 0; i < kCallsEach; ++i) {
            Result<MatchOutput> out = engine.Match(query);
            ASSERT_TRUE(out.ok()) << config << ": " << out.status();
            oracles[c].rows += metrics.rows;
            oracles[c].seeds += metrics.seeded_nodes;
            oracles[c].steps += metrics.matcher_steps;
            oracles[c].batch_calls += metrics.batch_blocks > 0 ? 1 : 0;
            oracles[c].cache_hits += metrics.plan_cache_hits;
          }
        });
      }
      for (std::thread& t : clients) t.join();

      Oracle want;
      for (const Oracle& o : oracles) {
        want.rows += o.rows;
        want.seeds += o.seeds;
        want.steps += o.steps;
        want.batch_calls += o.batch_calls;
        want.cache_hits += o.cache_hits;
      }
      std::vector<obs::QueryStatEntry> snap = store.Snapshot();
      ASSERT_EQ(snap.size(), 1u) << config;
      const obs::QueryStatEntry& e = snap[0];
      EXPECT_EQ(e.calls, static_cast<uint64_t>(kClients * kCallsEach))
          << config;
      EXPECT_EQ(e.rows, want.rows) << config;
      EXPECT_EQ(e.seeds, want.seeds) << config;
      EXPECT_EQ(e.steps, want.steps) << config;
      EXPECT_EQ(e.batch_calls, want.batch_calls) << config;
      EXPECT_EQ(e.cache_hits, want.cache_hits) << config;
      EXPECT_EQ(e.cache_hits + e.cache_misses, e.calls) << config;
      EXPECT_EQ(e.errors, 0u) << config;
      EXPECT_EQ(e.truncations, 0u) << config;
      uint64_t bucketed = 0;
      for (uint64_t b : e.latency_buckets) bucketed += b;
      EXPECT_EQ(bucketed, e.calls) << config;
      // One compiled plan per cell: the flags are fixed inside it.
      ASSERT_GE(e.plans.size(), 1u) << config;
      EXPECT_FALSE(e.plan_changed) << config;
    }
  }
}

TEST(QueryStatsEngineTest, PlanHashIsStableAcrossCacheHits) {
  PropertyGraph g = TestGraph();
  obs::QueryStatsStore store;
  EngineMetrics metrics;
  EngineOptions options;
  options.query_stats = &store;
  options.metrics = &metrics;
  Engine engine(g, options);
  ASSERT_TRUE(engine.Match(kStreamQuery).ok());
  ASSERT_EQ(metrics.plan_cache_misses, 1u);
  ASSERT_TRUE(engine.Match(kStreamQuery).ok());
  ASSERT_EQ(metrics.plan_cache_hits, 1u);

  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::QueryStatEntry& e = snap[0];
  EXPECT_EQ(e.calls, 2u);
  EXPECT_EQ(e.cache_misses, 1u);
  EXPECT_EQ(e.cache_hits, 1u);
  ASSERT_EQ(e.plans.size(), 1u) << "a cache hit must reuse the plan hash";
  EXPECT_NE(e.plans[0].plan_hash, 0u);
  EXPECT_EQ(e.plans[0].calls, 2u);
  EXPECT_FALSE(e.plan_changed);
}

TEST(QueryStatsEngineTest, ReloadedGraphRecordsExactlyOnePlanChange) {
  // How a replan happens in production: the same query text runs over a
  // graph reloaded with different data. Stats entries are keyed by
  // (tenant, fingerprint) — the graph is only a field — so both graphs
  // feed one entry per query.
  PropertyGraph before_graph = TestGraph();
  PropertyGraph after_graph = TestGraph(/*num_cities=*/600);
  obs::QueryStatsStore store;
  EngineOptions options;
  options.query_stats = &store;
  Engine before(before_graph, options);
  Engine after(after_graph, options);

  // Premise check: the city count flips the anchor of the City query and
  // does not touch the plain one.
  Result<std::string> flip_before = before.Explain(kAnchorFlipQuery);
  Result<std::string> flip_after = after.Explain(kAnchorFlipQuery);
  ASSERT_TRUE(flip_before.ok() && flip_after.ok());
  ASSERT_NE(flip_before->find("dir=forward"), std::string::npos)
      << *flip_before;
  ASSERT_NE(flip_after->find("dir=reversed"), std::string::npos)
      << *flip_after;
  Result<std::string> plain_before = before.Explain(kPlainQuery);
  Result<std::string> plain_after = after.Explain(kPlainQuery);
  ASSERT_TRUE(plain_before.ok() && plain_after.ok());
  ASSERT_EQ(*plain_before, *plain_after);

  ASSERT_TRUE(before.Match(kAnchorFlipQuery).ok());
  ASSERT_TRUE(before.Match(kAnchorFlipQuery).ok());
  ASSERT_TRUE(before.Match(kPlainQuery).ok());
  // The reload: the next execution of the City query replans — same stats
  // fingerprint, different plan hash.
  ASSERT_TRUE(after.Match(kAnchorFlipQuery).ok());
  ASSERT_TRUE(after.Match(kAnchorFlipQuery).ok());
  ASSERT_TRUE(after.Match(kPlainQuery).ok());

  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 2u) << "a reload must not split the stats entry";
  const obs::QueryStatEntry* affected = FindEntry(snap, "City");
  ASSERT_NE(affected, nullptr);
  EXPECT_EQ(affected->calls, 4u);
  EXPECT_TRUE(affected->plan_changed);
  EXPECT_EQ(affected->plan_changes, 1u) << "one reload, one change";
  ASSERT_EQ(affected->plans.size(), 2u);
  EXPECT_NE(affected->plans[0].plan_hash, affected->plans[1].plan_hash);
  EXPECT_EQ(affected->plans[0].calls, 2u);
  EXPECT_EQ(affected->plans[1].calls, 2u);

  const obs::QueryStatEntry* unaffected = FindEntry(snap, "Transfer");
  ASSERT_NE(unaffected, nullptr);
  EXPECT_EQ(unaffected->calls, 2u);
  EXPECT_FALSE(unaffected->plan_changed);
  EXPECT_EQ(unaffected->plans.size(), 1u);

  // The regression signal is also a counter on the registry of the graph
  // whose execution detected the change.
  EXPECT_EQ(before_graph.metrics_registry()->Snapshot().CounterValue(
                "gpml_plan_changes_total"),
            0u);
  EXPECT_EQ(after_graph.metrics_registry()->Snapshot().CounterValue(
                "gpml_plan_changes_total"),
            1u);
  EXPECT_EQ(after_graph.metrics_registry()->Snapshot().CounterValue(
                "gpml_querystats_observations_total"),
            3u);
}

TEST(QueryStatsEngineTest, ErrorsAndTruncationsAreCounted) {
  PropertyGraph g = TestGraph();
  obs::QueryStatsStore store;

  EngineOptions strict;
  strict.query_stats = &store;
  strict.matcher.max_steps = 1;
  Engine failing(g, strict);
  EXPECT_FALSE(failing.Match(kStreamQuery).ok());

  EngineOptions lenient = strict;
  lenient.on_budget = EngineOptions::BudgetPolicy::kTruncate;
  Engine truncating(g, lenient);
  Result<MatchOutput> out = truncating.Match(kStreamQuery);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->truncated);

  std::vector<obs::QueryStatEntry> snap = store.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].calls, 2u) << "errored executions are still workload";
  EXPECT_EQ(snap[0].errors, 1u);
  EXPECT_EQ(snap[0].truncations, 1u);
}

TEST(QueryStatsEngineTest, StreamRecordsOnCompletionNotAbandonment) {
  // Both halves of the one executor: a chunked stream and the general
  // shape, which runs every declaration on the first pull.
  for (const char* query :
       {kStreamQuery, "MATCH ANY (x:Account)-[:Transfer]->+(y:Account)"}) {
    SCOPED_TRACE(query);
    PropertyGraph g = TestGraph();
    obs::QueryStatsStore store;
    obs::SlowQueryLog log(8);
    EngineMetrics metrics;
    EngineOptions options;
    options.query_stats = &store;
    options.metrics = &metrics;
    options.slow_query_ms = 0;
    options.slow_log = &log;
    Engine engine(g, options);
    Result<PreparedQuery> q = engine.Prepare(query);
    ASSERT_TRUE(q.ok()) << q.status();

    {
      Result<Cursor> cursor = q->Open();
      ASSERT_TRUE(cursor.ok());
      RowView view;
      while (true) {
        Result<bool> more = cursor->Next(&view);
        ASSERT_TRUE(more.ok());
        if (!*more) break;
      }
    }
    EXPECT_EQ(store.total_recorded(), 1u) << "drained stream records once";

    // A LIMIT 1 stream records the one row it emitted, in every view.
    {
      Result<Cursor> cursor = q->Open({}, 1);
      ASSERT_TRUE(cursor.ok());
      Result<MatchOutput> out = cursor->Drain();
      ASSERT_TRUE(out.ok()) << out.status();
      EXPECT_EQ(out->rows.size(), 1u);
    }
    EXPECT_EQ(store.total_recorded(), 2u);
    ASSERT_EQ(store.Snapshot().size(), 1u);
    const obs::QueryStatEntry unlimited_and_limited = store.Snapshot()[0];
    ASSERT_EQ(log.total_added(), 2u);
    const uint64_t all_rows = log.Snapshot()[0].rows;
    EXPECT_GT(all_rows, 1u);
    EXPECT_EQ(unlimited_and_limited.rows, all_rows + 1);
    EXPECT_EQ(log.Snapshot()[1].rows, 1u);
    EXPECT_EQ(metrics.rows, 1u);
    EXPECT_EQ(g.metrics_registry()->Snapshot().CounterValue(
                  "gpml_rows_total"),
              all_rows + 1);

    {
      Result<Cursor> cursor = q->Open();
      ASSERT_TRUE(cursor.ok());
      RowView view;
      Result<bool> more = cursor->Next(&view);
      ASSERT_TRUE(more.ok());
      ASSERT_TRUE(*more);
      // Abandoned mid-stream: no completed execution, nothing recorded.
    }
    EXPECT_EQ(store.total_recorded(), 2u);
    EXPECT_EQ(store.Snapshot()[0].calls, 2u);
    EXPECT_EQ(log.total_added(), 2u);
    EXPECT_EQ(g.metrics_registry()->Snapshot().CounterValue(
                  "gpml_executions_total"),
              2u);
  }
}

TEST(QueryStatsEngineTest, PublishQueryStatsOffLeavesStoreEmpty) {
  PropertyGraph g = TestGraph();
  obs::QueryStatsStore store;
  EngineOptions options;
  options.query_stats = &store;
  options.publish_query_stats = false;
  Engine engine(g, options);
  ASSERT_TRUE(engine.Match(kStreamQuery).ok());
  EXPECT_EQ(store.total_recorded(), 0u);
  EXPECT_EQ(store.Snapshot().size(), 0u);
}

// --- per-tenant metric families ----------------------------------------------

TEST(QueryStatsPrometheusTest, TenantFamiliesRenderWithLabels) {
  obs::MetricsRegistry registry;
  registry.GetCounter("gpml_tenant_steps_total{tenant=\"acme\"}")
      ->Increment(42);
  registry.GetCounter("gpml_tenant_steps_total{tenant=\"zeta\"}")
      ->Increment(7);
  registry
      .GetCounter(
          "gpml_tenant_refusals_total{tenant=\"acme\","
          "reason=\"TENANT_STEP_BUDGET\"}")
      ->Increment();
  obs::Gauge* sessions =
      registry.GetGauge("gpml_tenant_active_sessions{tenant=\"acme\"}");
  ASSERT_NE(sessions, nullptr);
  sessions->Increment();
  sessions->Increment();
  sessions->Decrement();

  std::string text = obs::RenderPrometheus(registry);
  EXPECT_NE(text.find("# TYPE gpml_tenant_steps_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gpml_tenant_steps_total{tenant=\"acme\"} 42"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gpml_tenant_steps_total{tenant=\"zeta\"} 7"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("gpml_tenant_refusals_total{tenant=\"acme\","
                "reason=\"TENANT_STEP_BUDGET\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE gpml_tenant_active_sessions gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gpml_tenant_active_sessions{tenant=\"acme\"} 1"),
            std::string::npos)
      << text;
  // The # TYPE line appears once per family, not once per labeled series.
  EXPECT_EQ(text.find("# TYPE gpml_tenant_steps_total"),
            text.rfind("# TYPE gpml_tenant_steps_total"));
}

TEST(QueryStatsPrometheusTest, GaugesMayRenderNegative) {
  obs::MetricsRegistry registry;
  registry.GetGauge("gpml_test_gauge")->Set(-3);
  std::string text = obs::RenderPrometheus(registry);
  EXPECT_NE(text.find("gpml_test_gauge -3"), std::string::npos) << text;
}

// --- host surfaces -----------------------------------------------------------

TEST(QueryStatsHostTest, SurfacesFilterByGraphIdentity) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("bank", TestGraph()).ok());
  ASSERT_TRUE(catalog.AddGraph("other", BuildPaperGraph()).ok());

  obs::QueryStatsStore store;
  EngineOptions options;
  options.query_stats = &store;

  Session session(catalog, options);
  ASSERT_TRUE(session.UseGraph("bank").ok());
  ASSERT_TRUE(session.Execute(kStreamQuery).ok());
  ASSERT_TRUE(session.Execute(kStreamQuery).ok());
  ASSERT_TRUE(session.UseGraph("other").ok());
  ASSERT_TRUE(session.Execute(kPlainQuery).ok());
  ASSERT_TRUE(session.UseGraph("bank").ok());

  // Session: only the selected graph's entries.
  Result<std::vector<obs::QueryStatEntry>> mine = session.QueryStats();
  ASSERT_TRUE(mine.ok());
  ASSERT_EQ(mine->size(), 1u);
  EXPECT_EQ((*mine)[0].calls, 2u);
  EXPECT_NE((*mine)[0].fingerprint.find("isBlocked"), std::string::npos);

  // SQL/PGQ host reads the same store through the catalog.
  Result<std::vector<obs::QueryStatEntry>> pgq =
      GraphTableQueryStats(catalog, "other", &store);
  ASSERT_TRUE(pgq.ok());
  ASSERT_EQ(pgq->size(), 1u);
  EXPECT_EQ((*pgq)[0].calls, 1u);
  EXPECT_FALSE(GraphTableQueryStats(catalog, "missing", &store).ok());

  Session detached(catalog, options);
  EXPECT_FALSE(detached.QueryStats().ok()) << "no graph selected";
}

}  // namespace
}  // namespace gpml
