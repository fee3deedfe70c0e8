// Compiled-plan caching: entries live on the immutable PropertyGraph (same
// atomic-shared_ptr slot discipline as GraphStats), keyed by (graph identity
// token, pattern fingerprint). Repeated queries skip normalize/analyze/plan;
// a structurally identical but distinct graph never shares entries; moving a
// graph moves its cache (identity follows the data); results are invariant
// in the cache.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "eval/engine.h"
#include "gql/session.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "pgq/graph_table.h"
#include "planner/explain.h"
#include "planner/plan_cache.h"

namespace gpml {
namespace {

const char* kQuery =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)";

TEST(PlanCacheTest, SecondExecutionHits) {
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(g, options);

  Result<MatchOutput> first = engine.Match(kQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(metrics.plan_cache_hits, 0u);
  EXPECT_EQ(metrics.plan_cache_misses, 1u);
  size_t rows = first->rows.size();

  Result<MatchOutput> second = engine.Match(kQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(metrics.plan_cache_hits, 1u);
  EXPECT_EQ(metrics.plan_cache_misses, 0u);
  EXPECT_EQ(second->rows.size(), rows);
}

TEST(PlanCacheTest, SharedAcrossEnginesAndHosts) {
  // The cache lives on the graph, so a fresh Engine — and each host, which
  // constructs one per statement — reuses plans compiled by any other.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("bank", BuildPaperGraph()).ok());

  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;

  Session session(catalog);
  session.set_options(options);  // Runtime plumbing: metrics, threads.
  ASSERT_TRUE(session.UseGraph("bank").ok());
  ASSERT_TRUE(session.Execute(kQuery).ok());
  EXPECT_EQ(metrics.plan_cache_misses, 1u);

  // SQL/PGQ host, same graph object from the catalog: hit.
  GraphTableQuery query;
  query.graph = "bank";
  query.match = kQuery;
  query.columns = "x.owner AS owner";
  ASSERT_TRUE(GraphTable(catalog, query, options).ok());
  EXPECT_EQ(metrics.plan_cache_hits, 1u);
}

TEST(PlanCacheTest, DistinctPatternsMiss) {
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;

  ASSERT_TRUE(Engine(g, options).Match(kQuery).ok());
  EXPECT_EQ(metrics.plan_cache_misses, 1u);

  // A different pattern: miss.
  ASSERT_TRUE(Engine(g, options).Match("MATCH (x:Account)").ok());
  EXPECT_EQ(metrics.plan_cache_misses, 1u);
  EXPECT_EQ(metrics.plan_cache_hits, 0u);

  // And hits once warmed.
  ASSERT_TRUE(Engine(g, options).Match(kQuery).ok());
  EXPECT_EQ(metrics.plan_cache_hits, 1u);
}

TEST(PlanCacheTest, InvalidatedByGraphIdentity) {
  // Two structurally identical graphs have distinct identity tokens and
  // never share cached plans.
  PropertyGraph a = BuildPaperGraph();
  PropertyGraph b = BuildPaperGraph();
  EXPECT_NE(a.identity_token(), b.identity_token());

  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  ASSERT_TRUE(Engine(a, options).Match(kQuery).ok());
  EXPECT_EQ(metrics.plan_cache_misses, 1u);

  ASSERT_TRUE(Engine(b, options).Match(kQuery).ok());
  EXPECT_EQ(metrics.plan_cache_misses, 1u)
      << "a cached plan must not cross graph identities";
  EXPECT_EQ(metrics.plan_cache_hits, 0u);

  // Direct slot check: a's entry is invisible through b even if someone
  // transplanted the snapshot (Lookup revalidates the identity token).
  std::string fp = planner::PlanFingerprint(*ParseGraphPattern(kQuery));
  EXPECT_NE(planner::LookupPlan(a, fp), nullptr);
  b.set_plan_cache(a.plan_cache());
  EXPECT_EQ(planner::LookupPlan(b, fp), nullptr);
}

TEST(PlanCacheTest, MovePreservesIdentityAndCache) {
  PropertyGraph g = BuildPaperGraph();
  uint64_t token = g.identity_token();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  ASSERT_TRUE(Engine(g, options).Match(kQuery).ok());
  EXPECT_EQ(metrics.plan_cache_misses, 1u);

  PropertyGraph moved = std::move(g);
  EXPECT_EQ(moved.identity_token(), token);
  ASSERT_TRUE(Engine(moved, options).Match(kQuery).ok());
  EXPECT_EQ(metrics.plan_cache_hits, 1u) << "identity follows the data";
}

TEST(PlanCacheTest, ResultsInvariantUnderCaching) {
  PropertyGraph g = BuildPaperGraph();
  Result<MatchOutput> want = Engine(g).Match(kQuery);  // Cold compile.
  ASSERT_TRUE(want.ok());

  g.set_plan_cache(nullptr);
  Engine warm(g);
  for (int i = 0; i < 2; ++i) {  // Miss, then hit.
    Result<MatchOutput> got = warm.Match(kQuery);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->rows.size(), want->rows.size());
    for (size_t r = 0; r < got->rows.size(); ++r) {
      ASSERT_EQ(got->rows[r].bindings.size(), want->rows[r].bindings.size());
      for (size_t b = 0; b < got->rows[r].bindings.size(); ++b) {
        EXPECT_TRUE(got->rows[r].bindings[b]->SameReduced(
            *want->rows[r].bindings[b]))
            << "row " << r << " binding " << b;
      }
    }
  }
}

TEST(PlanCacheTest, ExplainReportsCacheAndThreads) {
  PropertyGraph g = BuildPaperGraph();
  EngineOptions options;
  options.num_threads = 4;
  Engine engine(g, options);

  Result<std::string> cold = engine.Explain(kQuery);
  ASSERT_TRUE(cold.ok());
  Result<planner::ExplainedPlan> parsed_cold = planner::ParseExplain(*cold);
  ASSERT_TRUE(parsed_cold.ok()) << parsed_cold.status() << "\n" << *cold;
  EXPECT_TRUE(parsed_cold->has_exec);
  EXPECT_EQ(parsed_cold->threads, 4u);
  EXPECT_FALSE(parsed_cold->cached);

  Result<std::string> warm = engine.Explain(kQuery);
  ASSERT_TRUE(warm.ok());
  Result<planner::ExplainedPlan> parsed_warm = planner::ParseExplain(*warm);
  ASSERT_TRUE(parsed_warm.ok());
  EXPECT_TRUE(parsed_warm->cached) << *warm;
  EXPECT_EQ(parsed_warm->threads, 4u);
}

TEST(PlanCacheTest, EvictionBoundsTheSnapshot) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  for (size_t i = 0; i < planner::kPlanCacheMaxEntries + 10; ++i) {
    std::string q =
        "MATCH (x:Account WHERE x.owner='u" + std::to_string(i) + "')";
    ASSERT_TRUE(engine.Match(q).ok()) << q;
  }
  auto cache = g.plan_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_LE(cache->entries.size(), planner::kPlanCacheMaxEntries + 1);
}

TEST(PlanCacheTest, ConcurrentWarmupIsSafe) {
  // Two engines racing on a cold cache: copy-on-write inserts may drop an
  // entry (last store wins) but must never corrupt or mis-serve; exercised
  // under TSan in CI.
  PropertyGraph g = BuildPaperGraph();
  auto worker = [&g]() {
    Engine engine(g);
    for (int i = 0; i < 8; ++i) {
      Result<MatchOutput> out = engine.Match(kQuery);
      ASSERT_TRUE(out.ok());
    }
  };
  std::thread t1(worker), t2(worker);
  t1.join();
  t2.join();
  EXPECT_NE(g.plan_cache(), nullptr);
}

}  // namespace
}  // namespace gpml
