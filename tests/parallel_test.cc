// Seed-partitioned parallel execution: num_threads ∈ {1, 2, 8} must
// produce results byte-identical to the sequential engine — same rows in the same order — on the Figure 2–4
// workloads (the paper graph of Figure 2 with the basic patterns of
// Figure 3 and the fraud queries of Figure 4, plus the scaled fraud and
// random generator graphs). Paper-graph workloads are additionally checked
// against the §6.5 reference join, the ground truth the sequential engine
// is differential-tested against. Also covers the shared
// resource budget: one atomic max_steps/max_matches budget spans all shards,
// so a parallel run cannot execute N× the configured limits, and the
// sequential path still trips at exactly the historical instruction.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

using testing_util::OrderedRows;

Result<MatchOutput> RunQuery(const PropertyGraph& g, const std::string& query,
                        size_t num_threads,
                        EngineMetrics* metrics = nullptr) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.metrics = metrics;
  // Force fan-out even on tiny test graphs (the default threshold keeps
  // short seed lists sequential as a latency guard).
  options.matcher.min_seeds_per_shard = 1;
  Engine engine(g, options);
  return engine.Match(query);
}

/// The workload family: Figure 3 basic patterns, the Figure 4 fraud queries
/// (both BFS/selector and DFS routes), quantifiers, restrictors, unions,
/// multiset alternation, match modes, and multi-declaration joins.
const char* kWorkloads[] = {
    // Figure 3: node / edge patterns with inline predicates.
    "MATCH (x:Account WHERE x.isBlocked='yes')",
    "MATCH (x:Account WHERE x.isBlocked='yes')-[t:Transfer]->"
    "(y:Account WHERE y.isBlocked='yes')",
    "MATCH (x:Account)-[t:Transfer WHERE t.amount > 5000000]->(y:Account)",
    // Quantified transfer chains (DFS route, TRAIL-bounded).
    "MATCH TRAIL (x:Account)-[:Transfer]->+(y:Account WHERE "
    "y.isBlocked='yes')",
    "MATCH (x:Account)->{1,3}(y:Account)",
    // Figure 4: the fraud co-location query, joined declarations.
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)",
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY SHORTEST p = (x)-[:Transfer]->+(y)",
    // Selectors on the BFS route, deterministic kinds included.
    "MATCH ALL SHORTEST (x:Account)-[:Transfer]->+(y:Account)",
    "MATCH SHORTEST 2 GROUP (x:Account)-[:Transfer]->+(y:Account)",
    // Union, alternation, restrictors, undirected steps.
    "MATCH ACYCLIC (x:Account)(-[:Transfer]->|<-[:Transfer]-)+"
    "(y:Account WHERE y.isBlocked='yes')",
    "MATCH (x:Phone)~[:hasPhone]~(y:Account)",
    // Match modes postfilter the joined rows.
    "MATCH DIFFERENT EDGES (x)-[e:Transfer]->(y), (y)-[f:Transfer]->(z)",
};

void ExpectParallelAgreement(const PropertyGraph& g,
                             const std::string& query) {
  EngineMetrics seq_metrics;
  Result<MatchOutput> seq = RunQuery(g, query, 1, &seq_metrics);
  ASSERT_TRUE(seq.ok()) << query << " -> " << seq.status();
  std::vector<std::string> want = OrderedRows(*seq, g);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    EngineMetrics par_metrics;
    Result<MatchOutput> par = RunQuery(g, query, threads, &par_metrics);
    ASSERT_TRUE(par.ok())
        << query << " threads=" << threads << " -> " << par.status();
    EXPECT_EQ(want, OrderedRows(*par, g))
        << query << " threads=" << threads << " on " << g.Summary();
    // Sharding repartitions the same per-seed searches: the total
    // instruction count is invariant in the thread count.
    EXPECT_EQ(seq_metrics.matcher_steps, par_metrics.matcher_steps)
        << query << " threads=" << threads;
    EXPECT_EQ(seq_metrics.seeded_nodes, par_metrics.seeded_nodes);
    EXPECT_EQ(par_metrics.threads, threads);
  }
}

TEST(ParallelTest, PaperGraphWorkloads) {
  PropertyGraph g = BuildPaperGraph();
  for (const char* query : kWorkloads) {
    ExpectParallelAgreement(g, query);
  }
}

TEST(ParallelTest, ScaledFraudGraphWorkloads) {
  // The full family runs on the paper graph above; at generator scale the
  // unbounded TRAIL/ACYCLIC enumerations are replaced by bounded
  // quantifiers (their walk count is exponential in the transfer density,
  // overflowing default budgets long before testing anything new).
  FraudGraphOptions options;
  options.num_accounts = 30;
  options.transfers_per_account = 2;
  options.num_cities = 2;
  PropertyGraph g = MakeFraudGraph(options);
  const char* queries[] = {
      "MATCH (x:Account WHERE x.isBlocked='yes')",
      "MATCH (x:Account WHERE x.isBlocked='yes')-[t:Transfer]->"
      "(y:Account WHERE y.isBlocked='yes')",
      "MATCH (x:Account)-[t:Transfer WHERE t.amount > 5000000]->(y:Account)",
      "MATCH TRAIL (x:Account)-[:Transfer]->{1,3}(y:Account WHERE "
      "y.isBlocked='yes')",
      "MATCH (x:Account)->{1,3}(y:Account)",
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
      "(y:Account WHERE y.isBlocked='yes'), "
      "ANY (x)-[:Transfer]->+(y)",
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
      "(y:Account WHERE y.isBlocked='yes'), "
      "ANY SHORTEST p = (x)-[:Transfer]->+(y)",
      "MATCH ALL SHORTEST (x:Account)-[:Transfer]->+(y:Account)",
      "MATCH SHORTEST 2 GROUP (x:Account)-[:Transfer]->+(y:Account)",
      "MATCH (x:Phone)~[:hasPhone]~(y:Account)",
      "MATCH DIFFERENT EDGES (x)-[e:Transfer]->(y), (y)-[f:Transfer]->(z)",
  };
  for (const char* query : queries) {
    ExpectParallelAgreement(g, query);
  }
}

TEST(ParallelTest, RandomGraphWorkloads) {
  PropertyGraph g = MakeRandomGraph(40, 160, 3, 0.25, /*seed=*/7);
  const char* queries[] = {
      "MATCH (x:L0)-[e]->(y:L1)",
      "MATCH (x)-[e:L0]->(y)-[f]-(z)",
      "MATCH TRAIL (x:L0)-[:L1]->+(y)",
      "MATCH ALL SHORTEST (x:L0)-[]->+(y:L2)",
      "MATCH (x WHERE x.w < 50)-[e]->(y WHERE y.w >= 20)",
  };
  for (const char* query : queries) {
    ExpectParallelAgreement(g, query);
  }
}

/// Workloads double-checked against the §6.5 reference join (multiset
/// equality; order is the engine's own contract, asserted against the
/// sequential engine above).
TEST(ParallelTest, AgreesWithReferenceEvaluator) {
  PropertyGraph g = BuildPaperGraph();
  const char* queries[] = {
      "MATCH (x:Account WHERE x.isBlocked='yes')",
      "MATCH (x:Account)-[t:Transfer WHERE t.amount > 5000000]->(y:Account)",
      "MATCH TRAIL (x:Account)-[:Transfer]->+(y:Account WHERE "
      "y.isBlocked='yes')",
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
      "(y:Account WHERE y.isBlocked='yes'), "
      "ANY SHORTEST p = (x)-[:Transfer]->+(y)",
      "MATCH DIFFERENT EDGES (x)-[e:Transfer]->(y), (y)-[f:Transfer]->(z)",
  };
  for (const char* query : queries) {
    std::vector<std::string> want = testing_util::ReferenceJoinRows(g, query);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      Result<MatchOutput> out = RunQuery(g, query, threads);
      ASSERT_TRUE(out.ok()) << query;
      EXPECT_EQ(testing_util::SortedRows(*out, g), want)
          << query << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared resource budget
// ---------------------------------------------------------------------------

const char* kBudgetQuery =
    "MATCH (x:Account)-[:Transfer]->(y:Account)-[:Transfer]->(z:Account)"
    "-[:Transfer]->(w:Account)";

size_t StepsUsed(const PropertyGraph& g, const std::string& query) {
  EngineMetrics metrics;
  Result<MatchOutput> out = RunQuery(g, query, 1, &metrics);
  EXPECT_TRUE(out.ok()) << out.status();
  return metrics.matcher_steps;
}

/// The sequential path charges every instruction individually, so the limit
/// trips at exactly the same instruction as the historical per-run counter:
/// max_steps == steps-used passes, one less fails.
TEST(ParallelTest, SequentialBudgetTriggersAtTheSamePoint) {
  FraudGraphOptions options;
  options.num_accounts = 40;
  PropertyGraph g = MakeFraudGraph(options);
  size_t steps = StepsUsed(g, kBudgetQuery);
  ASSERT_GT(steps, 1000u);

  EngineOptions opts;
  opts.num_threads = 1;
  opts.matcher.max_steps = steps;
  EXPECT_TRUE(Engine(g, opts).Match(kBudgetQuery).ok());

  opts.matcher.max_steps = steps - 1;
  Result<MatchOutput> clipped = Engine(g, opts).Match(kBudgetQuery);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kResourceExhausted);
}

/// Under N shards the budget is one shared atomic, not N per-shard copies: a
/// limit well below the total work must trip even though every individual
/// shard stays below it.
TEST(ParallelTest, ParallelBudgetIsSharedAcrossShards) {
  FraudGraphOptions options;
  // 60 accounts keeps the step count (batch charging: one per gathered
  // candidate) far above the grain even on the vectorized path.
  options.num_accounts = 60;
  PropertyGraph g = MakeFraudGraph(options);
  size_t steps = StepsUsed(g, kBudgetQuery);
  // Far above the parallel charge batching grain (256 x 8 shards), so the
  // shared limit below must trip even with pending uncharged batches.
  ASSERT_GT(steps, 10000u) << "workload too small to exercise batching";

  EngineOptions opts;
  opts.num_threads = 8;
  opts.matcher.min_seeds_per_shard = 1;
  opts.matcher.max_steps = steps / 2;
  Result<MatchOutput> clipped = Engine(g, opts).Match(kBudgetQuery);
  ASSERT_FALSE(clipped.ok())
      << "8 shards executed 4x a per-shard budget share without tripping "
         "the shared limit";
  EXPECT_EQ(clipped.status().code(), StatusCode::kResourceExhausted);

  // A budget covering the whole run passes regardless of shard count.
  opts.matcher.max_steps = steps;
  EXPECT_TRUE(Engine(g, opts).Match(kBudgetQuery).ok());
}

/// A shard that finishes charges its last partial stride: four shards that
/// each run fewer steps than one charge stride (256) must not slip past a
/// one-step budget between them.
TEST(ParallelTest, FinishedShardsChargeTheirLastPartialStride) {
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions opts;
  opts.num_threads = 4;
  opts.matcher.min_seeds_per_shard = 1;
  opts.matcher.max_steps = 1;
  opts.metrics = &metrics;
  Result<MatchOutput> clipped = Engine(g, opts).Match(
      "MATCH (x:Account)-[t:Transfer]->(y:Account)");
  ASSERT_FALSE(clipped.ok())
      << metrics.matcher_steps << " steps ran under max_steps = 1";
  EXPECT_EQ(clipped.status().code(), StatusCode::kResourceExhausted);
}

/// max_matches is shared the same way; under kTruncate every thread count
/// delivers the sequential cut.
TEST(ParallelTest, SharedMatchBudget) {
  FraudGraphOptions options;
  options.num_accounts = 40;
  PropertyGraph g = MakeFraudGraph(options);
  Result<MatchOutput> full = RunQuery(g, kBudgetQuery, 1);
  ASSERT_TRUE(full.ok());
  size_t rows = full->rows.size();
  ASSERT_GT(rows, 16u);

  std::vector<std::string> sequential_cut;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineOptions opts;
    opts.num_threads = threads;
    opts.matcher.min_seeds_per_shard = 1;
    opts.matcher.max_matches = rows / 4;
    Result<MatchOutput> clipped = Engine(g, opts).Match(kBudgetQuery);
    ASSERT_FALSE(clipped.ok()) << "threads=" << threads;
    EXPECT_EQ(clipped.status().code(), StatusCode::kResourceExhausted);

    opts.on_budget = EngineOptions::BudgetPolicy::kTruncate;
    Result<MatchOutput> cut = Engine(g, opts).Match(kBudgetQuery);
    ASSERT_TRUE(cut.ok()) << cut.status();
    if (threads == 1) sequential_cut = OrderedRows(*cut, g);
    EXPECT_EQ(OrderedRows(*cut, g), sequential_cut) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace gpml
