// Vectorized batch matcher (docs/vectorized.md): the block-at-a-time
// frontier expansion must produce rows byte-identical to the scalar
// interpreter — same rows, same order — at threads 1 and 8, on the fraud
// workloads and on adversarial graphs (self-loops, parallel edges, label
// universes beyond the 64-bit masks). The oracle is RunPattern on a copy of
// the same bound program with its batch plan cleared (Program::batch), so
// no switch is needed to run it. Quantified, selector-carrying, and
// cross-referencing patterns must fall back to the scalar route untouched.
// Budgets behave identically: max_matches trips at the same accepted
// binding (accept order is preserved), kTruncate emits a prefix of the
// oracle's rows, and max_steps refuses one step short of each route's own
// count. Includes the cyclic re-visit regression for the Figure 4 shape:
// equality joins against an earlier node variable hoist the label check to
// bind time only when the earlier occurrence implies it.

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

using testing_util::Compile;
using testing_util::CompiledDecl;
using testing_util::IsPrefix;
using testing_util::RouteRun;
using testing_util::RunOnce;

/// The batch route's oracle: the bound program with its batch plan cleared
/// runs the tuple-at-a-time interpreter.
Program ScalarOracle(const Program& program) {
  Program scalar = program;
  scalar.batch = nullptr;
  return scalar;
}

MatcherOptions Sharded(size_t threads) {
  MatcherOptions options;
  options.num_threads = threads;
  options.min_seeds_per_shard = 1;  // Force real sharding.
  return options;
}

Result<MatchOutput> RunMatch(const PropertyGraph& g, const std::string& query,
                             EngineMetrics* metrics = nullptr) {
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = metrics;
  return Engine(g, options).Match(query);
}

/// Asserts the program's route == its scalar oracle (byte-identical rows in
/// order) at threads 1 and 8.
void ExpectBatchAgreement(const PropertyGraph& g, const std::string& query) {
  SCOPED_TRACE(query + " on " + g.Summary());
  CompiledDecl c = Compile(g, query);
  ASSERT_TRUE(c.status.ok()) << c.status;
  const Program scalar = ScalarOracle(c.program);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    RouteRun oracle = RunOnce(g, scalar, *c.vars, Sharded(threads), false);
    ASSERT_TRUE(oracle.status.ok()) << oracle.status;
    EXPECT_NE(oracle.route, MatchRoute::kBatch);
    EXPECT_EQ(oracle.batch_blocks, 0u);
    RouteRun run = RunOnce(g, c.program, *c.vars, Sharded(threads), false);
    ASSERT_TRUE(run.status.ok()) << run.status;
    EXPECT_EQ(run.rows, oracle.rows) << "threads=" << threads;
  }
}

PropertyGraph MatrixGraph() {
  // parallel_test's generator scale: unbounded TRAIL/ACYCLIC enumerations
  // are exponential in the transfer density, so those run on the paper
  // graph only and this graph keeps a low density.
  FraudGraphOptions options;
  options.num_accounts = 30;
  options.transfers_per_account = 2;
  options.num_cities = 2;
  return MakeFraudGraph(options);
}

/// Batch-eligible workloads: linear fixed-length concatenations with
/// kernel-compilable inline predicates.
const char* kEligibleWorkloads[] = {
    "MATCH (x:Account)",
    "MATCH (x:Account WHERE x.isBlocked='yes')",
    "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->(y:Account)",
    "MATCH (x:Account)-[t:Transfer WHERE t.amount > 5000000]->(y:Account)",
    "MATCH (a:Account)-[:Transfer]->(b:Account)-[:Transfer]->(c:Account "
    "WHERE c.isBlocked='yes')",
    "MATCH (x:Account)-[:isLocatedIn]->(c:City WHERE c.name='Ankh-Morpork')"
    "<-[:isLocatedIn]-(y:Account WHERE y.isBlocked='yes')",
    "MATCH (x:Phone)~[:hasPhone]~(y:Account)",
    // Equality re-visit: the same node variable closes the pattern.
    "MATCH (x:Account)-[:Transfer]->(y:Account)-[:Transfer]->(x)",
    // Repeated edge variable: equality join on the edge.
    "MATCH (x:Account)-[t:Transfer]->(y:Account)<-[t:Transfer]-(z)",
    // A pattern-level WHERE is a postfilter over joined rows, not an
    // inline element predicate — the program itself stays batch-eligible.
    "MATCH (a:Account)-[t:Transfer]->(b:Account)-[u:Transfer]->(c:Account) "
    "WHERE t.amount <= u.amount",
};

/// Scalar-fallback workloads: quantifiers (bounded — see MatrixGraph),
/// selectors, restrictors, and WHEREs no kernel compiles (cross-element
/// and computed predicates).
const char* kFallbackWorkloads[] = {
    "MATCH (x:Account)-[:Transfer]->{1,3}(y:Account WHERE "
    "y.isBlocked='yes')",
    "MATCH TRAIL (x:Account)-[:Transfer]->{1,3}(y:Account WHERE "
    "y.isBlocked='yes')",
    "MATCH ALL SHORTEST (x:Account)-[:Transfer]->+(y:Account)",
    // Inline predicate no kernel compiles (IS NULL is not a comparison
    // against a literal or parameter).
    "MATCH (x:Account)-[t:Transfer WHERE t.amount IS NOT NULL]->(y:Account)",
};

/// Unbounded enumerations: exponential in transfer density, so exercised
/// on the paper graph only (the parallel_test convention).
const char* kPaperOnlyWorkloads[] = {
    "MATCH TRAIL (x:Account)-[:Transfer]->+(y:Account WHERE "
    "y.isBlocked='yes')",
    "MATCH ACYCLIC (x:Account)(-[:Transfer]->|<-[:Transfer]-)+"
    "(y:Account WHERE y.isBlocked='yes')",
};

TEST(BatchMatcherTest, FraudMatrixByteIdentical) {
  PropertyGraph g = MatrixGraph();
  for (const char* query : kEligibleWorkloads) {
    ExpectBatchAgreement(g, query);
  }
  for (const char* query : kFallbackWorkloads) {
    ExpectBatchAgreement(g, query);
  }
}

TEST(BatchMatcherTest, PaperGraph) {
  PropertyGraph g = BuildPaperGraph();
  for (const char* query : kEligibleWorkloads) {
    ExpectBatchAgreement(g, query);
  }
  for (const char* query : kPaperOnlyWorkloads) {
    ExpectBatchAgreement(g, query);
  }
}

TEST(BatchMatcherTest, EligibleWorkloadsActuallyRunBatched) {
  PropertyGraph g = MatrixGraph();
  for (const char* query : kEligibleWorkloads) {
    EngineMetrics metrics;
    Result<MatchOutput> out = RunMatch(g, query, &metrics);
    ASSERT_TRUE(out.ok()) << query;
    // Single-node patterns expand no level, so only multi-hop workloads
    // must report blocks; every eligible workload with an edge does.
    if (std::string(query).find("->") != std::string::npos ||
        std::string(query).find("~[") != std::string::npos) {
      EXPECT_GT(metrics.batch_blocks, 0u) << query;
      EXPECT_GT(metrics.batch_candidates, 0u) << query;
      EXPECT_GE(metrics.batch_candidates, metrics.batch_survivors) << query;
    }
  }
}

TEST(BatchMatcherTest, FallbackWorkloadsStayScalar) {
  PropertyGraph g = MatrixGraph();
  for (const char* query : kFallbackWorkloads) {
    EngineMetrics metrics;
    Result<MatchOutput> out = RunMatch(g, query, &metrics);
    ASSERT_TRUE(out.ok()) << query;
    EXPECT_EQ(metrics.batch_blocks, 0u) << query;
  }
}

TEST(BatchMatcherTest, SelfLoopsAndParallelEdges) {
  GraphBuilder b;
  b.AddNode("a", {"A", "B"}, {{"w", Value::Int(1)}});
  b.AddNode("b", {"A"}, {{"w", Value::Int(2)}});
  b.AddDirectedEdge("d1", "a", "a", {"T"});         // Directed self-loop.
  b.AddUndirectedEdge("u1", "b", "b", {"T", "S"});  // Undirected loop.
  b.AddDirectedEdge("d2", "a", "b", {"T"});         // Parallel pair...
  b.AddDirectedEdge("d3", "a", "b", {"T"});
  b.AddUndirectedEdge("u2", "a", "b", {"S"});
  b.AddDirectedEdge("plain", "a", "b", {});         // Label-less.
  PropertyGraph g = std::move(b).Build().value();
  const char* queries[] = {
      "MATCH (x:A)-[:T]->(y)",
      "MATCH (x)-[:T]->(x)",  // Self-loops only.
      "MATCH (x:A)-[e]->(y:A)-[f]->(z)",
      "MATCH (x)~[:S]~(y)",
      "MATCH (x:A WHERE x.w < 2)-[:T]->(y)-[:T]->(z)",
  };
  for (const char* query : queries) {
    ExpectBatchAgreement(g, query);
  }
}

TEST(BatchMatcherTest, LabelUniverseBeyondBitset) {
  // 70 distinct labels: label bitsets are unusable, so the batch label
  // passes must run through the symbol-array predicate path.
  GraphBuilder b;
  const int kNodes = 70;
  for (int i = 0; i < kNodes; ++i) {
    b.AddNode("n" + std::to_string(i), {"L" + std::to_string(i), "Common"},
              {{"w", Value::Int(i % 7)}});
  }
  for (int i = 0; i < kNodes; ++i) {
    b.AddDirectedEdge("e" + std::to_string(i), "n" + std::to_string(i),
                      "n" + std::to_string((i + 1) % kNodes),
                      {"E" + std::to_string(i % 5)});
  }
  PropertyGraph g = std::move(b).Build().value();
  ASSERT_FALSE(g.label_bits_usable());
  ExpectBatchAgreement(g, "MATCH (x:L3&Common)-[:E3]->(y:Common WHERE "
                          "y.w < 5)");
  ExpectBatchAgreement(g, "MATCH (x:Common)-[:E0]->(y)-[:E1]->(z)");
}

TEST(BatchMatcherTest, RandomMultigraphs) {
  for (uint64_t seed : {1u, 2u, 7u}) {
    PropertyGraph g = MakeRandomGraph(/*num_nodes=*/8, /*num_edges=*/40,
                                      /*num_labels=*/3,
                                      /*undirected_fraction=*/0.4, seed);
    ExpectBatchAgreement(g, "MATCH (x:L0)-[:L1]->(y)");
    ExpectBatchAgreement(g, "MATCH (x)-[e:L0]->(y)-[f:L2]->(z)");
    ExpectBatchAgreement(g, "MATCH (x)~[]~(y:L1)");
  }
}

// The Figure 4 cyclic-shape regression: when a pattern re-visits a node
// variable, the batch path joins by equality against the earlier binding
// and may skip the label re-check only when the first occurrence's labels
// imply it. A second occurrence carrying MORE labels than the first must
// still be label-checked.
TEST(BatchMatcherTest, CyclicRevisitReChecksNarrowerLabels) {
  GraphBuilder b;
  b.AddNode("plain", {}, {});            // No labels at all.
  b.AddNode("marked", {"A"}, {});
  b.AddDirectedEdge("lp", "plain", "plain", {"T"});
  b.AddDirectedEdge("lm", "marked", "marked", {"T"});
  PropertyGraph g = std::move(b).Build().value();

  // First occurrence unlabeled, second requires :A — only the marked
  // self-loop satisfies the cycle.
  const std::string narrowing = "MATCH (x)-[:T]->(x:A)";
  ExpectBatchAgreement(g, narrowing);
  Result<MatchOutput> out = RunMatch(g, narrowing);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows.size(), 1u);

  // Same labels on both occurrences: the equality join implies the label,
  // and the result is identical either way.
  ExpectBatchAgreement(g, "MATCH (x:A)-[:T]->(x:A)");
  // Second occurrence unlabeled: trivially implied.
  ExpectBatchAgreement(g, "MATCH (x:A)-[:T]->(x)");
}

TEST(BatchMatcherTest, Figure4CycleOnFraudGraph) {
  PropertyGraph g = MatrixGraph();
  // Transfer triangles re-entering the start account.
  ExpectBatchAgreement(
      g, "MATCH (x:Account WHERE x.isBlocked='yes')-[:Transfer]->"
         "(y:Account)-[:Transfer]->(z:Account)-[:Transfer]->(x)");
}

// --- Budgets --------------------------------------------------------------

/// Denser fraud graph for the budget tests: the step totals must dwarf the
/// parallel charge batching grain (256 per shard) so a shared half-budget
/// is guaranteed to trip (the parallel_test sizing).
PropertyGraph BudgetGraph() {
  FraudGraphOptions options;
  options.num_accounts = 40;
  return MakeFraudGraph(options);
}

const char kBudgetQuery[] =
    "MATCH (x:Account)-[:Transfer]->(y:Account)-[:Transfer]->(z:Account)"
    "-[:Transfer]->(w:Account)";

TEST(BatchMatcherTest, MatchBudgetTripsIdentically) {
  PropertyGraph g = MatrixGraph();
  CompiledDecl c = Compile(
      g, "MATCH (x:Account)-[:Transfer]->(y:Account)-[:Transfer]->(z:Account)");
  ASSERT_TRUE(c.status.ok()) << c.status;
  const Program scalar = ScalarOracle(c.program);
  RouteRun full = RunOnce(g, scalar, *c.vars, MatcherOptions(), false);
  ASSERT_TRUE(full.status.ok()) << full.status;
  const size_t total = full.rows.size();
  ASSERT_GT(total, 10u);

  // Accept order is preserved, so max_matches trips at exactly the same
  // accepted binding on both routes, sequential or sharded.
  for (const Program* program : {&scalar, &std::as_const(c.program)}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      MatcherOptions options = Sharded(threads);
      options.max_matches = total;
      RouteRun all = RunOnce(g, *program, *c.vars, options, false);
      EXPECT_TRUE(all.status.ok()) << all.status;
      EXPECT_EQ(all.rows, full.rows);
      options.max_matches = total - 1;
      RouteRun clipped = RunOnce(g, *program, *c.vars, options, false);
      EXPECT_EQ(clipped.status.code(), StatusCode::kResourceExhausted)
          << "threads=" << threads;
    }
  }
}

TEST(BatchMatcherTest, TruncatedRowsAreAPrefixOfTheOracle) {
  PropertyGraph g = BudgetGraph();
  CompiledDecl c = Compile(g, kBudgetQuery);
  ASSERT_TRUE(c.status.ok()) << c.status;
  const Program scalar = ScalarOracle(c.program);
  RouteRun oracle = RunOnce(g, scalar, *c.vars, MatcherOptions(), false);
  ASSERT_TRUE(oracle.status.ok()) << oracle.status;
  ASSERT_GT(oracle.rows.size(), 10u);

  for (const Program* program : {&scalar, &std::as_const(c.program)}) {
    const bool batch = program == &c.program;
    RouteRun full = RunOnce(g, *program, *c.vars, MatcherOptions(), false);
    ASSERT_TRUE(full.status.ok()) << full.status;
    EXPECT_EQ(full.route == MatchRoute::kBatch, batch);
    ASSERT_GT(full.steps, 100u);
    // kTruncate runs one shard whatever the thread count: at threads 1 and
    // 8, max_matches keeps the same 7 bindings on both routes, and a
    // max_steps trip — at half of each route's own step count, which
    // differ (the batch route charges per gathered candidate) — keeps a
    // prefix of the oracle's rows.
    for (size_t threads : {size_t{1}, size_t{8}}) {
      const std::string what = std::string(batch ? "batch" : "scalar") +
                               " threads=" + std::to_string(threads);
      MatcherOptions options = Sharded(threads);
      options.max_matches = 7;
      RouteRun kept = RunOnce(g, *program, *c.vars, options, true);
      ASSERT_TRUE(kept.status.ok()) << what << ": " << kept.status;
      EXPECT_TRUE(kept.truncated) << what;
      EXPECT_EQ(kept.rows, std::vector<std::string>(oracle.rows.begin(),
                                                    oracle.rows.begin() + 7))
          << what;

      options = Sharded(threads);
      options.max_steps = full.steps / 2;
      RouteRun clipped = RunOnce(g, *program, *c.vars, options, true);
      ASSERT_TRUE(clipped.status.ok()) << what << ": " << clipped.status;
      EXPECT_TRUE(clipped.truncated) << what;
      EXPECT_LT(clipped.rows.size(), oracle.rows.size()) << what;
      EXPECT_TRUE(IsPrefix(clipped.rows, oracle.rows)) << what;
    }
  }
}

TEST(BatchMatcherTest, StepBudgetRefusesOneStepShort) {
  // Each route refuses exactly when its own step count exceeds max_steps,
  // sequential or sharded (shards charge every step they ran into the one
  // shared budget): max_steps = steps passes and steps - 1 fails, on both
  // routes.
  PropertyGraph g = BudgetGraph();
  CompiledDecl c = Compile(g, kBudgetQuery);
  ASSERT_TRUE(c.status.ok()) << c.status;
  const Program scalar = ScalarOracle(c.program);
  for (const Program* program : {&scalar, &std::as_const(c.program)}) {
    RouteRun full = RunOnce(g, *program, *c.vars, MatcherOptions(), false);
    ASSERT_TRUE(full.status.ok()) << full.status;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      MatcherOptions options = Sharded(threads);
      options.max_steps = full.steps;
      RouteRun exact = RunOnce(g, *program, *c.vars, options, false);
      EXPECT_TRUE(exact.status.ok()) << threads << ": " << exact.status;
      EXPECT_EQ(exact.rows, full.rows) << threads;
      options.max_steps = full.steps - 1;
      RouteRun refused = RunOnce(g, *program, *c.vars, options, false);
      EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted)
          << threads;
    }
  }
}

TEST(BatchMatcherTest, SharedStepBudgetTripsAcrossShards) {
  PropertyGraph g = BudgetGraph();
  EngineMetrics metrics;
  Result<MatchOutput> full = RunMatch(g, kBudgetQuery, &metrics);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(metrics.batch_blocks, 0u);
  // The shards flush charges in batches of 256, so up to 256 x 8 steps can
  // sit uncharged; a half-budget is guaranteed to trip only when
  // total - 2048 > total / 2, i.e. total > 4096.
  ASSERT_GT(metrics.matcher_steps, 5000u);

  // One shared atomic budget spans all shards on the batch route too.
  EngineOptions options;
  options.num_threads = 8;
  options.matcher.min_seeds_per_shard = 1;
  options.matcher.max_steps = metrics.matcher_steps / 2;
  Result<MatchOutput> clipped = Engine(g, options).Match(kBudgetQuery);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kResourceExhausted);

  options.matcher.max_steps = metrics.matcher_steps;
  EXPECT_TRUE(Engine(g, options).Match(kBudgetQuery).ok());
}

// --- Cursor streaming -----------------------------------------------------

TEST(BatchMatcherTest, CursorStreamsTheOraclesRows) {
  // The engine's streaming cursor runs these batched; its rows (a prefix
  // under LIMIT) are the scalar oracle's, in order. Both queries run in
  // their written direction (the left endpoint is the cheaper anchor).
  PropertyGraph g = MatrixGraph();
  const char* queries[] = {
      "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->(y:Account)",
      "MATCH (x:Account WHERE x.isBlocked='yes')-[:isLocatedIn]->(c:City)"
      "<-[:isLocatedIn]-(y:Account)",
  };
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    CompiledDecl c = Compile(g, query);
    ASSERT_TRUE(c.status.ok()) << c.status;
    Result<MatchSet> oracle = RunPattern(g, ScalarOracle(c.program), *c.vars,
                                         MatcherOptions());
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    std::vector<std::string> want;
    for (const PathBinding& pb : oracle->bindings) {
      want.push_back(pb.ToString(g, *c.vars));
    }
    ASSERT_FALSE(want.empty());

    for (std::optional<uint64_t> limit :
         {std::optional<uint64_t>{}, std::optional<uint64_t>{3}}) {
      EngineMetrics metrics;
      EngineOptions options;
      options.metrics = &metrics;
      Engine engine(g, options);
      Result<planner::Plan> plan = engine.Plan(*ParseGraphPattern(query));
      ASSERT_TRUE(plan.ok()) << plan.status();
      ASSERT_FALSE(plan->decls[0].reversed);
      Result<PreparedQuery> q = engine.Prepare(query);
      ASSERT_TRUE(q.ok()) << q.status();
      Result<Cursor> cursor = q->Open({}, limit);
      ASSERT_TRUE(cursor.ok()) << cursor.status();
      std::vector<std::string> got;
      for (const RowView& view : *cursor) {
        got.push_back(view.row->bindings[0]->ToString(g, *view.context->vars));
      }
      EXPECT_GT(metrics.batch_blocks, 0u);
      std::vector<std::string> expected(
          want.begin(),
          want.begin() + static_cast<long>(
                             limit ? std::min<size_t>(*limit, want.size())
                                   : want.size()));
      EXPECT_EQ(got, expected) << "limit=" << limit.has_value();
    }
  }
}

}  // namespace
}  // namespace gpml
