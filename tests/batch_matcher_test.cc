// Vectorized batch matcher (docs/vectorized.md): the block-at-a-time
// frontier expansion behind MatcherOptions::use_batch must produce rows
// byte-identical to the scalar interpreter — same rows, same order — across
// {batch on/off} x {threads 1,8} x {planner on/off}, on the
// fraud workloads and on adversarial graphs (self-loops, parallel edges,
// label universes beyond the 64-bit masks). Quantified, selector-carrying,
// and cross-referencing patterns must fall back to the scalar route
// untouched. Budgets behave identically: max_matches trips at the same
// accepted binding (accept order is preserved), and kTruncate emits a
// prefix of the oracle's rows. Includes the cyclic re-visit regression for
// the Figure 4 shape: equality joins against an earlier node variable hoist
// the label check to bind time only when the earlier occurrence implies it.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"

namespace gpml {
namespace {

/// Canonical order-preserving rendering: one string per row, bindings in
/// declaration order. Two runs agree iff the sequences match element-wise.
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

Result<MatchOutput> RunMatch(const PropertyGraph& g, const std::string& query,
                        bool use_batch, size_t threads = 1,
                        bool planner = false,
                        EngineMetrics* metrics = nullptr) {
  EngineOptions options;
  options.matcher.use_batch = use_batch;
  options.num_threads = threads;
  options.use_planner = planner;
  options.metrics = metrics;
  options.matcher.min_seeds_per_shard = 1;  // Force real sharding.
  return Engine(g, options).Match(query);
}

/// Asserts batch on == batch off (byte-identical rows) over the full
/// execution matrix, holding the planner setting fixed on each comparison
/// (a different plan may legitimately reorder rows).
void ExpectBatchAgreement(const PropertyGraph& g, const std::string& query) {
  for (bool planner : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      EngineMetrics off_metrics;
      Result<MatchOutput> off = RunMatch(g, query, /*use_batch=*/false,
                                         threads, planner, &off_metrics);
      ASSERT_TRUE(off.ok()) << query << " -> " << off.status();
      EXPECT_EQ(off_metrics.batch_blocks, 0u) << query;
      EngineMetrics on_metrics;
      Result<MatchOutput> on = RunMatch(g, query, /*use_batch=*/true,
                                        threads, planner, &on_metrics);
      ASSERT_TRUE(on.ok()) << query << " -> " << on.status();
      EXPECT_EQ(CanonRows(*off, g), CanonRows(*on, g))
          << query << " threads=" << threads << " planner=" << planner
          << " on " << g.Summary();
    }
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
    Result<MatchOutput> out =
        RunMatch(g, query, /*use_batch=*/true, 1, false, &metrics);
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
    Result<MatchOutput> out =
        RunMatch(g, query, /*use_batch=*/true, 1, false, &metrics);
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
  Result<MatchOutput> out = RunMatch(g, narrowing, /*use_batch=*/true);
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

TEST(BatchMatcherTest, MatchBudgetTripsIdentically) {
  PropertyGraph g = MatrixGraph();
  const std::string query =
      "MATCH (x:Account)-[:Transfer]->(y:Account)-[:Transfer]->(z:Account)";
  Result<MatchOutput> full = RunMatch(g, query, /*use_batch=*/false);
  ASSERT_TRUE(full.ok());
  const size_t total = full->rows.size();
  ASSERT_GT(total, 10u);

  for (bool use_batch : {false, true}) {
    // Accept order is preserved, so max_matches trips at exactly the same
    // accepted binding on both routes.
    EngineOptions options;
    options.matcher.use_batch = use_batch;
    options.matcher.max_matches = total;
    EXPECT_TRUE(Engine(g, options).Match(query).ok()) << use_batch;
    options.matcher.max_matches = total - 1;
    Result<MatchOutput> clipped = Engine(g, options).Match(query);
    ASSERT_FALSE(clipped.ok()) << use_batch;
    EXPECT_EQ(clipped.status().code(), StatusCode::kResourceExhausted);
  }
}

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

TEST(BatchMatcherTest, TruncatedRowsAreAPrefixOfTheOracle) {
  PropertyGraph g = BudgetGraph();
  EngineOptions base;
  base.matcher.use_batch = false;
  Result<MatchOutput> oracle = Engine(g, base).Match(kBudgetQuery);
  ASSERT_TRUE(oracle.ok());
  std::vector<std::string> want = CanonRows(*oracle, g);
  ASSERT_GT(want.size(), 10u);

  for (bool use_batch : {false, true}) {
    // max_matches under kTruncate: the accepted-binding budget charges in
    // identical order, so the truncated output is byte-identical.
    EngineOptions options;
    options.matcher.use_batch = use_batch;
    options.on_budget = EngineOptions::BudgetPolicy::kTruncate;
    options.matcher.max_matches = 7;
    Result<MatchOutput> out = Engine(g, options).Match(kBudgetQuery);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_TRUE(out->truncated);
    std::vector<std::string> got = CanonRows(*out, g);
    ASSERT_LE(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << "batch=" << use_batch << ": truncated rows are not a prefix";

    // max_steps under kTruncate: the two routes charge different step
    // totals (the batch path charges per gathered candidate), so the
    // truncation points differ — but whatever prefix survives must still
    // be a prefix of the oracle's rows. Budget at half of this route's
    // own full step count so it reliably trips mid-search.
    EngineMetrics route_metrics;
    Result<MatchOutput> full = RunMatch(g, kBudgetQuery, use_batch, 1,
                                        false, &route_metrics);
    ASSERT_TRUE(full.ok());
    ASSERT_GT(route_metrics.matcher_steps, 100u);
    EngineOptions steps;
    steps.matcher.use_batch = use_batch;
    steps.on_budget = EngineOptions::BudgetPolicy::kTruncate;
    steps.matcher.max_steps = route_metrics.matcher_steps / 2;
    Result<MatchOutput> clipped = Engine(g, steps).Match(kBudgetQuery);
    ASSERT_TRUE(clipped.ok()) << clipped.status();
    EXPECT_TRUE(clipped->truncated);
    std::vector<std::string> prefix = CanonRows(*clipped, g);
    ASSERT_LT(prefix.size(), want.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), want.begin()))
        << "batch=" << use_batch << ": step-truncated rows diverge";
  }
}

TEST(BatchMatcherTest, SharedStepBudgetTripsAcrossShards) {
  PropertyGraph g = BudgetGraph();
  EngineMetrics metrics;
  Result<MatchOutput> full =
      RunMatch(g, kBudgetQuery, /*use_batch=*/true, 1, false, &metrics);
  ASSERT_TRUE(full.ok());
  // The shards flush charges in batches of 256, so up to 256 x 8 steps can
  // sit uncharged; a half-budget is guaranteed to trip only when
  // total - 2048 > total / 2, i.e. total > 4096.
  ASSERT_GT(metrics.matcher_steps, 5000u);

  // One shared atomic budget spans all shards on the batch route too.
  EngineOptions options;
  options.matcher.use_batch = true;
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

TEST(BatchMatcherTest, CursorStreamsIdenticalRows) {
  PropertyGraph g = MatrixGraph();
  const char* queries[] = {
      "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->(y:Account)",
      "MATCH (x:Account)-[:isLocatedIn]->(c:City WHERE "
      "c.name='Ankh-Morpork')<-[:isLocatedIn]-(y:Account)",
  };
  for (const char* query : queries) {
    EngineOptions off;
    off.matcher.use_batch = false;
    Result<MatchOutput> oracle = Engine(g, off).Match(query);
    ASSERT_TRUE(oracle.ok());
    std::vector<std::string> want = CanonRows(*oracle, g);

    for (std::optional<uint64_t> limit :
         {std::optional<uint64_t>{}, std::optional<uint64_t>{3}}) {
      EngineOptions on;
      on.matcher.use_batch = true;
      Engine engine(g, on);
      Result<PreparedQuery> q = engine.Prepare(query);
      ASSERT_TRUE(q.ok()) << q.status();
      Result<Cursor> cursor = q->Open({}, limit);
      ASSERT_TRUE(cursor.ok()) << cursor.status();
      std::vector<std::string> got;
      RowView view;
      while (true) {
        Result<bool> more = cursor->Next(&view);
        ASSERT_TRUE(more.ok()) << more.status();
        if (!*more) break;
        std::string s;
        for (const auto& pb : view.row->bindings) {
          s += pb->ToString(g, *view.context->vars);
          s += " | ";
        }
        got.push_back(std::move(s));
      }
      std::vector<std::string> expected(
          want.begin(),
          want.begin() + static_cast<long>(
                             limit ? std::min<size_t>(*limit, want.size())
                                   : want.size()));
      EXPECT_EQ(got, expected) << query << " limit=" << limit.has_value();
    }
  }
}

}  // namespace
}  // namespace gpml
