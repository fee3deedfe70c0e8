// Property-based differential testing: the literal §6 reference evaluator
// (expand → match → join → reduce → dedup → select) and the production NFA
// engine must produce identical reduced-binding sets on randomized graphs
// for a family of generated patterns. This is the strongest evidence that
// the lazy product-graph search implements the declarative execution model.
// Multi-declaration patterns check the planner the same way: the planned
// engine against the §6.5 reference join (RunReferencePattern), on a family
// that makes every planner decision fire.

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "eval/reference_eval.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "planner/planner.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

/// The engine's rows equal the §6 reference evaluator's as a multiset.
void ExpectAgreement(const PropertyGraph& g, const std::string& query) {
  EXPECT_EQ(testing_util::EngineJoinRows(g, query),
            testing_util::ReferenceJoinRows(g, query))
      << query << " on " << g.Summary();
}

/// The generated pattern family: a representative slice of the language —
/// orientations, quantifiers, restrictors, unions, alternation, predicates.
/// Selector queries are compared for ALL SHORTEST / SHORTEST k GROUP only
/// (deterministic per Figure 8); nondeterministic selectors may legally
/// differ between evaluators.
const char* kPatternFamily[] = {
    "MATCH (x:L0)",
    "MATCH (x:L0|L1)",
    "MATCH (x:!L2)",
    "MATCH (x)-[e:L0]->(y)",
    "MATCH (x)<-[e:L1]-(y)",
    "MATCH (x)-[e]-(y)",
    "MATCH (x)~[e]~(y)",
    "MATCH (x)~[e]~>(y)",
    "MATCH (x)<~[e]~(y)",
    "MATCH (x)<-[e]->(y)",
    "MATCH (x)-[e:L0]->(y)-[f:L1]->(z)",
    "MATCH (x)-[e]->(y)<-[f]-(z)",
    "MATCH (x WHERE x.w < 50)-[e]->(y WHERE y.w >= 20)",
    "MATCH (x)-[e WHERE e.w > 30]->(y)",
    "MATCH (x)->{2}(y)",
    "MATCH (x)->{1,3}(y)",
    "MATCH (x)-[e:L0]->{0,2}(y)",
    "MATCH TRAIL (x)-[e]->*(y)",
    "MATCH TRAIL (x)-[e:L0]->+(y)",
    "MATCH ACYCLIC (x)-[e]->*(y)",
    "MATCH SIMPLE (x)-[e]->*(y)",
    "MATCH TRAIL (x)-[e]-*(y)",
    "MATCH (x)[-[e:L0]->(m)-[f:L1]->(n)]{1,2}(y)",
    "MATCH (a)[()-[t]->() WHERE t.w>20]{1,2}(b)",
    "MATCH (x)[->(y:L0)] | [->(y:L1)]",
    "MATCH (c:L0) | (c:L1)",
    "MATCH (c:L0) |+| (c:L1)",
    "MATCH (x)[-[e:L0]->(y) | <-[f:L1]-(y)]",
    "MATCH (x) [->(y)]?",
    "MATCH (x)-[e]->(y) WHERE x.w < y.w",
    "MATCH (s)->(m)->(t) WHERE ALL_DIFFERENT(s, m, t)",
    "MATCH (s)-[e]-(t) WHERE s IS SOURCE OF e",
    "MATCH TRAIL (x)-[e]->*(y) WHERE COUNT(e.*) >= 2",
    "MATCH ALL SHORTEST (x:L0)-[e]->*(y:L1)",
    "MATCH ALL SHORTEST (x)-[e:L0]->+(y)",
    "MATCH SHORTEST 2 GROUP (x:L0)-[e]->*(y)",
    "MATCH ALL SHORTEST TRAIL (x:L0)-[e]->*(y:L1)",
    // BFS pruning-soundness stressors: per-iteration predicates referencing
    // variables bound before the loop (environment must be part of the
    // product-state key), and restrictor memory inside the selector route.
    "MATCH ALL SHORTEST (x)[()-[t]->() WHERE t.w >= x.w]{1,3}(y)",
    "MATCH ALL SHORTEST (x:L0)-[e]->(m)[()-[t]->() WHERE t.w > m.w]{0,2}(y)",
    "MATCH ALL SHORTEST TRAIL (x)-[e]-*(y:L2)",
    "MATCH SHORTEST 2 GROUP TRAIL (x:L0)-[e:L0|L1]->*(y)",
};

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, const char*>> {};

TEST_P(DifferentialTest, ReferenceAgreesWithEngine) {
  auto [seed, query] = GetParam();
  // Small dense-ish graphs keep the reference expansion tractable while
  // still containing cycles, parallel edges and self-loops.
  PropertyGraph g =
      MakeRandomGraph(/*num_nodes=*/6, /*num_edges=*/9, /*num_labels=*/3,
                      /*undirected_fraction=*/0.3,
                      /*seed=*/static_cast<uint64_t>(seed));
  ExpectAgreement(g, query);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(kPatternFamily)),
    [](const ::testing::TestParamInfo<DifferentialTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_q" +
             std::to_string(info.index % std::size(kPatternFamily));
    });

/// The execution matrix over {threads 1,8}: both thread counts must
/// produce byte-identical rows in identical order — shards merge in seed
/// order. With `reference`, the rows must also be the §6.5 reference
/// join's as a multiset (graphs and patterns small enough for it to
/// enumerate).
void ExpectMatrixIdentical(const PropertyGraph& g, const std::string& query,
                           const ReferenceOptions* reference = nullptr) {
  std::vector<std::string> baseline;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineOptions options;
    options.num_threads = threads;
    options.matcher.min_seeds_per_shard = 1;  // Shard tiny seed lists.
    Result<MatchOutput> out = Engine(g, options).Match(query);
    ASSERT_TRUE(out.ok()) << query << " -> " << out.status();
    std::vector<std::string> rows = testing_util::OrderedRows(*out, g);
    if (threads == 1) {
      baseline = std::move(rows);
      if (reference != nullptr) {
        EXPECT_EQ(testing_util::SortedRows(*out, g),
                  testing_util::ReferenceJoinRows(g, query, *reference))
            << query << " on " << g.Summary();
      }
    } else {
      ASSERT_EQ(rows, baseline) << query << " diverges at threads="
                                << threads;
    }
  }
}

TEST(DifferentialMatrixTest, RandomGraphRowsIdenticalAcrossMatrix) {
  // The reference enumerates every trail, or every walk up to the cap, of
  // a 60-edge graph for the two unbounded patterns; the 6-node graphs
  // cover them against it.
  const std::pair<const char*, bool> queries[] = {
      {"MATCH (x:L0)-[e:L1]->(y)", true},
      {"MATCH (x:L0 WHERE x.w < 50)-[e:L0|L1]->(y WHERE y.w >= 20)", true},
      {"MATCH TRAIL (x)-[e:L0]->+(y)", false},
      {"MATCH ALL SHORTEST (x:L0)-[e]->*(y:L1)", false},
      {"MATCH (x:L0)-[e:L1]->(y), (y)-[f:L0]->(z)", true},
      {"MATCH (x)~[e:L2]~(y)-[f]->(z:!L1)", true},
  };
  for (uint64_t seed : {1u, 4u}) {
    PropertyGraph g = MakeRandomGraph(/*num_nodes=*/24, /*num_edges=*/60,
                                      /*num_labels=*/3,
                                      /*undirected_fraction=*/0.3, seed);
    const ReferenceOptions reference;
    for (const auto& [q, with_reference] : queries) {
      ExpectMatrixIdentical(g, q, with_reference ? &reference : nullptr);
    }
  }
}

TEST(DifferentialMatrixTest, FraudGraphRowsIdenticalAcrossMatrix) {
  FraudGraphOptions options;
  options.num_accounts = 80;
  options.num_cities = 2;
  PropertyGraph g = MakeFraudGraph(options);
  const char* queries[] = {
      // Index-seeding candidates (equality predicates on labeled anchors).
      "MATCH (x:Account WHERE x.isBlocked='yes')-[:Transfer]->"
      "(y:Account WHERE y.isBlocked='no')",
      // Label conjunction seeding.
      "MATCH (c:City&Country)<-[:isLocatedIn]-(a:Account)",
      // The paper's shared-phone pattern (undirected + equi-join).
      "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->"
      "(d:Account)~[:hasPhone]~(p)",
  };
  const ReferenceOptions reference;
  for (const char* q : queries) ExpectMatrixIdentical(g, q, &reference);
}

// ---------------------------------------------------------------------------
// §6.5 joins: the planner against the reference join
// ---------------------------------------------------------------------------

/// Multi-declaration patterns over the random graphs' L0-L2 labels: a
/// shared-singleton join, a cross-declaration final WHERE, the match modes,
/// an anchor bound by an earlier declaration, a right-anchored (reversible)
/// declaration, a declaration written before the one that should run first,
/// and the Figure 4 ANY join.
const char* kJoinFamily[] = {
    "MATCH (x)-[e:L0]->(y), (y)-[f:L1]->(z)",
    "MATCH (x)-[e]->(y), (y)-[f]->(z) WHERE x.w < z.w",
    "MATCH DIFFERENT EDGES (x)-[e]->(y), (y)-[f]->(z)",
    "MATCH DIFFERENT NODES (x)-[]->(y), (y)~[]~(z)",
    "MATCH (x:L0 WHERE x.w < 60)-[e]->(y), TRAIL (y)-[f]->{1,2}(z)",
    "MATCH (x)-[e]->(y:L1 WHERE y.w < 30), (y)<-[f]-(z)",
    "MATCH ALL SHORTEST (x)-[]->+(y), (x:L2)-[e:L0|L1]->(z)",
    "MATCH (x:L0)-[e]->(c)<-[f]-(y:L1), ANY (x)-[]->+(y)",
    "MATCH (x:L0)-[e]->(c)<-[f]-(y:L1), ANY SHORTEST (x)-[]->+(y)",
};

/// The same shapes on the paper graph, index-seedable and Figure 4 itself.
const char* kPaperJoinFamily[] = {
    "MATCH (p:Phone)~[:hasPhone]~(s:Account), (s)-[t:Transfer]->(d:Account)",
    "MATCH (x:Account)-[t:Transfer]->(y), (y)-[u:Transfer]->(z) "
    "WHERE t.amount > u.amount",
    "MATCH DIFFERENT EDGES (x)-[t:Transfer]->(y), (y)-[u:Transfer]->(z)",
    "MATCH DIFFERENT NODES (x)-[t:Transfer]->(y), (y)-[u:Transfer]->(z)",
    "MATCH (x:Account WHERE x.owner='Scott')-[:Transfer]->(y), "
    "TRAIL (y)-[:Transfer]->{1,3}(z)",
    "MATCH (x:Account)-[:isLocatedIn]->(c:City WHERE c.name='Ankh-Morpork'), "
    "(x)-[t:Transfer]->(y)",
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)",
    "MATCH ANY SHORTEST (x)-[:Transfer]->+(y), "
    "(x:Account WHERE x.owner='Aretha')-[:isLocatedIn]->(c)",
};

/// What the planner chose across a family: each decision must fire at
/// least once, or the comparison would not test it.
struct PlannerDecisions {
  size_t reversed = 0;
  size_t seed_filtered = 0;
  size_t target_filtered = 0;
  size_t index_seeded = 0;
  size_t reordered = 0;
};

/// Runs `query` at threads 1 and 8 against the reference join and tallies
/// the planner's decisions.
void ExpectJoinAgreement(const PropertyGraph& g, const std::string& query,
                         PlannerDecisions* decisions) {
  SCOPED_TRACE(query + " on " + g.Summary());
  const std::vector<std::string> want =
      testing_util::ReferenceJoinRows(g, query);
  ASSERT_TRUE(want.empty() || want[0].rfind("ERROR:", 0) != 0) << want[0];
  std::vector<std::string> sequential;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineMetrics metrics;
    EngineOptions options;
    options.num_threads = threads;
    options.matcher.min_seeds_per_shard = 1;
    options.metrics = &metrics;
    Engine engine(g, options);
    Result<MatchOutput> out = engine.Match(query);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(testing_util::SortedRows(*out, g), want) << threads;
    if (threads == 1) {
      sequential = testing_util::OrderedRows(*out, g);
      decisions->reversed += metrics.reversed_decls;
      decisions->seed_filtered += metrics.seed_filtered_decls;
      decisions->target_filtered += metrics.target_filtered_decls;
      decisions->index_seeded += metrics.index_seeded_decls;
      Result<planner::Plan> plan = engine.Plan(*ParseGraphPattern(query));
      ASSERT_TRUE(plan.ok()) << plan.status();
      for (size_t i = 0; i < plan->decls.size(); ++i) {
        if (plan->decls[i].decl_index != static_cast<int>(i)) {
          ++decisions->reordered;
          break;
        }
      }
    } else {
      EXPECT_EQ(testing_util::OrderedRows(*out, g), sequential) << threads;
    }
  }
}

TEST(DifferentialJoinTest, PlannerAgreesWithTheReferenceJoin) {
  PlannerDecisions decisions;
  for (uint64_t seed : {1u, 2u, 3u}) {
    PropertyGraph g =
        MakeRandomGraph(/*num_nodes=*/6, /*num_edges=*/9, /*num_labels=*/3,
                        /*undirected_fraction=*/0.3, seed);
    for (const char* query : kJoinFamily) {
      ExpectJoinAgreement(g, query, &decisions);
    }
  }
  PropertyGraph paper = BuildPaperGraph();
  for (const char* query : kPaperJoinFamily) {
    ExpectJoinAgreement(paper, query, &decisions);
  }
  EXPECT_GT(decisions.reversed, 0u);
  EXPECT_GT(decisions.seed_filtered, 0u);
  EXPECT_GT(decisions.target_filtered, 0u);
  EXPECT_GT(decisions.index_seeded, 0u);
  EXPECT_GT(decisions.reordered, 0u);
}

/// One shape per field of the matcher's search entries (docs/planner.md,
/// "Search entries"): nested restrictor scopes, a named variable inside a
/// quantifier (bound afresh per iteration) and the iteration-scoped
/// equi-join of §4.2 (serials), a group WHERE inside a parenthesized
/// pattern, quantified or not (frames), |+| tags (§4.5), SIMPLE closing a
/// cycle (and refusing to go on past it), and the selector BFS's keys
/// under ACYCLIC.
const char* kEntryShapes[] = {
    "MATCH TRAIL (a) [ACYCLIC ()-[]->{1,3}()]-[f]->(b)",
    "MATCH (x) [-[e]->(m:L0)]{1,3} (y)",
    "MATCH TRAIL (x) [(m)-[e]->(n)-[f]-(m)]{1,2} (y)",
    "MATCH TRAIL (x) [()-[e]->{1,3}() WHERE COUNT(e.*) > 1] (y)",
    "MATCH TRAIL (x) [()-[e]->{1,2}() WHERE COUNT(e.*) = 2]{1,2} (y)",
    "MATCH (x) [-[e:L0]->(y) |+| -[e]->(y)]",
    "MATCH ANY SHORTEST (x) [-[e:L0]->(y) |+| -[e]->(y)]",
    "MATCH SIMPLE (x)-[e]->+(x)",
    "MATCH SIMPLE (x)-[e]-{1,4}(y)",
    "MATCH ALL SHORTEST (x) [-[e]->(m)]{1,3} (y)",
    "MATCH ALL SHORTEST ACYCLIC (x)-[]->+(y)",
    "MATCH SHORTEST 2 GROUP ACYCLIC (x)-[]->+(y)",
};

/// `part` is `whole` with zero or more rows left out, in order.
bool IsSubsequence(const std::vector<std::string>& part,
                   const std::vector<std::string>& whole) {
  auto it = whole.begin();
  for (const std::string& row : part) {
    it = std::find(it, whole.end(), row);
    if (it == whole.end()) return false;
    ++it;
  }
  return true;
}

/// `query` trips max_steps exactly at the steps it runs (one fewer is
/// refused), and under kTruncate delivers the same cut of its rows at
/// threads 1 and 8: a subsequence of the full rows in their order, and a
/// prefix of them under a selector, whose search emits by length.
void ExpectExactBudgets(const PropertyGraph& g, const std::string& query) {
  SCOPED_TRACE(query + " on " + g.Summary());
  EngineMetrics metrics;
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;
  Result<MatchOutput> full = Engine(g, options).Match(query);
  ASSERT_TRUE(full.ok()) << full.status();
  const size_t steps = metrics.matcher_steps;
  const std::vector<std::string> rows = testing_util::OrderedRows(*full, g);

  options.matcher.max_steps = steps;
  EXPECT_TRUE(Engine(g, options).Match(query).ok());
  options.matcher.max_steps = steps - 1;
  EXPECT_EQ(Engine(g, options).Match(query).status().code(),
            StatusCode::kResourceExhausted);

  const bool selector = query.find("SHORTEST") != std::string::npos;
  options.on_budget = EngineOptions::BudgetPolicy::kTruncate;
  options.matcher.min_seeds_per_shard = 1;
  for (size_t max_steps : {steps - 1, steps / 2}) {
    std::vector<std::string> cut;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      options.num_threads = threads;
      options.matcher.max_steps = max_steps;
      Result<MatchOutput> out = Engine(g, options).Match(query);
      ASSERT_TRUE(out.ok()) << out.status();
      EXPECT_TRUE(out->truncated) << max_steps;
      const std::vector<std::string> got = testing_util::OrderedRows(*out, g);
      if (threads > 1) {
        EXPECT_EQ(got, cut) << max_steps;
        continue;
      }
      cut = got;
      EXPECT_TRUE(IsSubsequence(cut, rows)) << max_steps;
      if (selector) {
        EXPECT_TRUE(testing_util::IsPrefix(cut, rows)) << max_steps;
      }
    }
  }
}

TEST(DifferentialJoinTest, SearchEntryShapesAgreeAndTripExactly) {
  PlannerDecisions decisions;
  size_t rows = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    PropertyGraph g =
        MakeRandomGraph(/*num_nodes=*/8, /*num_edges=*/16, /*num_labels=*/3,
                        /*undirected_fraction=*/0.3, seed);
    for (const char* query : kEntryShapes) {
      ExpectJoinAgreement(g, query, &decisions);
      ExpectExactBudgets(g, query);
      rows += testing_util::ReferenceJoinRows(g, query).size();
    }
  }
  EXPECT_GT(rows, std::size(kEntryShapes) * 3);
}

TEST(DifferentialPaperGraphTest, PaperQueriesAgree) {
  PropertyGraph g = BuildPaperGraph();
  const char* queries[] = {
      "MATCH (x:Account WHERE x.isBlocked='no')",
      "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->"
      "(d:Account)~[:hasPhone]~(p)",
      "MATCH TRAIL (a WHERE a.owner='Dave')-[t:Transfer]->*"
      "(b WHERE b.owner='Aretha')",
      "MATCH TRAIL (a WHERE a.owner='Jay')"
      "[-[b:Transfer WHERE b.amount>5M]->]+"
      "(a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]",
      "MATCH ALL SHORTEST (a WHERE a.owner='Dave')-[t:Transfer]->*"
      "(b WHERE b.owner='Aretha')",
  };
  for (const char* q : queries) ExpectAgreement(g, q);
}

}  // namespace
}  // namespace gpml
