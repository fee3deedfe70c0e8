// Property-based differential testing: the literal §6 reference evaluator
// (expand → match → join → reduce → dedup → select) and the production NFA
// engine must produce identical reduced-binding sets on randomized graphs
// for a family of generated patterns. This is the strongest evidence that
// the lazy product-graph search implements the declarative execution model.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "eval/reference_eval.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "semantics/normalize.h"

namespace gpml {
namespace {

/// Canonical rendering of a MatchSet for comparison.
std::vector<std::string> Canon(const std::vector<PathBinding>& bindings,
                               const PropertyGraph& g, const VarTable& vars) {
  std::vector<std::string> out;
  out.reserve(bindings.size());
  for (const PathBinding& pb : bindings) {
    std::string s = pb.ToString(g, vars);
    for (int32_t t : pb.tags) s += " #" + std::to_string(t);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs both evaluators on the first path declaration of `query`; the
/// reference side applies the final WHERE (a graph-pattern concern, §6.5)
/// through the same RowScope machinery the engine uses.
void ExpectAgreement(const PropertyGraph& g, const std::string& query) {
  Result<GraphPattern> parsed = ParseGraphPattern(query);
  ASSERT_TRUE(parsed.ok()) << query << " -> " << parsed.status();
  Result<GraphPattern> normalized = Normalize(*parsed);
  ASSERT_TRUE(normalized.ok());
  Result<Analysis> analysis = Analyze(*normalized);
  ASSERT_TRUE(analysis.ok()) << query << " -> " << analysis.status();
  VarTable vars(*analysis);

  ReferenceOptions ref_options;
  Result<MatchSet> ref =
      RunReference(g, normalized->paths[0], vars, ref_options);
  ASSERT_TRUE(ref.ok()) << query << " -> " << ref.status();

  if (normalized->where != nullptr) {
    MatchOutput scratch;
    scratch.vars = std::make_shared<VarTable>(*analysis);
    scratch.normalized = *normalized;
    scratch.path_vars = {normalized->paths[0].path_var.empty()
                             ? -1
                             : vars.Find(normalized->paths[0].path_var)};
    std::vector<PathBinding> filtered;
    for (PathBinding& pb : ref->bindings) {
      ResultRow row;
      row.bindings.push_back(std::make_shared<const PathBinding>(pb));
      RowScope scope(scratch, row);
      Result<TriBool> keep =
          EvalPredicate(*normalized->where, g, vars, scope);
      ASSERT_TRUE(keep.ok()) << keep.status();
      if (*keep == TriBool::kTrue) filtered.push_back(std::move(pb));
    }
    ref->bindings = std::move(filtered);
  }

  Engine engine(g);
  Result<MatchOutput> out = engine.Match(*parsed);
  ASSERT_TRUE(out.ok()) << query << " -> " << out.status();

  std::vector<PathBinding> engine_bindings;
  engine_bindings.reserve(out->rows.size());
  for (const ResultRow& row : out->rows) {
    engine_bindings.push_back(*row.bindings[0]);
  }
  EXPECT_EQ(Canon(ref->bindings, g, vars),
            Canon(engine_bindings, g, vars))
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

/// Ordered row rendering (not sorted): the execution-matrix tests require
/// byte-identical rows in identical order, not just equal sets.
std::vector<std::string> OrderedRows(const MatchOutput& out,
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

/// The parallel/planner execution matrix over {threads 1,8} x
/// {planner on/off}:
///  * within each planner setting, both thread counts must produce
///    byte-identical rows in identical order — shards merge in seed order;
///  * across planner on/off the row multiset must be identical (a mirrored
///    declaration discovers the same matches from the other end, so its
///    legal row order within one path-length group can differ — the
///    planner's historical contract, established in the PR 1 tests).
void ExpectMatrixIdentical(const PropertyGraph& g, const std::string& query) {
  std::vector<std::string> planner_baseline[2];
  bool have_planner_baseline[2] = {false, false};
  for (size_t threads : {size_t{1}, size_t{8}}) {
    for (bool planner : {false, true}) {
      EngineOptions options;
      options.num_threads = threads;
      options.use_planner = planner;
      options.matcher.min_seeds_per_shard = 1;  // Shard tiny seed lists.
      Engine engine(g, options);
      Result<MatchOutput> out = engine.Match(query);
      ASSERT_TRUE(out.ok()) << query << " -> " << out.status();
      std::vector<std::string> rows = OrderedRows(*out, g);
      std::vector<std::string>& baseline = planner_baseline[planner];
      if (!have_planner_baseline[planner]) {
        baseline = std::move(rows);
        have_planner_baseline[planner] = true;
      } else {
        ASSERT_EQ(rows, baseline) << query << " diverges at threads="
                                  << threads << " planner=" << planner;
      }
    }
  }
  std::vector<std::string> on = planner_baseline[1];
  std::vector<std::string> off = planner_baseline[0];
  std::sort(on.begin(), on.end());
  std::sort(off.begin(), off.end());
  ASSERT_EQ(on, off) << query << ": planner changed the row multiset";
}

TEST(DifferentialMatrixTest, RandomGraphRowsIdenticalAcrossMatrix) {
  const char* queries[] = {
      "MATCH (x:L0)-[e:L1]->(y)",
      "MATCH (x:L0 WHERE x.w < 50)-[e:L0|L1]->(y WHERE y.w >= 20)",
      "MATCH TRAIL (x)-[e:L0]->+(y)",
      "MATCH ALL SHORTEST (x:L0)-[e]->*(y:L1)",
      "MATCH (x:L0)-[e:L1]->(y), (y)-[f:L0]->(z)",
      "MATCH (x)~[e:L2]~(y)-[f]->(z:!L1)",
  };
  for (uint64_t seed : {1u, 4u}) {
    PropertyGraph g = MakeRandomGraph(/*num_nodes=*/24, /*num_edges=*/60,
                                      /*num_labels=*/3,
                                      /*undirected_fraction=*/0.3, seed);
    for (const char* q : queries) ExpectMatrixIdentical(g, q);
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
  for (const char* q : queries) ExpectMatrixIdentical(g, q);
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
