// Tests for the statistics-driven planner: GraphStats collection and
// caching, cost-model estimates, anchor/direction selection on skewed
// graphs, seed-list restriction, and — most importantly — differential
// equality: the planner must never change results, only how they are found.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "eval/reference_eval.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "planner/planner.h"
#include "planner/stats.h"
#include "semantics/normalize.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

using planner::GraphStats;

/// A graph where the right end of (a:Src)-[:E]->(b:Dst) is far more
/// selective than the left: many sources funnel into two sinks.
PropertyGraph SkewedGraph(int sources = 40) {
  GraphBuilder b;
  b.AddNode("d1", {"Dst"});
  b.AddNode("d2", {"Dst"});
  for (int i = 0; i < sources; ++i) {
    std::string name = "s" + std::to_string(i);
    b.AddNode(name, {"Src"});
    b.AddDirectedEdge("e" + std::to_string(i), name, i % 2 ? "d1" : "d2",
                      {"E"});
  }
  Result<PropertyGraph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

// --- GraphStats -------------------------------------------------------------

TEST(GraphStatsTest, PaperGraphCounts) {
  PropertyGraph g = BuildPaperGraph();
  GraphStats s = planner::ComputeStats(g);
  EXPECT_EQ(s.num_nodes, g.num_nodes());
  EXPECT_EQ(s.num_edges, g.num_edges());
  EXPECT_EQ(s.NodeLabelCount("Account"), 6u);
  EXPECT_EQ(s.NodeLabelCount("City"), 1u);      // c2 only.
  EXPECT_EQ(s.NodeLabelCount("Country"), 2u);   // c1 and c2.
  EXPECT_EQ(s.NodeLabelCount("Phone"), 4u);
  EXPECT_EQ(s.NodeLabelCount("Nope"), 0u);
  EXPECT_EQ(s.EdgeLabelCount("Transfer"), 8u);
  EXPECT_EQ(s.EdgeLabelCount("isLocatedIn"), 6u);
  EXPECT_EQ(s.EdgeLabelCount("hasPhone"), 6u);
  EXPECT_EQ(s.EdgeLabelCount("signInWithIP"), 2u);
  // Every node in the paper graph carries a label.
  EXPECT_EQ(s.num_labeled_nodes, g.num_nodes());
}

TEST(GraphStatsTest, LabelPathFrequencies) {
  PropertyGraph g = BuildPaperGraph();
  GraphStats s = planner::ComputeStats(g);
  // All 8 transfers run Account -> Account.
  EXPECT_EQ(s.LabelPathCount("Account", "Transfer", "Account"), 8u);
  EXPECT_EQ(s.LabelPathCount("Account", "Transfer", "City"), 0u);
  // a2, a4, a6 are located in c2 (City & Country): the label-combination
  // expansion counts the City and the Country combination separately.
  EXPECT_EQ(s.LabelPathCount("Account", "isLocatedIn", "City"), 3u);
  EXPECT_EQ(s.LabelPathCount("Account", "isLocatedIn", "Country"), 6u);
  // hasPhone is undirected: counted in both orders, and tracked in the
  // undirected split so orientation costing can exclude directed edges.
  EXPECT_EQ(s.LabelPathCount("Account", "hasPhone", "Phone"), 6u);
  EXPECT_EQ(s.LabelPathCount("Phone", "hasPhone", "Account"), 6u);
  EXPECT_EQ(s.UndirectedLabelPathCount("Account", "hasPhone", "Phone"), 6u);
  EXPECT_EQ(s.UndirectedLabelPathCount("Account", "Transfer", "Account"), 0u);
}

TEST(GraphStatsTest, DegreesOnSkewedGraph) {
  PropertyGraph g = SkewedGraph(40);
  GraphStats s = planner::ComputeStats(g);
  ASSERT_EQ(s.NodeLabelCount("Src"), 40u);
  ASSERT_EQ(s.NodeLabelCount("Dst"), 2u);
  const planner::LabelDegree& src = s.degree_by_label.at("Src");
  const planner::LabelDegree& dst = s.degree_by_label.at("Dst");
  EXPECT_DOUBLE_EQ(src.avg_out, 1.0);
  EXPECT_DOUBLE_EQ(src.avg_in, 0.0);
  EXPECT_DOUBLE_EQ(dst.avg_out, 0.0);
  EXPECT_DOUBLE_EQ(dst.avg_in, 20.0);
}

TEST(GraphStatsTest, CachedOnTheGraph) {
  PropertyGraph g = BuildPaperGraph();
  auto first = planner::GetStats(g);
  auto second = planner::GetStats(g);
  EXPECT_EQ(first.get(), second.get()) << "stats must be computed once";
  EXPECT_EQ(first->num_nodes, g.num_nodes());
}

// --- Cost model -------------------------------------------------------------

TEST(CostModelTest, LabelCardinalities) {
  PropertyGraph g = BuildPaperGraph();
  GraphStats s = planner::ComputeStats(g);
  double n = static_cast<double>(s.num_nodes);
  EXPECT_DOUBLE_EQ(planner::EstimateLabelCardinality(nullptr, s), n);
  EXPECT_DOUBLE_EQ(
      planner::EstimateLabelCardinality(LabelExpr::Name("Account"), s), 6.0);
  EXPECT_DOUBLE_EQ(planner::EstimateLabelCardinality(
                       LabelExpr::Or(LabelExpr::Name("Account"),
                                     LabelExpr::Name("Phone")),
                       s),
                   10.0);
  EXPECT_DOUBLE_EQ(planner::EstimateLabelCardinality(
                       LabelExpr::And(LabelExpr::Name("City"),
                                      LabelExpr::Name("Country")),
                       s),
                   1.0);
  EXPECT_DOUBLE_EQ(planner::EstimateLabelCardinality(
                       LabelExpr::Not(LabelExpr::Name("Account")), s),
                   n - 6.0);
  EXPECT_DOUBLE_EQ(
      planner::EstimateLabelCardinality(LabelExpr::Wildcard(), s), n);
}

TEST(CostModelTest, PredicateSelectivities) {
  planner::PlannerConfig config;
  auto eq = Expr::Binary(BinaryOp::kEq, Expr::Prop("x", "owner"),
                         Expr::Lit(Value::String("Jay")));
  auto lt = Expr::Binary(BinaryOp::kLt, Expr::Prop("x", "amount"),
                         Expr::Lit(Value::Int(5)));
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(nullptr, config), 1.0);
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(eq, config),
                   config.eq_selectivity);
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(lt, config),
                   config.range_selectivity);
  EXPECT_DOUBLE_EQ(
      planner::PredicateSelectivity(Expr::Binary(BinaryOp::kAnd, eq, lt),
                                    config),
      config.eq_selectivity * config.range_selectivity);
}

TEST(CostModelTest, HistogramExactEqualitySelectivity) {
  // 10 Src nodes, kind: 3x 'a', 7x 'b'. With histograms wired the equality
  // estimate is the exact per-(label, key, value) bucket count from the
  // property seed index, not the System-R constant.
  GraphBuilder b;
  for (int i = 0; i < 10; ++i) {
    b.AddNode("s" + std::to_string(i), {"Src"},
              {{"kind", Value::String(i < 3 ? "a" : "b")}});
  }
  Result<PropertyGraph> g = std::move(b).Build();
  ASSERT_TRUE(g.ok());

  planner::PlannerConfig config;
  planner::SelectivityHints hints;
  hints.var = "x";
  hints.label = "Src";
  hints.label_count = 10;
  auto eq = Expr::Binary(BinaryOp::kEq, Expr::Prop("x", "kind"),
                         Expr::Lit(Value::String("a")));

  // Null histograms: the System-R constant, unchanged.
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(eq, config, hints),
                   config.eq_selectivity);

  config.histograms = &*g;
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(eq, config, hints), 0.3);

  // A value no node carries: exactly zero survivors, not 10%.
  auto miss = Expr::Binary(BinaryOp::kEq, Expr::Prop("x", "kind"),
                           Expr::Lit(Value::String("z")));
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(miss, config, hints), 0.0);

  // Conjunctions resolve each equality conjunct exactly.
  auto both = Expr::Binary(BinaryOp::kAnd, eq, miss);
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(both, config, hints), 0.0);

  // A different variable cannot be resolved against this endpoint's
  // histogram: System-R fallback.
  auto other = Expr::Binary(BinaryOp::kEq, Expr::Prop("y", "kind"),
                            Expr::Lit(Value::String("a")));
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(other, config, hints),
                   config.eq_selectivity);

  // Range predicates keep the System-R constant even with histograms.
  auto lt = Expr::Binary(BinaryOp::kLt, Expr::Prop("x", "kind"),
                         Expr::Lit(Value::String("b")));
  EXPECT_DOUBLE_EQ(planner::PredicateSelectivity(lt, config, hints),
                   config.range_selectivity);
}

TEST(AnchorSelectionTest, HistogramSelectivityDrivesAnchorChoice) {
  // 100 Src nodes (95 kind='hot', 5 kind='cold') each with one E edge into
  // one of 10 Dst nodes. The System-R constant (10%) would call the 'hot'
  // endpoint selective (100 * 0.1 = 10 survivors < 10 Dst + fanout); the
  // exact histogram knows it keeps 95 nodes, so the planner anchors at the
  // Dst end instead. The 'cold' endpoint really is selective (5 nodes) and
  // stays the anchor, with its exact selectivity and bucket-sized seed
  // estimate surfaced in EXPLAIN.
  GraphBuilder b;
  for (int i = 0; i < 10; ++i) {
    b.AddNode("d" + std::to_string(i), {"Dst"});
  }
  for (int i = 0; i < 100; ++i) {
    std::string name = "s" + std::to_string(i);
    b.AddNode(name, {"Src"},
              {{"kind", Value::String(i < 95 ? "hot" : "cold")}});
    b.AddDirectedEdge("e" + std::to_string(i), name,
                      "d" + std::to_string(i % 10), {"E"});
  }
  Result<PropertyGraph> built = std::move(b).Build();
  ASSERT_TRUE(built.ok());
  PropertyGraph g = std::move(*built);
  Engine engine(g);

  Result<std::string> hot =
      engine.Explain("MATCH (a:Src WHERE a.kind='hot')-[:E]->(b:Dst)");
  ASSERT_TRUE(hot.ok()) << hot.status();
  Result<planner::ExplainedPlan> hot_plan = planner::ParseExplain(*hot);
  ASSERT_TRUE(hot_plan.ok()) << hot_plan.status() << "\n" << *hot;
  ASSERT_EQ(hot_plan->decls.size(), 1u);
  EXPECT_TRUE(hot_plan->decls[0].reversed)
      << "95/100 survivors must out-cost the 10-node Dst scan\n"
      << *hot;

  Result<std::string> cold =
      engine.Explain("MATCH (a:Src WHERE a.kind='cold')-[:E]->(b:Dst)");
  ASSERT_TRUE(cold.ok()) << cold.status();
  Result<planner::ExplainedPlan> cold_plan = planner::ParseExplain(*cold);
  ASSERT_TRUE(cold_plan.ok()) << cold_plan.status() << "\n" << *cold;
  ASSERT_EQ(cold_plan->decls.size(), 1u);
  const planner::ExplainedDecl& anchor = cold_plan->decls[0];
  EXPECT_FALSE(anchor.reversed) << *cold;
  EXPECT_EQ(anchor.var, "a") << *cold;
  EXPECT_DOUBLE_EQ(anchor.selectivity, 0.05) << *cold;
  // Index-backed seeding caps the seed estimate at the exact bucket size.
  EXPECT_DOUBLE_EQ(anchor.seeds, 5.0) << *cold;
  EXPECT_EQ(anchor.source, "index:Src.kind") << *cold;
}

// --- Anchor / direction selection -------------------------------------------

Result<planner::Plan> PlanFor(const PropertyGraph& g,
                              const std::string& query) {
  Engine engine(g);
  Result<GraphPattern> pattern = ParseGraphPattern(query);
  EXPECT_TRUE(pattern.ok()) << pattern.status();
  return engine.Plan(*pattern);
}

TEST(AnchorSelectionTest, ReversesTowardSelectiveEnd) {
  PropertyGraph g = SkewedGraph(40);
  Result<planner::Plan> plan = PlanFor(g, "MATCH (a:Src)-[:E]->(b:Dst)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->decls.size(), 1u);
  EXPECT_TRUE(plan->decls[0].reversed)
      << "2 Dst seeds must beat 40 Src seeds";
  EXPECT_EQ(plan->decls[0].anchor.label, "Dst");
}

TEST(AnchorSelectionTest, KeepsWrittenDirectionWhenLeftIsSelective) {
  PropertyGraph g = SkewedGraph(40);
  Result<planner::Plan> plan = PlanFor(g, "MATCH (b:Dst)<-[:E]-(a:Src)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->decls[0].reversed);
  EXPECT_EQ(plan->decls[0].anchor.label, "Dst");
}

TEST(AnchorSelectionTest, NondeterministicSelectorIsNotReversed) {
  PropertyGraph g = SkewedGraph(40);
  Result<planner::Plan> plan =
      PlanFor(g, "MATCH ANY (a:Src)-[:E]->+(b:Dst)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->decls[0].reversed)
      << "ANY picks direction-dependent witnesses; reversal must be gated";
}

TEST(AnchorSelectionTest, CrossElementPredicateIsNotReversed) {
  PropertyGraph g = SkewedGraph(40);
  // b's predicate references a: in the mirrored order it would be evaluated
  // before a is bound.
  Result<planner::Plan> plan = PlanFor(
      g, "MATCH (a:Src)-[:E]->(b:Dst WHERE a.owner = b.owner)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(plan->decls[0].reversed);
}

TEST(AnchorSelectionTest, DeterministicSelectorMayReverse) {
  PropertyGraph g = SkewedGraph(40);
  Result<planner::Plan> plan =
      PlanFor(g, "MATCH ALL SHORTEST (a:Src)-[:E]->+(b:Dst)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->decls[0].reversed);
}

TEST(PatternMirrorTest, DoubleReversalIsIdentity) {
  Result<GraphPattern> parsed = ParseGraphPattern(
      "MATCH (a:Src WHERE a.x = 1)<~[e:E|F]~[(c)-[:G]->(d)]{1,3}(b:Dst)");
  ASSERT_TRUE(parsed.ok());
  Result<GraphPattern> normalized = Normalize(*parsed);
  ASSERT_TRUE(normalized.ok());
  const PathPatternPtr& p = normalized->paths[0].pattern;
  PathPatternPtr twice =
      planner::ReversePathPattern(planner::ReversePathPattern(p));
  // Structural spot checks: same element count and same endpoints.
  ASSERT_EQ(twice->kind, p->kind);
  ASSERT_EQ(twice->elements.size(), p->elements.size());
  EXPECT_EQ(planner::FirstNodeOf(*twice)->var, planner::FirstNodeOf(*p)->var);
  EXPECT_EQ(planner::LastNodeOf(*twice)->var, planner::LastNodeOf(*p)->var);
  for (size_t i = 0; i < p->elements.size(); ++i) {
    EXPECT_EQ(twice->elements[i].kind, p->elements[i].kind);
    if (p->elements[i].kind == PathElement::Kind::kEdge) {
      EXPECT_EQ(twice->elements[i].edge.orientation,
                p->elements[i].edge.orientation);
    }
  }
}

// --- Join ordering and seed restriction -------------------------------------

TEST(JoinOrderTest, SelectiveDeclRunsFirst) {
  PropertyGraph g = BuildPaperGraph();
  // As written, the expensive unanchored reachability decl comes first; the
  // planner must run the selective co-location decl first and then seed the
  // chain from the bound x values.
  Result<planner::Plan> plan = PlanFor(
      g,
      "MATCH ANY (x)-[:Transfer]->+(y), "
      "(x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->(c:City)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->decls.size(), 2u);
  EXPECT_EQ(plan->decls[0].decl_index, 1);
  EXPECT_EQ(plan->decls[1].decl_index, 0);
  EXPECT_EQ(plan->decls[1].seed_bound_var,
            plan->decls[1].anchor_var);
  ASSERT_GE(plan->decls[1].seed_bound_var, 0);
}

TEST(JoinOrderTest, SeedRestrictionKeepsTheReferenceRows) {
  PropertyGraph g = BuildPaperGraph();
  const std::string query =
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
      "(y:Account WHERE y.isBlocked='yes'), "
      "ANY (x)-[:Transfer]->+(y)";

  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  std::vector<std::string> rows =
      testing_util::EngineJoinRows(g, query, options);
  EXPECT_GE(metrics.seed_filtered_decls, 1u);
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(rows, testing_util::ReferenceJoinRows(g, query));
}

// --- Differential: planner == the §6.5 reference join -----------------------

const char* kDifferentialQueries[] = {
    "MATCH (x:Account)-[t:Transfer]->(y:Account)",
    "MATCH (x)-[t:Transfer]->(y:Account WHERE y.owner='Jay')",
    "MATCH p = (x:Account WHERE x.isBlocked='no')-[:Transfer]->"
    "(y:Account WHERE y.isBlocked='yes')",
    "MATCH (x:Account)-[:isLocatedIn]->(c:City)",
    "MATCH TRAIL (x:Account)-[:Transfer]->{1,3}(y:Account)",
    "MATCH ACYCLIC (x)-[:Transfer]->+(y:Account WHERE y.owner='Dave')",
    "MATCH ALL SHORTEST (x:Account)-[:Transfer]->+(y:Account "
    "WHERE y.owner='Mike')",
    "MATCH (x:Account)[-[:Transfer]->(z) | <-[:Transfer]-(z)](y)",
    "MATCH (a:Account)~[:hasPhone]~(p:Phone)~[:hasPhone]~(b:Account "
    "WHERE b.owner='Scott')",
    "MATCH (x:Account)-[:Transfer]->(y)-[:Transfer]->"
    "(z:Account WHERE z.isBlocked='yes')",
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->(c:City)"
    "<-[:isLocatedIn]-(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)",
    "MATCH ACYCLIC (x)-[:Transfer]->+(y), (x:Account WHERE x.owner='Aretha')",
    "MATCH DIFFERENT EDGES (x)-[:Transfer]->(y), (y)-[:Transfer]->(z)",
    "MATCH (x:Account) [-[:Transfer]->(y:Account)]? WHERE x.owner <> 'Jay'",
};

TEST(PlannerDifferentialTest, PaperGraph) {
  PropertyGraph g = BuildPaperGraph();
  for (const char* query : kDifferentialQueries) {
    std::vector<std::string> planned = testing_util::EngineJoinRows(g, query);
    ASSERT_TRUE(planned.empty() || planned[0].rfind("ERROR:", 0) != 0)
        << query << " -> " << planned[0];
    EXPECT_EQ(planned, testing_util::ReferenceJoinRows(g, query)) << query;
  }
}

TEST(PlannerDifferentialTest, RandomGraphs) {
  const char* queries[] = {
      "MATCH (x:L0)-[:L1]->(y:L1)",
      "MATCH (x:L0)-[e]->(y:L2 WHERE y.w < 40)",
      "MATCH TRAIL (x:L0)-[:L0]->{1,2}(y)",
      "MATCH ALL SHORTEST (x:L0)-[:L1]->+(y:L2)",
      "MATCH (x:L0)-[:L1]->(y), (y)-[:L2]->(z:L2)",
  };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    PropertyGraph g = MakeRandomGraph(24, 60, 3, 0.25, seed);
    // A shortest path repeats no node, so N expansions are exact for ALL
    // SHORTEST and the reference stays small on 24 nodes.
    ReferenceOptions reference;
    reference.expansion_cap = g.num_nodes();
    for (const char* query : queries) {
      EXPECT_EQ(testing_util::EngineJoinRows(g, query),
                testing_util::ReferenceJoinRows(g, query, reference))
          << "seed " << seed << ": " << query;
    }
  }
}

}  // namespace
}  // namespace gpml
