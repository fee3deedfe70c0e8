// EXPLAIN coverage: the rendering is stable and parseable (ParseExplain
// roundtrips every planning decision), and both hosts surface it — GQL
// sessions via a leading EXPLAIN keyword, SQL/PGQ via "EXPLAIN MATCH ..."
// inside GRAPH_TABLE.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "eval/engine.h"
#include "gql/session.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "pgq/graph_table.h"
#include "planner/explain.h"
#include "planner/planner.h"
#include "planner/stats.h"
#include "semantics/normalize.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

const char* kFraudQuery =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), "
    "ANY (x)-[:Transfer]->+(y)";

Catalog PaperCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog.AddGraph("bank", BuildPaperGraph()).ok());
  return catalog;
}

TEST(ExplainTest, RoundtripsThePlan) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<GraphPattern> pattern = ParseGraphPattern(kFraudQuery);
  ASSERT_TRUE(pattern.ok());
  Result<planner::Plan> plan = engine.Plan(*pattern);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<std::string> text = engine.Explain(kFraudQuery);
  ASSERT_TRUE(text.ok()) << text.status();

  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << *text;
  ASSERT_EQ(parsed->decls.size(), plan->decls.size());

  // Re-derive the variable table to name-check parsed fields.
  Result<GraphPattern> normalized = Normalize(*pattern);
  ASSERT_TRUE(normalized.ok());
  Result<Analysis> analysis = Analyze(*normalized);
  ASSERT_TRUE(analysis.ok());
  VarTable vars(*analysis);

  for (size_t i = 0; i < plan->decls.size(); ++i) {
    const planner::DeclPlan& dp = plan->decls[i];
    const planner::ExplainedDecl& ed = parsed->decls[i];
    EXPECT_EQ(ed.step, static_cast<int>(i) + 1);
    EXPECT_EQ(ed.decl_index, dp.decl_index);
    EXPECT_EQ(ed.reversed, dp.reversed);
    EXPECT_EQ(ed.anchor, dp.reversed ? "right" : "left");
    if (dp.anchor_var >= 0) {
      EXPECT_EQ(ed.var, vars.name(dp.anchor_var));
    } else {
      EXPECT_EQ(ed.var, "_");
    }
    if (dp.seed_bound_var >= 0) {
      EXPECT_EQ(ed.seeds, -1) << "bound steps render seeds~*";
    } else {
      EXPECT_NEAR(ed.seeds, dp.anchor.enumerated,
                  1e-6 + 1e-6 * dp.anchor.enumerated);
    }
    if (dp.seed_bound_var >= 0) {
      EXPECT_EQ(ed.source, "bound:" + vars.name(dp.seed_bound_var));
    } else if (dp.anchor.has_index()) {
      EXPECT_EQ(ed.source,
                "index:" + dp.anchor.label + "." + dp.anchor.index_prop);
    } else if (!dp.anchor.label.empty()) {
      EXPECT_EQ(ed.source, "label:" + dp.anchor.label);
    } else {
      EXPECT_EQ(ed.source, "all");
    }
    ASSERT_EQ(ed.join_vars.size(), dp.join_vars.size());
    for (size_t j = 0; j < dp.join_vars.size(); ++j) {
      EXPECT_EQ(ed.join_vars[j], vars.name(dp.join_vars[j]));
    }
    EXPECT_EQ(ed.target, dp.target_bound_var >= 0
                             ? "bound:" + vars.name(dp.target_bound_var)
                             : std::string());
    std::string selector = dp.decl.selector.ToString();
    EXPECT_EQ(ed.selector, selector.empty() ? "none" : selector);
  }
}

TEST(ExplainTest, FraudQueryPlanDecisions) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<std::string> text = engine.Explain(kFraudQuery);
  ASSERT_TRUE(text.ok());
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->decls.size(), 2u);
  // The selective co-location decl runs first, seeded from the equality
  // index on its inline isBlocked predicate; the transfer chain is seeded
  // from the bound x values.
  EXPECT_EQ(parsed->decls[0].decl_index, 0);
  EXPECT_EQ(parsed->decls[0].source, "index:Account.isBlocked");
  EXPECT_EQ(parsed->decls[1].decl_index, 1);
  EXPECT_EQ(parsed->decls[1].source, "bound:x");
  EXPECT_EQ(parsed->decls[1].join_vars,
            (std::vector<std::string>{"x", "y"}));
  // Its far endpoint y is bound by the first step too: accepts are
  // restricted to those end nodes.
  EXPECT_EQ(parsed->decls[0].target, "");
  EXPECT_EQ(parsed->decls[1].target, "bound:y");
}

TEST(ExplainTest, PostfilterEqualityFallsBackToLabelScan) {
  // The planner index-seeds only on inline endpoint conjuncts: the same
  // equalities written in the postfilter WHERE seed from the label scan,
  // and the rows are those of the index-seeded query.
  const char* postfiltered =
      "MATCH (x:Account)-[:isLocatedIn]->"
      "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-(y:Account), "
      "ANY (x)-[:Transfer]->+(y) "
      "WHERE x.isBlocked='no' AND y.isBlocked='yes'";
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<std::string> text = engine.Explain(postfiltered);
  ASSERT_TRUE(text.ok()) << text.status();
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->decls[0].source, "label:Account") << *text;
  EXPECT_EQ(testing_util::Rows(g, postfiltered, "x, y"),
            testing_util::Rows(g, kFraudQuery, "x, y"));
}

TEST(ExplainTest, VerboseIncludesGraphStats) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<GraphPattern> pattern = ParseGraphPattern(kFraudQuery);
  ASSERT_TRUE(pattern.ok());
  Result<planner::Plan> plan = engine.Plan(*pattern);
  ASSERT_TRUE(plan.ok());
  Result<GraphPattern> normalized = Normalize(*pattern);
  ASSERT_TRUE(normalized.ok());
  Result<Analysis> analysis = Analyze(*normalized);
  ASSERT_TRUE(analysis.ok());
  VarTable vars(*analysis);
  auto stats = planner::GetStats(g);
  std::string text = planner::ExplainPlan(*plan, vars, stats.get());
  EXPECT_NE(text.find("-- graph stats --"), std::string::npos);
  EXPECT_NE(text.find("node label Account: 6"), std::string::npos);
  // The stats section must not confuse the parser.
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->decls.size(), 2u);
}

TEST(ExplainTest, GqlSessionExplainStatement) {
  Catalog catalog = PaperCatalog();
  Session session(catalog);
  ASSERT_TRUE(session.UseGraph("bank").ok());
  Result<Table> table =
      session.Execute(std::string("EXPLAIN ") + kFraudQuery);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->schema().num_columns(), 1u);
  EXPECT_EQ(table->schema().column(0).name, "plan");
  ASSERT_GE(table->num_rows(), 3u);  // Header + one step per declaration.
  EXPECT_EQ(table->row(0)[0].ToString().rfind("plan: 2 declaration", 0), 0u);

  // The string-level API agrees with the table rendering.
  Result<std::string> text = session.Explain(kFraudQuery);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("source=bound:x"), std::string::npos);
}

TEST(ExplainTest, GraphTableExplain) {
  Catalog catalog = PaperCatalog();
  GraphTableQuery query;
  query.graph = "bank";
  query.match = std::string("EXPLAIN ") + kFraudQuery;
  query.columns = "x.owner AS owner";  // Ignored under EXPLAIN.
  Result<Table> table = GraphTable(catalog, query);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->schema().num_columns(), 1u);
  EXPECT_EQ(table->schema().column(0).name, "plan");
  ASSERT_GE(table->num_rows(), 3u);

  // The SQL surface form carries EXPLAIN through ParseGraphTableCall.
  Result<GraphTableQuery> sql = ParseGraphTableCall(
      "SELECT * FROM GRAPH_TABLE(bank, EXPLAIN MATCH "
      "(x:Account)-[:Transfer]->(y) COLUMNS (x.owner AS owner))");
  ASSERT_TRUE(sql.ok()) << sql.status();
  Result<Table> table2 = GraphTable(catalog, *sql);
  ASSERT_TRUE(table2.ok()) << table2.status();
  EXPECT_EQ(table2->schema().column(0).name, "plan");
}

TEST(ExplainTest, StripExplainPrefix) {
  std::string rest;
  EXPECT_TRUE(planner::StripExplainPrefix("EXPLAIN MATCH (x)", &rest));
  EXPECT_EQ(rest, " MATCH (x)");
  EXPECT_TRUE(planner::StripExplainPrefix("  explain MATCH (x)", &rest));
  EXPECT_TRUE(planner::StripExplainPrefix("EXPLAIN", &rest));
  EXPECT_FALSE(planner::StripExplainPrefix("EXPLAINER MATCH (x)", &rest));
  EXPECT_FALSE(planner::StripExplainPrefix("MATCH (x)", &rest));
}

TEST(ExplainTest, EscapeRoundtripsAdversarialValues) {
  const char* cases[] = {
      "plain",      "with space",  "a,b",     "line\nbreak",
      "back\\slash", "quote\"d",   "trail\\", "cr\rlf\n mix, \\s",
  };
  for (const char* v : cases) {
    std::string escaped = planner::EscapeExplainValue(v);
    EXPECT_EQ(escaped.find(' '), std::string::npos) << v;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << v;
    EXPECT_EQ(escaped.find(','), std::string::npos) << v;
    EXPECT_EQ(planner::UnescapeExplainValue(escaped), v);

    // The end-of-line form keeps spaces but still never emits newlines.
    std::string eol = planner::EscapeExplainValue(v, /*keep_spaces=*/true);
    EXPECT_EQ(eol.find('\n'), std::string::npos) << v;
    EXPECT_EQ(planner::UnescapeExplainValue(eol), v);
  }
  // Unknown escapes and a trailing backslash survive unescaping literally.
  EXPECT_EQ(planner::UnescapeExplainValue("a\\qb"), "a\\qb");
  EXPECT_EQ(planner::UnescapeExplainValue("tail\\"), "tail\\");
}

TEST(ExplainTest, AdversarialLabelRoundtripsThroughParseExplain) {
  // A label containing quotes, a comma, spaces, and a newline — rendered
  // into a step line, it must neither break the line framing nor parse back
  // changed. (Labels are unconstrained strings at the graph level even
  // though the pattern parser only produces tame ones.)
  Result<GraphPattern> pattern = ParseGraphPattern("MATCH (x)-[e]->(y)");
  ASSERT_TRUE(pattern.ok());
  Result<GraphPattern> normalized = Normalize(*pattern);
  ASSERT_TRUE(normalized.ok());
  Result<Analysis> analysis = Analyze(*normalized);
  ASSERT_TRUE(analysis.ok());
  VarTable vars(*analysis);

  const std::string weird = "City \"of\"\nAnkh, Morpork\\step 9: decl=0";
  planner::Plan plan;
  planner::DeclPlan dp;
  dp.decl_index = 0;
  dp.anchor_var = vars.Find("x");
  dp.anchor.enumerated = 3;
  dp.anchor.fanout = 1.5;
  dp.anchor.label = weird;
  dp.decl = normalized->paths[0];
  plan.decls.push_back(std::move(dp));

  std::string text = planner::ExplainPlan(plan, vars);
  // Header plus exactly one (unbroken) step line.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);

  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  ASSERT_EQ(parsed->decls.size(), 1u);
  EXPECT_EQ(parsed->decls[0].source, "label:" + weird);
  EXPECT_EQ(parsed->decls[0].var, "x");
  EXPECT_EQ(parsed->decls[0].selector, "none");
}

TEST(ExplainTest, ExecLineRoundtrips) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<GraphPattern> pattern = ParseGraphPattern(kFraudQuery);
  ASSERT_TRUE(pattern.ok());
  Result<planner::Plan> plan = engine.Plan(*pattern);
  ASSERT_TRUE(plan.ok());
  Result<GraphPattern> normalized = Normalize(*pattern);
  ASSERT_TRUE(normalized.ok());
  Result<Analysis> analysis = Analyze(*normalized);
  ASSERT_TRUE(analysis.ok());
  VarTable vars(*analysis);

  planner::ExplainExec exec;
  exec.threads = 16;
  exec.cached = true;
  std::string text = planner::ExplainPlan(*plan, vars, nullptr, &exec);
  EXPECT_NE(text.find("exec: threads=16 cached=true"), std::string::npos);

  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->has_exec);
  EXPECT_EQ(parsed->threads, 16u);
  EXPECT_TRUE(parsed->cached);

  // Without the exec argument the line is absent and parsing reports so.
  std::string bare = planner::ExplainPlan(*plan, vars);
  Result<planner::ExplainedPlan> parsed_bare = planner::ParseExplain(bare);
  ASSERT_TRUE(parsed_bare.ok());
  EXPECT_FALSE(parsed_bare->has_exec);
}

TEST(ExplainTest, ParseExplainRejectsGarbage) {
  EXPECT_FALSE(planner::ParseExplain("no plan here").ok());
  EXPECT_FALSE(
      planner::ParseExplain("plan: 2 declaration(s)\n"
                            "step 1: decl=0 dir=forward anchor=left var=x "
                            "seeds~1 source=all fanout~0 join=[] "
                            "selector=none\n")
          .ok())
      << "header/step count mismatch must be rejected";
}

TEST(ExplainTest, StripAnalyzePrefix) {
  std::string rest;
  EXPECT_TRUE(planner::StripAnalyzePrefix("ANALYZE MATCH (x)", &rest));
  EXPECT_EQ(rest, " MATCH (x)");
  EXPECT_TRUE(planner::StripAnalyzePrefix("  analyze MATCH (x)", &rest));
  EXPECT_FALSE(planner::StripAnalyzePrefix("ANALYZER MATCH (x)", &rest));
  EXPECT_FALSE(planner::StripAnalyzePrefix("MATCH (x)", &rest));
}

TEST(ExplainTest, ExplainAnalyzeRendersAndParsesActuals) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<std::string> text = engine.ExplainAnalyze(kFraudQuery);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("actual_seeds="), std::string::npos) << *text;
  EXPECT_NE(text->find("actual_steps="), std::string::npos);
  EXPECT_NE(text->find("actual_rows="), std::string::npos);
  EXPECT_NE(text->find("rows="), std::string::npos);
  EXPECT_NE(text->find("truncated=false"), std::string::npos);
  // Wall-clock actuals: total and plan cost on the exec line, per-stage
  // time on each step line (docs/observability.md).
  EXPECT_NE(text->find(" ms="), std::string::npos) << *text;
  EXPECT_NE(text->find(" plan_ms="), std::string::npos);
  EXPECT_NE(text->find(" actual_ms="), std::string::npos);

  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << *text;
  EXPECT_TRUE(parsed->analyzed);
  EXPECT_GE(parsed->total_ms, 0) << *text;
  EXPECT_GE(parsed->plan_ms, 0) << *text;
  ASSERT_EQ(parsed->decls.size(), 2u);
  for (const planner::ExplainedDecl& d : parsed->decls) {
    EXPECT_GE(d.actual_seeds, 0) << *text;
    EXPECT_GT(d.actual_steps, 0) << *text;
    EXPECT_GE(d.actual_rows, 0);
    EXPECT_GE(d.actual_ms, 0) << *text;
    EXPECT_FALSE(d.actual_source.empty());
  }
  // The target-restricted step reports how many end nodes it allowed: the
  // distinct y values of the first step's rows.
  EXPECT_EQ(parsed->decls[0].actual_targets, -1);
  Result<MatchOutput> first = engine.Match(
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-"
      "(y:Account WHERE y.isBlocked='yes')");
  ASSERT_TRUE(first.ok()) << first.status();
  std::set<NodeId> ys;
  const int y = first->vars->Find("y");
  for (const ResultRow& row : first->rows) {
    ys.insert(row.bindings[0]->LastOf(y)->id);
  }
  ASSERT_FALSE(ys.empty());
  EXPECT_EQ(parsed->decls[1].actual_targets, static_cast<long>(ys.size()))
      << *text;
  // The measured actuals agree with the engine's metrics.
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine measured(g, options);
  ASSERT_TRUE(measured.Match(kFraudQuery).ok());
  long total_steps = 0;
  for (const planner::ExplainedDecl& d : parsed->decls) {
    total_steps += d.actual_steps;
  }
  EXPECT_EQ(static_cast<size_t>(total_steps), metrics.matcher_steps);
  EXPECT_EQ(parsed->rows, metrics.rows);
}

TEST(ExplainTest, PlainExplainCarriesNoActuals) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<std::string> text = engine.Explain(kFraudQuery);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->find("actual_seeds="), std::string::npos);
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->analyzed);
  EXPECT_EQ(parsed->decls[0].actual_seeds, -1);
  EXPECT_EQ(parsed->decls[1].actual_targets, -1);
  EXPECT_LT(parsed->total_ms, 0);
  EXPECT_LT(parsed->decls[0].actual_ms, 0);
}

}  // namespace
}  // namespace gpml
