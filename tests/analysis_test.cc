// Static query analyzer (docs/analysis.md): typed multi-diagnostic pass at
// prepare time. Type errors (GPML-E011/E012) fail Prepare; satisfiability
// findings (always-false WHERE, contradictory equalities, empty quantifiers,
// label contradictions) compile to the cached empty plan that executes with
// 0 seeds and 0 matcher steps; schema lints flag unknown labels/properties
// and cartesian products; always-true conjuncts are dropped from the
// compiled postfilter; parameter signatures tighten from ordered literal
// comparisons; diagnostics ride on the plan into the EXPLAIN `warnings:`
// section and roundtrip through ParseExplain; and the Lint() APIs (Engine,
// Session, GRAPH_TABLE) run the full pipeline without failing, over
// malformed input too, with every span inside the linted text.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "catalog/catalog.h"
#include "eval/engine.h"
#include "eval/expr_eval.h"
#include "eval/reference_eval.h"
#include "gql/session.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "pgq/graph_table.h"
#include "planner/explain.h"
#include "semantics/analyze.h"
#include "semantics/normalize.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

using testing_util::Rows;

std::vector<std::string> Codes(const analysis::DiagnosticList& diags) {
  std::vector<std::string> codes;
  codes.reserve(diags.size());
  for (const analysis::Diagnostic& d : diags) codes.push_back(d.code);
  return codes;
}

bool HasCode(const analysis::DiagnosticList& diags, const char* code) {
  for (const analysis::Diagnostic& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

/// Rows of `query` under the §6 reference evaluator (no analysis,
/// planning or compilation), after its postfilter; SIZE_MAX when the query
/// does not evaluate.
size_t ReferenceRowCount(const PropertyGraph& g, const std::string& query) {
  std::vector<std::string> rows = testing_util::ReferenceJoinRows(g, query);
  return !rows.empty() && rows[0].rfind("ERROR:", 0) == 0 ? SIZE_MAX
                                                          : rows.size();
}

class AnalysisTest : public ::testing::Test {
 protected:
  PropertyGraph g_ = BuildPaperGraph();
};

// ---------------------------------------------------------------------------
// Type checking: hard errors fail Prepare
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, NonBooleanPredicateFailsPrepare) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x) WHERE 42");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("GPML-E012"), std::string::npos)
      << q.status();
}

TEST_F(AnalysisTest, ElementAsPredicateFailsPrepare) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x)-[e]->(y) WHERE x");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("GPML-E012"), std::string::npos)
      << q.status();
}

TEST_F(AnalysisTest, StringOperandInArithmeticFailsPrepare) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x) WHERE x.owner = 1 + 'abc'");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("GPML-E011"), std::string::npos)
      << q.status();
}

TEST_F(AnalysisTest, IncomparableLiteralsWarnButPrepare) {
  // 1 < 'a' is UNKNOWN at runtime, not an error — warning severity, and
  // (as the whole WHERE) provably never TRUE.
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x) WHERE 1 < 'a'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeIncomparable))
      << q->diagnostics().ToString();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeAlwaysFalse));
  EXPECT_TRUE(q->always_empty());
}

// ---------------------------------------------------------------------------
// Parameter signature tightening
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, OrderedNumericComparisonTightensParam) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x) WHERE $p > 5");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<MatchOutput> out = q->Execute({{"p", Value::String("oops")}});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("must be numeric"),
            std::string::npos)
      << out.status();
  EXPECT_TRUE(q->Execute({{"p", Value::Int(7)}}).ok());
  EXPECT_TRUE(q->Execute({{"p", Value::Null()}}).ok());  // NULL always binds.
}

TEST_F(AnalysisTest, OrderedStringComparisonTightensParam) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account) WHERE x.owner >= $low AND $low < 'm'");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<MatchOutput> out = q->Execute({{"low", Value::Int(3)}});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("must be STRING"), std::string::npos)
      << out.status();
  EXPECT_TRUE(q->Execute({{"low", Value::String("c")}}).ok());
  EXPECT_TRUE(q->Execute({{"low", Value::Null()}}).ok());
}

TEST_F(AnalysisTest, EqualityDoesNotTightenParam) {
  // Equality comparisons stay polymorphic: any type may bind.
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account) WHERE x.owner = $who");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->Execute({{"who", Value::Int(5)}}).ok());
  EXPECT_TRUE(q->Execute({{"who", Value::String("Scott")}}).ok());
}

TEST_F(AnalysisTest, ContradictoryParamUsesWarn) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x) WHERE $p AND $p < 5");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeParamContradiction))
      << q->diagnostics().ToString();
  // NULL satisfies every constraint (3VL) — the query stays executable.
  EXPECT_TRUE(q->Execute({{"p", Value::Null()}}).ok());
}

// ---------------------------------------------------------------------------
// Satisfiability: always-false patterns compile to the cached empty plan
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, AlwaysFalseWherePreparesAndExecutesEmpty) {
  EngineMetrics metrics;
  EngineOptions opts;
  opts.metrics = &metrics;
  Engine engine(g_, opts);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account) WHERE 1 = 2");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeAlwaysFalse));
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeEmptyPlan));
  EXPECT_TRUE(q->always_empty());

  Result<MatchOutput> out = q->Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 0u);
  // The empty plan never touches the graph.
  EXPECT_EQ(metrics.seeded_nodes, 0u);
  EXPECT_EQ(metrics.matcher_steps, 0u);
  EXPECT_EQ(metrics.rows, 0u);
}

TEST_F(AnalysisTest, ContradictoryEqualitiesExecuteEmpty) {
  // The headline acceptance query: x.a = 1 AND x.a = 2.
  EngineMetrics metrics;
  EngineOptions opts;
  opts.metrics = &metrics;
  Engine engine(g_, opts);
  Result<PreparedQuery> q = engine.Prepare(
      "MATCH (x:Account) WHERE x.owner = 'Scott' AND x.owner = 'Mike'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeContradictoryEq))
      << q->diagnostics().ToString();
  EXPECT_TRUE(q->always_empty());

  Result<MatchOutput> out = q->Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 0u);
  EXPECT_EQ(metrics.seeded_nodes, 0u);
  EXPECT_EQ(metrics.matcher_steps, 0u);
}

TEST_F(AnalysisTest, AlwaysFalseRowsMatchReferenceEvaluator) {
  // Differential: the pruned execution is row-identical to the §6
  // reference evaluator, which runs no static analysis — it enumerates
  // every Account and applies the contradictory postfilter to each.
  const std::string q =
      "MATCH (x:Account) WHERE x.owner = 'Scott' AND x.owner = 'Mike'";
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  EXPECT_TRUE(Rows(g_, q, "x", options).empty());
  EXPECT_EQ(metrics.seeded_nodes, 0u);
  EXPECT_EQ(ReferenceRowCount(g_, q), 0u);
  // The oracle is not vacuous: one conjunct alone keeps Scott's account.
  const std::string scott = "MATCH (x:Account) WHERE x.owner = 'Scott'";
  EXPECT_EQ(ReferenceRowCount(g_, scott), Rows(g_, scott, "x").size());
  EXPECT_EQ(ReferenceRowCount(g_, scott), 1u);
}

TEST_F(AnalysisTest, NullEqualityIsAlwaysUnknown) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account) WHERE x.owner = NULL");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeAlwaysFalse))
      << q->diagnostics().ToString();
  EXPECT_TRUE(q->always_empty());
}

TEST_F(AnalysisTest, AlwaysEmptyPlanIsCachedWithDiagnostics) {
  Engine engine(g_);
  const std::string q = "MATCH (x:Account) WHERE 1 = 2";
  Result<PreparedQuery> first = engine.Prepare(q);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->from_cache());
  Result<PreparedQuery> second = engine.Prepare(q);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->from_cache());
  EXPECT_TRUE(second->always_empty());
  EXPECT_TRUE(HasCode(second->diagnostics(), analysis::kCodeAlwaysFalse));
}

TEST_F(AnalysisTest, AlwaysEmptyCursorStreamsNothing) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account) WHERE 1 = 2");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<Cursor> cursor = q->Open();
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  Result<MatchOutput> out = cursor->Drain();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 0u);
}

TEST_F(AnalysisTest, OptionalSiteFalsehoodDoesNotEmptyPattern) {
  // The contradiction sits under `?` — skippable, so the pattern still
  // matches (with the optional part absent). Warned, not pruned.
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare(
      "MATCH (x:Account)[(a)-[e:Transfer WHERE 1 = 2]->(b)]?(y)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeAlwaysFalse));
  EXPECT_FALSE(q->always_empty());
  Result<MatchOutput> out = q->Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->rows.size(), 0u);
}

// ---------------------------------------------------------------------------
// Always-true conjuncts are dropped from the compiled postfilter
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, AlwaysTrueConjunctIsDroppedAndWarned) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare(
      "MATCH (x:Account) WHERE 1 = 1 AND x.owner = 'Scott'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeAlwaysTrue))
      << q->diagnostics().ToString();
  // Rows are unchanged by the rewrite: the plain filter is the oracle.
  const std::string with_true =
      "MATCH (x:Account) WHERE 1 = 1 AND x.owner = 'Scott'";
  EXPECT_EQ(Rows(g_, with_true, "x"),
            Rows(g_, "MATCH (x:Account) WHERE x.owner = 'Scott'", "x"));
}

TEST_F(AnalysisTest, WhollyTrueWhereIsDropped) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x:Account) WHERE TRUE");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeAlwaysTrue));
  EXPECT_EQ(Rows(g_, "MATCH (x:Account) WHERE TRUE", "x"),
            Rows(g_, "MATCH (x:Account)", "x"));
}

TEST_F(AnalysisTest, ParamBearingTrueConjunctIsKept) {
  // `TRUE OR $p` folds TRUE but dropping it would shrink the signature:
  // the query references $p, so an unbound $p must still be rejected.
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account) WHERE TRUE OR $p");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(q->Execute().ok());  // $p unbound.
  Result<MatchOutput> out = q->Execute({{"p", Value::Bool(false)}});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 6u);
}

// ---------------------------------------------------------------------------
// Quantifier and label contradictions
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, EmptyQuantifierRangeWarnsOnAstBuiltPattern) {
  // The parser rejects `{3,2}` outright; a programmatically built pattern
  // reaches the analyzer, which proves the site empty.
  EdgePattern edge;
  edge.orientation = EdgeOrientation::kRight;
  PathPatternPtr hop = PathPattern::Concat({PathElement::Edge(edge)});
  NodePattern a;
  a.var = "a";
  NodePattern b;
  b.var = "b";
  GraphPattern pattern;
  pattern.paths.push_back(PathPatternDecl{
      Selector{}, Restrictor::kNone, "",
      PathPattern::Concat(
          {PathElement::Node(a),
           PathElement::Quantified(hop, /*min=*/3, /*max=*/2,
                                   Restrictor::kNone, nullptr,
                                   /*bare_edge=*/true),
           PathElement::Node(b)})});

  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare(pattern);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeQuantifierEmpty))
      << q->diagnostics().ToString();
  EXPECT_TRUE(q->always_empty());
  Result<MatchOutput> out = q->Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 0u);
}

TEST_F(AnalysisTest, QuantifierBoundsStillRejectedByParser) {
  Engine engine(g_);
  analysis::DiagnosticList diags =
      engine.Lint("MATCH (a)-[:Transfer]->{3,2}(b)");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.items()[0].code, analysis::kCodeSyntax);
}

TEST_F(AnalysisTest, ContradictoryLabelConjunctionEmptiesPattern) {
  EngineMetrics metrics;
  EngineOptions opts;
  opts.metrics = &metrics;
  Engine engine(g_, opts);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x:Account&!Account)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeLabelContradiction))
      << q->diagnostics().ToString();
  EXPECT_TRUE(q->always_empty());
  Result<MatchOutput> out = q->Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 0u);
  EXPECT_EQ(metrics.seeded_nodes, 0u);
  EXPECT_EQ(metrics.matcher_steps, 0u);
}

TEST_F(AnalysisTest, LabelNameWithNegatedWildcardContradicts) {
  // `Account & !%` requires a name on an element required label-less.
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x:Account&!%)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeLabelContradiction));
  EXPECT_TRUE(q->always_empty());
}

TEST_F(AnalysisTest, LabelDisjunctionIsNotAContradiction) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x:Account|!Account)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(HasCode(q->diagnostics(), analysis::kCodeLabelContradiction))
      << q->diagnostics().ToString();
  EXPECT_FALSE(q->always_empty());
}

// ---------------------------------------------------------------------------
// Schema lints (warnings only — the queries still run)
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, UnknownLabelWarns) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare("MATCH (x:Acount)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeUnknownLabel))
      << q->diagnostics().ToString();
  EXPECT_FALSE(q->always_empty());
}

TEST_F(AnalysisTest, UnknownPropertyWarns) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account) WHERE x.owners = 'Scott'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeUnknownProperty))
      << q->diagnostics().ToString();
}

TEST_F(AnalysisTest, KnownSchemaNamesDoNotWarn) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare(
      "MATCH (x:Account)-[t:Transfer]->(y:Account) WHERE t.amount > 5M");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->diagnostics().empty()) << q->diagnostics().ToString();
}

TEST_F(AnalysisTest, DisconnectedDeclarationsWarn) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account), (y:Phone)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(HasCode(q->diagnostics(), analysis::kCodeCartesianProduct))
      << q->diagnostics().ToString();
}

TEST_F(AnalysisTest, PostfilterJoinSuppressesCartesianWarning) {
  Engine engine(g_);
  Result<PreparedQuery> q = engine.Prepare(
      "MATCH (x:Account), (y:Account) WHERE x.owner = y.owner");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(HasCode(q->diagnostics(), analysis::kCodeCartesianProduct))
      << q->diagnostics().ToString();
}

TEST_F(AnalysisTest, SharedVariableSuppressesCartesianWarning) {
  Engine engine(g_);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x)-[:Transfer]->(y), (y)-[:Transfer]->(z)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_FALSE(HasCode(q->diagnostics(), analysis::kCodeCartesianProduct))
      << q->diagnostics().ToString();
}

// ---------------------------------------------------------------------------
// Lint API: full pipeline, never fails
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, LintParseErrorIsSingleSyntaxDiagnostic) {
  Engine engine(g_);
  const std::string text = "MATCH (x";
  analysis::DiagnosticList diags = engine.Lint(text);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.items()[0].code, analysis::kCodeSyntax);
  EXPECT_EQ(diags.items()[0].severity, analysis::Severity::kError);
  EXPECT_LE(diags.items()[0].span.begin, diags.items()[0].span.end);
  EXPECT_LE(diags.items()[0].span.end, text.size());
}

TEST_F(AnalysisTest, LintSemanticErrorIsSemanticDiagnostic) {
  Engine engine(g_);
  analysis::DiagnosticList diags = engine.Lint("MATCH (x)-[x]->(y)");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.items()[0].code, analysis::kCodeSemantic);
  EXPECT_EQ(diags.items()[0].severity, analysis::Severity::kError);
}

TEST_F(AnalysisTest, LintCleanQueryIsEmpty) {
  Engine engine(g_);
  EXPECT_TRUE(
      engine.Lint("MATCH (x:Account)-[t:Transfer]->(y:Account)").empty());
}

TEST_F(AnalysisTest, LintRenderProducesCaretSnippet) {
  Engine engine(g_);
  const std::string text = "MATCH (x:Account) WHERE 1 = 2";
  analysis::DiagnosticList diags = engine.Lint(text);
  ASSERT_FALSE(diags.empty());
  std::string rendered = diags.Render(text);
  EXPECT_NE(rendered.find("GPML-W101"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find('^'), std::string::npos) << rendered;
}

TEST_F(AnalysisTest, LintNeverCrashesOnMalformedCorpus) {
  Engine engine(g_);
  const std::vector<std::string> corpus = {
      "",
      "MATCH",
      "MATCH (",
      "MATCH (x",
      "MATCH (x)-[",
      "MATCH (x)-[e]->",
      "MATCH (x)->(y",
      "MATCH (x) WHERE",
      "MATCH (x) WHERE x .",
      "MATCH (x) WHERE x.a = ",
      "MATCH (x:)",
      "MATCH (x:Account&)",
      "MATCH ()()-",
      "MATCH (a)-[:Transfer]->{,2}(b)",
      "MATCH (a)[(x)-[e]->(y)]{1,(b)",
      "WHERE x.a = 1",
      ")))(((",
      "MATCH (x) RETURN x",  // RETURN is a statement, not a pattern.
      "MATCH (x) WHERE $ = 1",
      "MATCH (x WHERE y.a = 1)-[e]->(y)",
  };
  for (const std::string& text : corpus) {
    analysis::DiagnosticList diags = engine.Lint(text);
    for (const analysis::Diagnostic& d : diags) {
      EXPECT_EQ(d.code.rfind("GPML-", 0), 0u) << text;
      EXPECT_LE(d.span.begin, d.span.end) << text;
      EXPECT_LE(d.span.end, text.size()) << text << " span.end="
                                         << d.span.end;
      EXPECT_FALSE(d.message.empty()) << text;
    }
  }
}

TEST_F(AnalysisTest, PaperFigurePatternsLintClean) {
  // Queries of Figures 3-8 (tests/paper_examples_test.cc) against the
  // Figure 1 graph: the analyzer accepts all of them without a finding.
  Engine engine(g_);
  const std::vector<std::string> figures = {
      "MATCH (x:Account WHERE x.isBlocked='yes')",
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(:Country WHERE x.owner = 'Scott')",
      "MATCH -[e:Transfer WHERE e.amount>5M]->",
      "MATCH (p:Phone)~[e:hasPhone]~(a1:Account)",
      "MATCH (x)-[:Transfer]->()-[:isLocatedIn]->(y)",
      "MATCH (a)-[t:Transfer]->{1,3}(b)",
      "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b)",
      "MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b)",
      "MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')"
      "-[t:Transfer]->*(b)",
  };
  for (const std::string& text : figures) {
    analysis::DiagnosticList diags = engine.Lint(text);
    EXPECT_TRUE(diags.empty()) << text << "\n" << diags.ToString();
  }
}

TEST_F(AnalysisTest, LintPublishesDiagnosticsCounter) {
  uint64_t before = g_.metrics_registry()
                        ->GetCounter("gpml_diagnostics_emitted_total")
                        ->value();
  Engine engine(g_);
  analysis::DiagnosticList diags =
      engine.Lint("MATCH (x:Account) WHERE 1 = 2");
  ASSERT_FALSE(diags.empty());
  uint64_t after = g_.metrics_registry()
                       ->GetCounter("gpml_diagnostics_emitted_total")
                       ->value();
  EXPECT_EQ(after, before + diags.size());
}

// ---------------------------------------------------------------------------
// Host surfaces: Session::Lint and GraphTableLint
// ---------------------------------------------------------------------------

TEST(AnalysisHostTest, SessionLintRequiresGraph) {
  Catalog catalog;
  Session session(catalog);
  EXPECT_FALSE(session.Lint("MATCH (x)").ok());
}

TEST(AnalysisHostTest, SessionLintReportsWarnings) {
  Catalog catalog;
  catalog.AddGraph("bank", BuildPaperGraph());
  Session session(catalog);
  ASSERT_TRUE(session.UseGraph("bank").ok());
  Result<analysis::DiagnosticList> diags =
      session.Lint("MATCH (x:Acount) WHERE 1 = 2");
  ASSERT_TRUE(diags.ok()) << diags.status();
  EXPECT_TRUE(HasCode(*diags, analysis::kCodeUnknownLabel));
  EXPECT_TRUE(HasCode(*diags, analysis::kCodeAlwaysFalse));
}

TEST(AnalysisHostTest, SessionPrepareFailsOnTypeError) {
  Catalog catalog;
  catalog.AddGraph("bank", BuildPaperGraph());
  Session session(catalog);
  ASSERT_TRUE(session.UseGraph("bank").ok());
  Result<PreparedStatement> p =
      session.Prepare("MATCH (x) WHERE 42 RETURN x");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("GPML-E012"), std::string::npos);
}

TEST(AnalysisHostTest, GraphTableLintReportsWarnings) {
  Catalog catalog;
  catalog.AddGraph("bank", BuildPaperGraph());
  GraphTableQuery query;
  query.graph = "bank";
  query.match = "MATCH (x:Account) WHERE x.owner = 'a' AND x.owner = 'b'";
  Result<analysis::DiagnosticList> diags = GraphTableLint(catalog, query);
  ASSERT_TRUE(diags.ok()) << diags.status();
  EXPECT_TRUE(HasCode(*diags, analysis::kCodeContradictoryEq));
}

TEST(AnalysisHostTest, GraphTableLintStripsExplainPrefix) {
  Catalog catalog;
  catalog.AddGraph("bank", BuildPaperGraph());
  GraphTableQuery query;
  query.graph = "bank";
  query.match = "EXPLAIN MATCH (x:Account) WHERE 1 = 2";
  Result<analysis::DiagnosticList> diags = GraphTableLint(catalog, query);
  ASSERT_TRUE(diags.ok()) << diags.status();
  EXPECT_TRUE(HasCode(*diags, analysis::kCodeAlwaysFalse));
  EXPECT_FALSE(HasCode(*diags, analysis::kCodeSyntax));
}

TEST(AnalysisHostTest, GraphTableLintUnknownGraphIsError) {
  Catalog catalog;
  GraphTableQuery query;
  query.graph = "nope";
  query.match = "MATCH (x)";
  EXPECT_FALSE(GraphTableLint(catalog, query).ok());
}

TEST(AnalysisHostTest, GraphTableExecutesAlwaysFalseEmpty) {
  Catalog catalog;
  catalog.AddGraph("bank", BuildPaperGraph());
  GraphTableQuery query;
  query.graph = "bank";
  query.match = "MATCH (x:Account) WHERE 1 = 2";
  query.columns = "x.owner AS owner";
  Result<Table> table = GraphTable(catalog, query);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 0u);
}

// ---------------------------------------------------------------------------
// EXPLAIN: warnings section, roundtrip through ParseExplain
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, ExplainRendersWarningsSection) {
  Engine engine(g_);
  Result<std::string> text =
      engine.Explain("MATCH (x:Account) WHERE 1 = 2");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("warnings: "), std::string::npos) << *text;
  EXPECT_NE(text->find("code=GPML-W101"), std::string::npos) << *text;
}

TEST_F(AnalysisTest, ExplainWithoutWarningsHasNoSection) {
  Engine engine(g_);
  Result<std::string> text =
      engine.Explain("MATCH (x:Account)-[t:Transfer]->(y)");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text->find("warnings"), std::string::npos) << *text;
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->warnings.empty());
}

TEST_F(AnalysisTest, ExplainWarningsRoundtripByteExact) {
  Engine engine(g_);
  const std::string q =
      "MATCH (x:Account) WHERE x.owner = 'Scott' AND x.owner = 'Mike'";
  Result<PreparedQuery> prepared = engine.Prepare(q);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result<std::string> text = engine.Explain(q);
  ASSERT_TRUE(text.ok()) << text.status();
  Result<planner::ExplainedPlan> parsed = planner::ParseExplain(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << *text;

  const analysis::DiagnosticList& diags = prepared->diagnostics();
  ASSERT_EQ(parsed->warnings.size(), diags.size());
  for (size_t i = 0; i < diags.size(); ++i) {
    const analysis::Diagnostic& d = diags.items()[i];
    const planner::ExplainedWarning& w = parsed->warnings[i];
    EXPECT_EQ(w.code, d.code);
    EXPECT_EQ(w.severity, analysis::SeverityName(d.severity));
    EXPECT_EQ(w.begin, d.span.begin);
    EXPECT_EQ(w.end, d.span.end);
    // Messages and hints carry spaces, quotes, and `offset=` markers —
    // escaping must recover them byte-exactly.
    EXPECT_EQ(w.message, d.message);
    EXPECT_EQ(w.hint, d.hint);
  }
}

TEST_F(AnalysisTest, SessionExplainCarriesWarnings) {
  Catalog catalog;
  catalog.AddGraph("bank", BuildPaperGraph());
  Session session(catalog);
  ASSERT_TRUE(session.UseGraph("bank").ok());
  Result<std::string> text =
      session.Explain("MATCH (x:Account) WHERE 1 = 2 RETURN x");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("code=GPML-W101"), std::string::npos) << *text;
}

// ---------------------------------------------------------------------------
// Analyzer unit surface: AnalyzeQuery over a schema-less graph
// ---------------------------------------------------------------------------

TEST_F(AnalysisTest, SchemaLintsSkippedWithoutGraph) {
  // AnalyzeQuery accepts graph == nullptr (no schema to lint against):
  // unknown-name findings are skipped, satisfiability still runs.
  Result<GraphPattern> pattern =
      ParseGraphPattern("MATCH (x:NoSuchLabel) WHERE 1 = 2");
  ASSERT_TRUE(pattern.ok()) << pattern.status();
  Result<GraphPattern> normalized = Normalize(*pattern);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  Result<Analysis> sem = Analyze(*normalized);
  ASSERT_TRUE(sem.ok()) << sem.status();
  analysis::QueryAnalysis qa =
      analysis::AnalyzeQuery(*normalized, *sem, /*graph=*/nullptr);
  EXPECT_FALSE(HasCode(qa.diagnostics, analysis::kCodeUnknownLabel));
  EXPECT_TRUE(HasCode(qa.diagnostics, analysis::kCodeAlwaysFalse));
  EXPECT_TRUE(qa.always_empty);
}

}  // namespace
}  // namespace gpml
