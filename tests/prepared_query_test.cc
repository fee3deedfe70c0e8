// Prepared parameterized queries: $name placeholders are collected into a
// typed signature at Prepare, validated at bind time (unknown / missing /
// type-mismatch are Status errors), executions with different bound values
// share one plan-cache entry (the fingerprint is the parameterized text),
// bind-time index seeding resolves $parameters against the equality seed
// index, and prepared executions are row-identical to the same query with
// the values written as literals.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "eval/engine.h"
#include "eval/params.h"
#include "gql/session.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "pgq/graph_table.h"
#include "planner/explain.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

using testing_util::Rows;

// ---------------------------------------------------------------------------
// Signature collection
// ---------------------------------------------------------------------------

ParamSignature SignatureOf(const std::string& match_text) {
  Result<GraphPattern> pattern = ParseGraphPattern(match_text);
  EXPECT_TRUE(pattern.ok()) << pattern.status();
  return CollectPatternParams(*pattern);
}

TEST(ParamSignatureTest, CollectsFromEveryExpressionPosition) {
  ParamSignature sig = SignatureOf(
      "MATCH (x:Account WHERE x.owner = $owner)"
      "-[t:Transfer WHERE t.amount > $amount]->(y) "
      "WHERE y.isBlocked = $blocked");
  EXPECT_EQ(sig.Names(),
            (std::vector<std::string>{"amount", "blocked", "owner"}));
}

TEST(ParamSignatureTest, CollectsFromSubpatternWhere) {
  ParamSignature sig = SignatureOf(
      "MATCH (a)[(x)-[e]->(y) WHERE e.amount > $min]{1,3}(b)");
  EXPECT_EQ(sig.Names(), (std::vector<std::string>{"min"}));
}

TEST(ParamSignatureTest, DedupesRepeatedUse) {
  ParamSignature sig = SignatureOf(
      "MATCH (x WHERE x.owner = $who)-[]->(y WHERE y.owner = $who)");
  EXPECT_EQ(sig.Names(), (std::vector<std::string>{"who"}));
}

TEST(ParamSignatureTest, InfersBoolAndNumericConstraints) {
  ParamSignature sig = SignatureOf(
      "MATCH (x)-[t]->(y) WHERE $flag AND t.amount + $delta > 0");
  const ParamInfo* flag = sig.Find("flag");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->needs_bool);
  EXPECT_FALSE(flag->needs_numeric);
  const ParamInfo* delta = sig.Find("delta");
  ASSERT_NE(delta, nullptr);
  EXPECT_TRUE(delta->needs_numeric);
  EXPECT_FALSE(delta->needs_bool);
}

TEST(ParamSignatureTest, ComparisonOperandsAreUnconstrained) {
  ParamSignature sig = SignatureOf("MATCH (x) WHERE x.owner = $owner");
  const ParamInfo* owner = sig.Find("owner");
  ASSERT_NE(owner, nullptr);
  EXPECT_FALSE(owner->needs_bool);
  EXPECT_FALSE(owner->needs_numeric);
}

TEST(ParamSignatureTest, StatementCollectionIncludesReturnItems) {
  Result<MatchStatement> stmt =
      ParseStatement("MATCH (x WHERE x.owner = $a) RETURN x.owner, $tag");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ParamSignature sig = CollectStatementParams(*stmt);
  EXPECT_EQ(sig.Names(), (std::vector<std::string>{"a", "tag"}));
}

// ---------------------------------------------------------------------------
// Bind validation
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, MissingParameterIsError) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account WHERE x.owner = $owner)");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<MatchOutput> out = q->Execute();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("missing parameter $owner"),
            std::string::npos)
      << out.status();
}

TEST(PreparedQueryTest, UnknownParameterIsError) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account WHERE x.owner = $owner)");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<MatchOutput> out = q->Execute(
      {{"owner", Value::String("Jay")}, {"oops", Value::Int(1)}});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("unknown parameter $oops"),
            std::string::npos);
}

TEST(PreparedQueryTest, TypeMismatchIsError) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x)-[t]->(y) WHERE $flag");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<MatchOutput> out = q->Execute({{"flag", Value::String("yes")}});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("must be BOOL"), std::string::npos);

  Result<PreparedQuery> q2 =
      engine.Prepare("MATCH (x)-[t]->(y) WHERE t.amount + $delta > 10M");
  ASSERT_TRUE(q2.ok()) << q2.status();
  Result<MatchOutput> out2 = q2->Execute({{"delta", Value::Bool(true)}});
  ASSERT_FALSE(out2.ok());
  EXPECT_EQ(out2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out2.status().message().find("must be numeric"),
            std::string::npos);
}

TEST(PreparedQueryTest, NullIsBindableEverywhere) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account WHERE x.owner = $owner)");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<MatchOutput> out = q->Execute({{"owner", Value::Null()}});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 0u);  // = NULL is never true (3VL).
}

TEST(PreparedQueryTest, LegacyMatchRejectsParameterizedText) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<MatchOutput> out =
      engine.Match("MATCH (x:Account WHERE x.owner = $owner)");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Prepared-vs-literal row equality
// ---------------------------------------------------------------------------

std::vector<std::string> PreparedRows(const PropertyGraph& g,
                                      const std::string& match_text,
                                      const Params& params,
                                      const std::string& columns,
                                      EngineOptions options = {}) {
  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(match_text);
  if (!q.ok()) return {"ERROR: " + q.status().ToString()};
  Result<MatchOutput> out = q->Execute(params);
  if (!out.ok()) return {"ERROR: " + out.status().ToString()};
  Result<std::vector<ReturnItem>> items = ParseColumns(columns);
  if (!items.ok()) return {"ERROR: " + items.status().ToString()};
  Result<Table> table = ProjectRows(*out, g, *items, /*distinct=*/false);
  if (!table.ok()) return {"ERROR: " + table.status().ToString()};
  std::vector<std::string> rows;
  for (const Row& r : table->rows()) {
    std::string line;
    for (size_t i = 0; i < r.size(); ++i) {
      if (i > 0) line += "|";
      line += r[i].ToString();
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(PreparedQueryTest, PreparedEqualsLiteralRows) {
  PropertyGraph g = BuildPaperGraph();
  struct Case {
    const char* parameterized;
    Params params;
    const char* literal;
    const char* columns;
  };
  const Case cases[] = {
      {"MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y)",
       {{"owner", Value::String("Mike")}},
       "MATCH (x:Account WHERE x.owner = 'Mike')-[t:Transfer]->(y)",
       "x, y, t.amount"},
      {"MATCH (x)-[t:Transfer WHERE t.amount > $min]->(y)",
       {{"min", Value::Int(8'000'000)}},
       "MATCH (x)-[t:Transfer WHERE t.amount > 8M]->(y)", "x, y, t.amount"},
      {"MATCH (x:Account)-[t:Transfer]->(y) WHERE y.isBlocked = $b",
       {{"b", Value::String("yes")}},
       "MATCH (x:Account)-[t:Transfer]->(y) WHERE y.isBlocked = 'yes'",
       "x, y"},
      {"MATCH ANY (x WHERE x.owner = $a)-[:Transfer]->+"
       "(y WHERE y.owner = $b)",
       {{"a", Value::String("Scott")}, {"b", Value::String("Dave")}},
       "MATCH ANY (x WHERE x.owner = 'Scott')-[:Transfer]->+"
       "(y WHERE y.owner = 'Dave')",
       "x, y"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(PreparedRows(g, c.parameterized, c.params, c.columns),
              Rows(g, c.literal, c.columns))
        << c.parameterized;
  }
}

TEST(PreparedQueryTest, RebindingChangesResultsNotThePlan) {
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(
      "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y)");
  ASSERT_TRUE(q.ok()) << q.status();

  Result<MatchOutput> mike = q->Execute({{"owner", Value::String("Mike")}});
  ASSERT_TRUE(mike.ok()) << mike.status();
  Result<MatchOutput> dave = q->Execute({{"owner", Value::String("Dave")}});
  ASSERT_TRUE(dave.ok()) << dave.status();
  EXPECT_NE(mike->rows.size(), 0u);
  EXPECT_NE(dave->rows.size(), 0u);
  EXPECT_EQ(mike->rows.size(),
            Rows(g, "MATCH (x:Account WHERE x.owner = 'Mike')"
                    "-[t:Transfer]->(y)", "x").size());
}

// ---------------------------------------------------------------------------
// Plan-cache sharing across bound values
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, LiteralVaryingExecutionsShareOneCachedPlan) {
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(g, options);

  const std::string text =
      "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y)";
  const char* owners[] = {"Scott", "Aretha", "Mike", "Jay", "Charles",
                          "Dave"};
  size_t misses = 0;
  size_t hits = 0;
  for (const char* owner : owners) {
    Result<PreparedQuery> q = engine.Prepare(text);
    ASSERT_TRUE(q.ok()) << q.status();
    Result<MatchOutput> out =
        q->Execute({{"owner", Value::String(owner)}});
    ASSERT_TRUE(out.ok()) << out.status();
    misses += metrics.plan_cache_misses;
    hits += metrics.plan_cache_hits;
  }
  EXPECT_EQ(misses, 1u);  // Only the first prepare compiled.
  EXPECT_EQ(hits, 5u);
}

TEST(PreparedQueryTest, FromCacheReportsSecondPrepare) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  const std::string text = "MATCH (x WHERE x.owner = $o)-[]->(y)";
  Result<PreparedQuery> first = engine.Prepare(text);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->from_cache());
  Result<PreparedQuery> second = engine.Prepare(text);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->from_cache());
}

// ---------------------------------------------------------------------------
// Bind-time index seeding
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, IndexSeedingResolvesParameterAtBindTime) {
  FraudGraphOptions fraud;
  fraud.num_accounts = 200;
  PropertyGraph g = MakeFraudGraph(fraud);

  const std::string text =
      "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)";

  // The plan keeps the parameterized index source.
  Engine plain(g);
  Result<std::string> explain = plain.Explain(text);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("source=index:Account.owner"), std::string::npos)
      << *explain;

  // Executing with a bound value seeds from the index: exactly the owner's
  // node, not the Account label scan.
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(text);
  ASSERT_TRUE(q.ok()) << q.status();
  Result<MatchOutput> out = q->Execute({{"owner", Value::String("u42")}});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(metrics.index_seeded_decls, 1u);
  EXPECT_EQ(metrics.seeded_nodes, 1u);  // One account owns "u42".

  // Row-identical to label-scan seeding: the same equality in the
  // postfilter WHERE is never index-seeded.
  const std::string scanned =
      "MATCH (x:Account)-[t:Transfer]->(y:Account) WHERE x.owner = 'u42'";
  Result<std::string> scan_explain = plain.Explain(scanned);
  ASSERT_TRUE(scan_explain.ok()) << scan_explain.status();
  EXPECT_NE(scan_explain->find("source=label:Account"), std::string::npos)
      << *scan_explain;
  EXPECT_EQ(PreparedRows(g, text, {{"owner", Value::String("u42")}},
                         "x, y, t.amount"),
            Rows(g, scanned, "x, y, t.amount"));

  // A NULL binding falls back to label-scan seeding and selects nothing.
  EngineMetrics null_metrics;
  EngineOptions null_options;
  null_options.metrics = &null_metrics;
  Engine null_engine(g, null_options);
  Result<PreparedQuery> qn = null_engine.Prepare(text);
  ASSERT_TRUE(qn.ok()) << qn.status();
  Result<MatchOutput> out_null = qn->Execute({{"owner", Value::Null()}});
  ASSERT_TRUE(out_null.ok()) << out_null.status();
  EXPECT_EQ(out_null->rows.size(), 0u);
  EXPECT_EQ(null_metrics.index_seeded_decls, 0u);
}

// ---------------------------------------------------------------------------
// Host-level parameters
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, SessionExecuteBindsParams) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("bank", BuildPaperGraph()).ok());
  Session session(catalog);
  ASSERT_TRUE(session.UseGraph("bank").ok());

  Result<Table> table = session.Execute(
      "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y) "
      "RETURN x.owner AS from_owner, y.owner AS to_owner, $tag AS tag",
      {{"owner", Value::String("Mike")}, {"tag", Value::String("audit")}});
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_NE(table->num_rows(), 0u);
  for (const Row& row : table->rows()) {
    EXPECT_EQ(row[0].ToString(), "Mike");
    EXPECT_EQ(row[2].ToString(), "audit");
  }
}

TEST(PreparedQueryTest, SessionPreparedStatementRebinds) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("bank", BuildPaperGraph()).ok());
  Session session(catalog);
  ASSERT_TRUE(session.UseGraph("bank").ok());

  Result<PreparedStatement> stmt = session.Prepare(
      "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y) "
      "RETURN y.owner AS receiver");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->signature().Names(),
            (std::vector<std::string>{"owner"}));

  Result<Table> mike = stmt->Execute({{"owner", Value::String("Mike")}});
  ASSERT_TRUE(mike.ok()) << mike.status();
  Result<Table> scott = stmt->Execute({{"owner", Value::String("Scott")}});
  ASSERT_TRUE(scott.ok()) << scott.status();
  EXPECT_NE(mike->num_rows(), 0u);
  EXPECT_NE(scott->num_rows(), 0u);
}

TEST(PreparedQueryTest, GraphTableBindsParamsAndSharesCache) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("bank", BuildPaperGraph()).ok());

  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;

  GraphTableQuery query;
  query.graph = "bank";
  query.match =
      "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y)";
  query.columns = "y.owner AS receiver, t.amount AS amount";

  size_t hits = 0;
  for (const char* owner : {"Mike", "Dave", "Scott"}) {
    query.params = {{"owner", Value::String(owner)}};
    Result<Table> table = GraphTable(catalog, query, options);
    ASSERT_TRUE(table.ok()) << table.status();
    hits += metrics.plan_cache_hits;
  }
  EXPECT_EQ(hits, 2u);  // First call compiled; the rest hit.
}

}  // namespace
}  // namespace gpml
