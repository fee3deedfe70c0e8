// Streaming cursor execution: rows pulled through a Cursor are
// byte-identical to Engine::Match's materialized row sequence (a prefix of
// it under LIMIT) across the full option matrix {threads 1,8} x
// {limit absent/present}, for both cursor
// modes (chunked single-declaration streaming and lazy-batch). Mid-stream
// abandonment leaks nothing; budget exhaustion surfaces as a flagged
// truncation under BudgetPolicy::kTruncate, distinct from a clean LIMIT
// stop.

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "eval/engine.h"
#include "gql/session.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "pgq/graph_table.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

using testing_util::RenderRow;

/// Ordered canonical rows of the batch oracle.
std::vector<std::string> MatchRows(const PropertyGraph& g,
                                   const std::string& query,
                                   const EngineOptions& options) {
  Engine engine(g, options);
  Result<MatchOutput> out = engine.Match(query);
  EXPECT_TRUE(out.ok()) << query << " -> " << out.status();
  std::vector<std::string> rows;
  if (!out.ok()) return rows;
  rows.reserve(out->rows.size());
  for (const ResultRow& row : out->rows) {
    rows.push_back(RenderRow(row, *out, g));
  }
  return rows;
}

/// Ordered canonical rows streamed through a cursor.
std::vector<std::string> CursorRows(const PropertyGraph& g,
                                    const std::string& query,
                                    const EngineOptions& options,
                                    std::optional<uint64_t> limit) {
  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(query);
  EXPECT_TRUE(q.ok()) << query << " -> " << q.status();
  std::vector<std::string> rows;
  if (!q.ok()) return rows;
  Result<Cursor> cursor = q->Open({}, limit);
  EXPECT_TRUE(cursor.ok()) << cursor.status();
  if (!cursor.ok()) return rows;
  RowView view;
  while (true) {
    Result<bool> more = cursor->Next(&view);
    EXPECT_TRUE(more.ok()) << query << " -> " << more.status();
    if (!more.ok() || !*more) break;
    rows.push_back(RenderRow(*view.row, *view.context, g));
  }
  return rows;
}

/// The differential workloads: single fixed-length declarations exercise
/// the chunked streaming mode; quantified/multi-declaration/selector
/// patterns exercise the lazy-batch mode.
const char* kQueries[] = {
    // Stream mode: fixed length 1 and 2, inline predicates, postfilter.
    "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer]->(y:Account)",
    "MATCH (a:Account)-[t:Transfer]->(b:Account)-[u:Transfer]->(c:Account) "
    "WHERE t.amount <= u.amount",
    // Stream mode: fixed-count quantifier.
    "MATCH (x:Account)-[:Transfer]->{2,2}(y:Account)",
    // Batch mode: variable-length quantifier with restrictor.
    "MATCH TRAIL (x:Account WHERE x.isBlocked='yes')-[:Transfer]->{1,3}"
    "(y:Account WHERE y.isBlocked='yes')",
    // Batch mode: selector.
    "MATCH ANY SHORTEST (x:Account WHERE x.isBlocked='no')-[:Transfer]->+"
    "(y:Account WHERE y.isBlocked='yes')",
    // Batch mode: two joined declarations.
    "MATCH (x:Account)-[:isLocatedIn]->(c:City WHERE c.name='Ankh-Morpork')"
    "<-[:isLocatedIn]-(y:Account), (x)-[t:Transfer]->(y)",
};

PropertyGraph MatrixGraph() {
  FraudGraphOptions options;
  options.num_accounts = 60;
  options.num_cities = 2;
  return MakeFraudGraph(options);
}

TEST(CursorTest, StreamedRowsByteIdenticalAcrossMatrix) {
  PropertyGraph g = MatrixGraph();
  for (const char* query : kQueries) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      EngineOptions options;
      options.num_threads = threads;
      options.matcher.min_seeds_per_shard = 1;  // Force real sharding.
      std::vector<std::string> oracle = MatchRows(g, query, options);
      // Full stream == full materialization.
      EXPECT_EQ(CursorRows(g, query, options, std::nullopt), oracle)
          << query << " threads=" << threads;
      // Limited stream == prefix of the materialization.
      uint64_t limit = 3;
      std::vector<std::string> expected(
          oracle.begin(),
          oracle.begin() +
              static_cast<long>(std::min<size_t>(limit, oracle.size())));
      EXPECT_EQ(CursorRows(g, query, options, limit), expected)
          << query << " threads=" << threads << " limit";
    }
  }
}

TEST(CursorTest, PaperGraphStreamEqualsOracle) {
  PropertyGraph g = BuildPaperGraph();
  for (const char* query :
       {"MATCH (x:Account)-[t:Transfer]->(y:Account)",
        "MATCH (x)~[h:hasPhone]~(p:Phone)",
        "MATCH (x:Account)-[t:Transfer]->(y) WHERE t.amount > 8M"}) {
    EngineOptions options;
    EXPECT_EQ(CursorRows(g, query, options, std::nullopt),
              MatchRows(g, query, options))
        << query;
  }
}

TEST(CursorTest, HitLimitIsDistinctFromTruncation) {
  PropertyGraph g = MatrixGraph();
  EngineOptions options;
  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(
      "MATCH (x:Account)-[t:Transfer]->(y:Account)");
  ASSERT_TRUE(q.ok()) << q.status();

  Result<Cursor> cursor = q->Open({}, uint64_t{2});
  ASSERT_TRUE(cursor.ok());
  RowView view;
  size_t n = 0;
  while (true) {
    Result<bool> more = cursor->Next(&view);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    ++n;
  }
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(cursor->hit_limit());
  EXPECT_FALSE(cursor->truncated());
  EXPECT_EQ(cursor->rows_emitted(), 2u);
}

TEST(CursorTest, BudgetExhaustionTruncatesWhenPolicyAllows) {
  PropertyGraph g = MatrixGraph();

  // kError (default): the stream fails with kResourceExhausted.
  {
    EngineOptions options;
    options.matcher.max_steps = 50;
    Engine engine(g, options);
    Result<PreparedQuery> q = engine.Prepare(
        "MATCH (x:Account)-[t:Transfer]->(y:Account)");
    ASSERT_TRUE(q.ok()) << q.status();
    Result<Cursor> cursor = q->Open();
    ASSERT_TRUE(cursor.ok());
    RowView view;
    Status error = Status::OK();
    while (true) {
      Result<bool> more = cursor->Next(&view);
      if (!more.ok()) {
        error = more.status();
        break;
      }
      if (!*more) break;
    }
    EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
    // Errors are sticky.
    Result<bool> again = cursor->Next(&view);
    EXPECT_FALSE(again.ok());
  }

  // kTruncate: the stream ends cleanly with the truncation flagged — on
  // the cursor, in the metrics, and not mistaken for a LIMIT stop.
  {
    EngineMetrics metrics;
    EngineOptions options;
    options.matcher.max_steps = 50;
    options.on_budget = EngineOptions::BudgetPolicy::kTruncate;
    options.metrics = &metrics;
    Engine engine(g, options);
    Result<PreparedQuery> q = engine.Prepare(
        "MATCH (x:Account)-[t:Transfer]->(y:Account)");
    ASSERT_TRUE(q.ok()) << q.status();
    Result<Cursor> cursor = q->Open();
    ASSERT_TRUE(cursor.ok());
    RowView view;
    while (true) {
      Result<bool> more = cursor->Next(&view);
      ASSERT_TRUE(more.ok()) << more.status();
      if (!*more) break;
    }
    EXPECT_TRUE(cursor->truncated());
    EXPECT_FALSE(cursor->hit_limit());
    EXPECT_EQ(metrics.budget_truncated, 1u);
  }
}

TEST(CursorTest, MatchOutputTruncationFlagUnderPolicy) {
  PropertyGraph g = MatrixGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.matcher.max_matches = 5;
  options.on_budget = EngineOptions::BudgetPolicy::kTruncate;
  options.metrics = &metrics;
  Engine engine(g, options);
  Result<MatchOutput> out =
      engine.Match("MATCH (x:Account)-[t:Transfer]->(y:Account)");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->truncated);
  EXPECT_EQ(metrics.budget_truncated, 1u);
  EXPECT_LE(out->rows.size(), 5u);
  EXPECT_NE(out->rows.size(), 0u);

  // The same overflow under the default policy stays an error — the
  // historical contract.
  EngineOptions error_options;
  error_options.matcher.max_matches = 5;
  Engine error_engine(g, error_options);
  Result<MatchOutput> error_out =
      error_engine.Match("MATCH (x:Account)-[t:Transfer]->(y:Account)");
  EXPECT_FALSE(error_out.ok());
  EXPECT_EQ(error_out.status().code(), StatusCode::kResourceExhausted);
}

TEST(CursorTest, MidStreamAbandonmentLeaksNothing) {
  PropertyGraph g = MatrixGraph();
  EngineOptions options;
  const std::string query =
      "MATCH (x:Account)-[t:Transfer]->(y:Account)";
  std::vector<std::string> oracle = MatchRows(g, query, options);

  Engine engine(g, options);
  Result<PreparedQuery> q = engine.Prepare(query);
  ASSERT_TRUE(q.ok()) << q.status();
  {
    // Pull one row, then drop the cursor: its budget dies with it.
    Result<Cursor> cursor = q->Open();
    ASSERT_TRUE(cursor.ok());
    RowView view;
    Result<bool> more = cursor->Next(&view);
    ASSERT_TRUE(more.ok());
    EXPECT_TRUE(*more);
  }
  // A fresh stream from the same prepared query starts a fresh budget and
  // reproduces the full oracle sequence.
  EXPECT_EQ(CursorRows(g, query, options, std::nullopt), oracle);
}

TEST(CursorTest, RangeForIteration) {
  PropertyGraph g = BuildPaperGraph();
  Engine engine(g);
  Result<PreparedQuery> q =
      engine.Prepare("MATCH (x:Account)-[t:Transfer]->(y:Account)");
  ASSERT_TRUE(q.ok()) << q.status();
  Result<Cursor> cursor = q->Open();
  ASSERT_TRUE(cursor.ok());
  size_t n = 0;
  for (const RowView& view : *cursor) {
    EXPECT_NE(view.row, nullptr);
    EXPECT_NE(view.context, nullptr);
    ++n;
  }
  EXPECT_TRUE(cursor->status().ok());
  EXPECT_EQ(n, 8u);  // Eight Transfer edges in Figure 1.
}

TEST(CursorTest, DrainMatchesOracle) {
  PropertyGraph g = BuildPaperGraph();
  EngineOptions options;
  const std::string query =
      "MATCH (x:Account)-[t:Transfer]->(y:Account) WHERE t.amount >= 9M";
  Engine engine(g, options);
  Result<MatchOutput> oracle = engine.Match(query);
  ASSERT_TRUE(oracle.ok());

  Result<PreparedQuery> q = engine.Prepare(query);
  ASSERT_TRUE(q.ok());
  Result<Cursor> cursor = q->Open();
  ASSERT_TRUE(cursor.ok());
  Result<MatchOutput> drained = cursor->Drain();
  ASSERT_TRUE(drained.ok()) << drained.status();
  ASSERT_EQ(drained->rows.size(), oracle->rows.size());
  for (size_t i = 0; i < drained->rows.size(); ++i) {
    EXPECT_EQ(RenderRow(drained->rows[i], *drained, g),
              RenderRow(oracle->rows[i], *oracle, g));
  }
  EXPECT_FALSE(drained->truncated);
}

TEST(CursorTest, SessionLimitStopsEarly) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("fraud", MatrixGraph()).ok());

  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Session session(catalog, options);
  ASSERT_TRUE(session.UseGraph("fraud").ok());

  Result<Table> full = session.Execute(
      "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN x, y");
  ASSERT_TRUE(full.ok()) << full.status();
  size_t full_steps = metrics.matcher_steps;
  ASSERT_GT(full->num_rows(), 3u);

  Result<Table> limited = session.Execute(
      "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN x, y LIMIT 3");
  ASSERT_TRUE(limited.ok()) << limited.status();
  EXPECT_EQ(limited->num_rows(), 3u);
  // The limit pushed into the cursor: matching stopped early.
  EXPECT_LT(metrics.matcher_steps, full_steps);
  // And the limited rows are the prefix of the full table.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(limited->rows()[i], full->rows()[i]);
  }
}

TEST(CursorTest, SessionDistinctLimitSelectsFromSortedDistinct) {
  // DISTINCT output is sorted (DeduplicateRows parity with the
  // materialized path); LIMIT takes the first rows of that sorted set.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("bank", BuildPaperGraph()).ok());
  Session session(catalog);
  ASSERT_TRUE(session.UseGraph("bank").ok());

  Result<Table> all = session.Execute(
      "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN DISTINCT x");
  ASSERT_TRUE(all.ok()) << all.status();
  Result<Table> limited = session.Execute(
      "MATCH (x:Account)-[t:Transfer]->(y:Account) RETURN DISTINCT x "
      "LIMIT 2");
  ASSERT_TRUE(limited.ok()) << limited.status();
  ASSERT_EQ(limited->num_rows(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(limited->rows()[i], all->rows()[i]);
  }
}

TEST(CursorTest, GraphTableLimitOption) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddGraph("fraud", MatrixGraph()).ok());

  GraphTableQuery query;
  query.graph = "fraud";
  query.match = "MATCH (x:Account)-[t:Transfer]->(y:Account)";
  query.columns = "x.owner AS sender, y.owner AS receiver";
  Result<Table> full = GraphTable(catalog, query);
  ASSERT_TRUE(full.ok()) << full.status();

  query.limit = 4;
  Result<Table> limited = GraphTable(catalog, query);
  ASSERT_TRUE(limited.ok()) << limited.status();
  ASSERT_EQ(limited->num_rows(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(limited->rows()[i], full->rows()[i]);
  }
}

}  // namespace
}  // namespace gpml
