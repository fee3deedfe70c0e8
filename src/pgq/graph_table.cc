#include "pgq/graph_table.h"

#include "common/strings.h"
#include "gql/result_table.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/snapshot_filter.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "planner/explain.h"

namespace gpml {

Result<Table> GraphTable(const Catalog& catalog, const GraphTableQuery& query,
                         EngineOptions options) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> graph,
                        catalog.GetGraph(query.graph));
  Engine engine(*graph, options);
  std::string rest;
  if (planner::StripExplainPrefix(query.match, &rest)) {
    std::string analyzed;
    if (planner::StripAnalyzePrefix(rest, &analyzed)) {
      // ANALYZE executes the MATCH part only (COLUMNS is ignored, as for
      // plain EXPLAIN): COLUMNS-only parameter bindings are dropped, any
      // other stray name is the usual unknown-parameter error.
      GPML_ASSIGN_OR_RETURN(GraphPattern pattern,
                            ParseGraphPattern(analyzed));
      GPML_ASSIGN_OR_RETURN(std::vector<ReturnItem> items,
                            ParseColumns(query.columns));
      GPML_ASSIGN_OR_RETURN(
          Params pattern_params,
          PatternOnlyParams(CollectPatternParams(pattern),
                            CollectItemParams(items), query.params));
      GPML_ASSIGN_OR_RETURN(std::string text,
                            engine.ExplainAnalyze(pattern, pattern_params));
      return planner::ExplainTable(text);
    }
    GPML_ASSIGN_OR_RETURN(std::string text, engine.Explain(rest));
    return planner::ExplainTable(text);
  }
  // Prepare-bind-cursor: one compiled plan per parameterized match text
  // (shared via the graph's plan cache), values bound per call, rows
  // streamed through the COLUMNS projection.
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, engine.Prepare(query.match));
  GPML_ASSIGN_OR_RETURN(std::vector<ReturnItem> items,
                        ParseColumns(query.columns));
  prepared.ExtendSignature(CollectItemParams(items));
  GPML_ASSIGN_OR_RETURN(Cursor cursor,
                        prepared.Open(query.params, query.limit));
  // SQL semantics: GRAPH_TABLE yields a bag; no implicit DISTINCT.
  return ProjectCursor(cursor, *graph, items, /*distinct=*/false,
                       query.limit);
}

Result<std::string> GraphTableMetricsText(const Catalog& catalog,
                                          const std::string& graph) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> g,
                        catalog.GetGraph(graph));
  return obs::RenderPrometheus(*g->metrics_registry());
}

Result<analysis::DiagnosticList> GraphTableLint(const Catalog& catalog,
                                                const GraphTableQuery& query,
                                                EngineOptions options) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> graph,
                        catalog.GetGraph(query.graph));
  Engine engine(*graph, options);
  // Lint sees the text exactly as Prepare would: a leading EXPLAIN
  // [ANALYZE] is stripped, not diagnosed as a parse error.
  std::string text = query.match;
  std::string rest;
  if (planner::StripExplainPrefix(text, &rest)) text = rest;
  if (planner::StripAnalyzePrefix(text, &rest)) text = rest;
  return engine.Lint(text);
}

Result<std::vector<obs::SlowQueryRecord>> GraphTableSlowQueries(
    const Catalog& catalog, const std::string& graph,
    const obs::SlowQueryLog* log) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> g,
                        catalog.GetGraph(graph));
  const obs::SlowQueryLog& source =
      log != nullptr ? *log : obs::GlobalSlowQueryLog();
  return obs::FilterByGraphToken(source.Snapshot(), g->identity_token());
}

Result<std::vector<obs::QueryStatEntry>> GraphTableQueryStats(
    const Catalog& catalog, const std::string& graph,
    const obs::QueryStatsStore* store) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> g,
                        catalog.GetGraph(graph));
  const obs::QueryStatsStore& source =
      store != nullptr ? *store : obs::GlobalQueryStats();
  return obs::FilterByGraphToken(source.Snapshot(), g->identity_token());
}

Result<GraphTableQuery> ParseGraphTableCall(const std::string& sql) {
  // Lightweight surface parser over GPML tokens: GRAPH_TABLE ( <name> ,
  // MATCH <pattern...> COLUMNS ( <items> ) ), any case. COLUMNS is the
  // keyword only directly inside GRAPH_TABLE's parentheses and before '(':
  // never in a string literal, nor a property or variable name.
  GPML_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  auto is = [&](size_t i, TokenKind kind, const char* keyword = nullptr) {
    return i < tokens.size() && tokens[i].kind == kind &&
           (keyword == nullptr || EqualsIgnoreCase(tokens[i].text, keyword));
  };
  size_t open = 0;
  while (open < tokens.size() &&
         !(is(open, TokenKind::kIdent, "GRAPH_TABLE") &&
           is(open + 1, TokenKind::kLParen))) {
    ++open;
  }
  if (++open >= tokens.size()) {
    return Status::SyntaxError("expected GRAPH_TABLE(...)");
  }
  size_t comma = open + 1;
  while (comma < tokens.size() && !is(comma, TokenKind::kComma)) ++comma;
  if (comma == tokens.size()) {
    return Status::SyntaxError("expected graph name argument");
  }
  GraphTableQuery q;
  if (comma > open + 1) {
    const size_t from = tokens[open + 1].offset;
    q.graph = sql.substr(from, tokens[comma - 1].end() - from);
  }
  // The COLUMNS keyword, then the closing parenthesis of its list.
  size_t columns_kw = comma + 1;
  for (int depth = 0; columns_kw < tokens.size(); ++columns_kw) {
    if (depth == 0 && is(columns_kw, TokenKind::kIdent, "COLUMNS") &&
        is(columns_kw + 1, TokenKind::kLParen)) {
      break;
    }
    if (is(columns_kw, TokenKind::kLParen)) ++depth;
    if (is(columns_kw, TokenKind::kRParen)) --depth;
  }
  if (columns_kw == tokens.size()) {
    return Status::SyntaxError("expected COLUMNS clause");
  }
  q.match = sql.substr(tokens[comma].end(),
                       tokens[columns_kw].offset - tokens[comma].end());
  const Token& cols_open = tokens[columns_kw + 1];
  size_t close = columns_kw + 2;
  for (int depth = 1; close < tokens.size(); ++close) {
    if (is(close, TokenKind::kLParen)) ++depth;
    if (is(close, TokenKind::kRParen) && --depth == 0) break;
  }
  if (close == tokens.size()) {
    return Status::SyntaxError("unbalanced COLUMNS list");
  }
  q.columns = sql.substr(cols_open.end(),
                         tokens[close].offset - cols_open.end());
  return q;
}

}  // namespace gpml
