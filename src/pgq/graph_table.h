#ifndef GPML_PGQ_GRAPH_TABLE_H_
#define GPML_PGQ_GRAPH_TABLE_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/table.h"
#include "common/result.h"
#include "eval/engine.h"

namespace gpml {

/// SQL/PGQ's GRAPH_TABLE operator (Figure 9, left branch): runs a GPML
/// graph pattern against a graph in the catalog and projects the reduced
/// path bindings into a relational table through a COLUMNS list. In SQL
/// surface syntax this is
///
///   SELECT * FROM GRAPH_TABLE(g,
///     MATCH (x:Account)-[:isLocatedIn]->(c:City)
///     WHERE c.name = 'Ankh-Morpork'
///     COLUMNS (x.owner AS owner))
///
/// expressed here as a structured call; `match` carries the MATCH...WHERE
/// part and `columns` the COLUMNS list.
struct GraphTableQuery {
  std::string graph;
  std::string match;
  std::string columns;
  /// $name bindings for a parameterized `match` text. The SQL host's
  /// equivalent of a driver's bind step: the match text (with placeholders)
  /// is the plan-cache key, so calls differing only in bound values share
  /// one compiled plan.
  Params params;
  /// SQL's FETCH FIRST n ROWS ONLY: cap on projected rows, pushed into the
  /// streaming cursor so matching stops early. nullopt = unlimited.
  std::optional<uint64_t> limit;
};

/// Runs the query through the prepare-bind-cursor pipeline (docs/api.md):
/// the match text is prepared (or served from the graph's plan cache),
/// `query.params` is bound, and rows stream through a cursor into the
/// COLUMNS projection — `query.limit` never materializes more than needed.
/// When `query.match` starts with an EXPLAIN keyword ("EXPLAIN MATCH ...")
/// returns the planner's plan rendering as a one-column "plan" table
/// instead of executing (the COLUMNS list is ignored); EXPLAIN ANALYZE
/// executes the match with the bound parameters and renders measured
/// actuals. `options` plumbs the engine knobs through the SQL host —
/// notably num_threads (seed-partitioned parallelism). Compiled plans are
/// cached on the catalog graph, keyed on its identity, so repeated
/// GRAPH_TABLE calls (and GQL statements) over the same graph share them.
Result<Table> GraphTable(const Catalog& catalog, const GraphTableQuery& query,
                         EngineOptions options = {});

/// Parses the SQL surface form "GRAPH_TABLE(<graph>, MATCH ... COLUMNS
/// (...))" into a GraphTableQuery — enough SQL syntax to run the paper's
/// examples verbatim.
Result<GraphTableQuery> ParseGraphTableCall(const std::string& sql);

/// Prometheus text-format rendering of the catalog graph's metrics
/// registry (docs/observability.md) — the SQL host's counterpart of
/// gql::Session::MetricsText, covering every GRAPH_TABLE call (and GQL
/// statement) executed against that graph.
Result<std::string> GraphTableMetricsText(const Catalog& catalog,
                                          const std::string& graph);

/// Static analysis of a GRAPH_TABLE call without executing it: the query's
/// MATCH text is linted against the named catalog graph's schema and the
/// engine's full diagnostic list — errors, warnings, and notes
/// (docs/analysis.md) — is returned. The SQL host's counterpart of
/// gql::Session::Lint: a bad match text never fails the call, it comes
/// back as GPML-E001/E002 diagnostics. Error only when the graph is
/// unknown.
Result<analysis::DiagnosticList> GraphTableLint(const Catalog& catalog,
                                               const GraphTableQuery& query,
                                               EngineOptions options = {});

/// The slow-query captures belonging to the catalog graph, oldest first.
/// `log` selects the slow log the executions wrote to
/// (EngineOptions::slow_log); null reads the process-wide
/// obs::GlobalSlowQueryLog().
Result<std::vector<obs::SlowQueryRecord>> GraphTableSlowQueries(
    const Catalog& catalog, const std::string& graph,
    const obs::SlowQueryLog* log = nullptr);

/// The per-fingerprint workload statistics belonging to the catalog graph,
/// most-recently-updated first — the SQL host's counterpart of
/// gql::Session::QueryStats. `store` selects the store the executions
/// recorded into (EngineOptions::query_stats); null reads the process-wide
/// obs::GlobalQueryStats(). Error only when the graph is unknown.
Result<std::vector<obs::QueryStatEntry>> GraphTableQueryStats(
    const Catalog& catalog, const std::string& graph,
    const obs::QueryStatsStore* store = nullptr);

}  // namespace gpml

#endif  // GPML_PGQ_GRAPH_TABLE_H_
