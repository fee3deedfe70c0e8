#ifndef GPML_PLANNER_EXPLAIN_H_
#define GPML_PLANNER_EXPLAIN_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "catalog/table.h"
#include "common/result.h"
#include "planner/planner.h"

namespace gpml {
namespace planner {

/// Execution-level facts rendered into EXPLAIN alongside the plan: the
/// resolved worker count and whether the plan was served from the graph's
/// plan cache. EXPLAIN ANALYZE executions additionally report the result
/// row count and whether the output was truncated by an evaluation budget.
struct ExplainExec {
  size_t threads = 1;
  bool cached = false;
  bool analyzed = false;  // True for EXPLAIN ANALYZE: rows/truncated valid.
  size_t rows = 0;        // Result rows after join, mode filter, postfilter.
  bool truncated = false; // Budget-truncated output (not a clean LIMIT stop).
  // Wall-clock actuals (EXPLAIN ANALYZE; monotonic clock): rendered as
  // `ms=`/`plan_ms=` on the exec line when >= 0 and parsed back by
  // ParseExplain. plan_ms is the compile cost this execution paid — 0.000
  // on a plan-cache hit.
  double total_ms = -1;
  double plan_ms = -1;
};

/// Per-declaration run-time actuals of one EXPLAIN ANALYZE execution, in
/// plan (step) order — the measured counterparts of the step estimates.
struct DeclActual {
  size_t seeds = 0;            // Start nodes actually seeded.
  size_t steps = 0;            // Matcher instructions executed.
  size_t bindings = 0;         // Match-set size before the join.
  bool index_seeded = false;   // Seeded from the equality hash index.
  bool seed_filtered = false;  // Seeded from earlier declarations' bindings.
  bool target_filtered = false;  // End nodes restricted to earlier
                                 // declarations' bindings.
  size_t targets = 0;          // Distinct end nodes allowed (when filtered).
  std::string route;           // The matcher route that ran
                               // (MatchRouteName); rendered when non-empty.
  size_t arena_records = 0;    // MatchStats::arena_records (actual_arena=).
  double ms = -1;              // Declaration wall clock (seed + match);
                               // rendered as actual_ms= when >= 0.
};

/// Renders a plan as stable, line-oriented text, one `step` line per
/// declaration in execution order:
///
///   plan: 2 declaration(s)
///   exec: threads=4 cached=true
///   step 1: decl=0 dir=forward anchor=left var=x seeds~2 source=label:Account
///       fanout~1.5 join=[] selector=none
///   step 2: decl=1 dir=reversed anchor=right var=y seeds~3 source=bound:y
///       fanout~2 join=[x,y] selector=ALL SHORTEST
///
/// (each step is a single line; wrapped here for readability). The `exec:`
/// line appears when `exec` is non-null. When `stats` is non-null a
/// `-- graph stats --` section is appended. The format is parsed back by
/// ParseExplain, which keeps renderer and parser honest. Free-form values
/// (variable names, labels, selectors) are escaped with EscapeExplainValue
/// so quotes, spaces, and newlines cannot break the line framing.
/// A step whose far endpoint is bound by earlier steps carries
/// `target=bound:<var>` after `join=`: its accepts are restricted to those
/// end nodes.
/// `actuals`, when non-null (EXPLAIN ANALYZE), appends measured
/// `actual_seeds/actual_steps/actual_rows/actual_ms/actual_source` tokens
/// to each step line, where actual_source is `index`, `bound` or `scan`,
/// plus `actual_targets=<n>` (distinct end nodes allowed) on a
/// target-restricted step, `actual_route=witness|bfs|dfs|batch`, the
/// matcher route the declaration ran on, and `actual_arena=<n>`, the most
/// search records its matcher arena held at once.
/// `warnings`, when non-null and non-empty, renders the static analyzer's
/// findings (docs/analysis.md) between the exec line and the steps:
///
///   warnings: 2
///   warning 1: code=GPML-W101 severity=warning begin=24 end=41
///       hint=<escaped> message=<escaped, extends to end of line>
///
/// (each warning is a single line). Message and hint text are escaped with
/// EscapeExplainValue — message with keep_spaces, as the final token — so
/// ParseExplain recovers them byte-exactly.
std::string ExplainPlan(const Plan& plan, const VarTable& vars,
                        const GraphStats* stats = nullptr,
                        const ExplainExec* exec = nullptr,
                        const std::vector<DeclActual>* actuals = nullptr,
                        const analysis::DiagnosticList* warnings = nullptr);

/// Escapes a free-form value for embedding as a space-delimited `key=value`
/// token of an EXPLAIN line: backslash, newline, carriage return, space and
/// comma become \\ \n \r \s \c. With `keep_spaces` (the final token of a
/// line, which extends to end of line) spaces stay literal. Unescape inverts
/// exactly; unknown escapes and a trailing backslash are kept literally.
std::string EscapeExplainValue(const std::string& value,
                               bool keep_spaces = false);
std::string UnescapeExplainValue(const std::string& value);

/// A step line of an EXPLAIN rendering, decoded.
struct ExplainedDecl {
  int step = -1;        // 1-based execution position.
  int decl_index = -1;  // Source declaration index.
  bool reversed = false;
  std::string anchor;   // "left" or "right".
  std::string var;      // Anchor variable name; "_" when none.
  double seeds = 0;     // Estimated enumerated seeds; -1 ("*") for bound
                        // steps, whose seed count is a run-time join size.
  double selectivity = -1;  // `sel~` estimate; -1 when the line carried none.
  std::string source;   // "all", "label:<L>", or "bound:<var>".
  std::vector<std::string> join_vars;
  std::string target;   // "bound:<var>"; "" when the line carried none.
  std::string selector;
  // EXPLAIN ANALYZE actuals; -1 when the line carried none.
  long actual_seeds = -1;
  long actual_steps = -1;
  long actual_rows = -1;
  double actual_ms = -1;      // Wall-clock ms of this declaration.
  std::string actual_source;  // "index", "bound", "scan"; "" when absent.
  long actual_targets = -1;   // Distinct end nodes allowed; -1 when absent.
  std::string actual_route;   // "witness", "bfs", "dfs", "batch"; "" when
                              // absent.
  long actual_arena = -1;     // Peak matcher arena records.
};

/// A warning line of an EXPLAIN rendering, decoded. Mirrors
/// analysis::Diagnostic with the severity as its rendered name.
struct ExplainedWarning {
  std::string code;      // e.g. "GPML-W101".
  std::string severity;  // "error" / "warning" / "note".
  size_t begin = 0;      // Source byte range; begin==end when unknown.
  size_t end = 0;
  std::string message;   // Unescaped.
  std::string hint;      // Unescaped; empty when the line carried none.
};

struct ExplainedPlan {
  bool has_exec = false;   // An `exec:` line was present.
  size_t threads = 0;      // From the exec line; 0 when absent.
  bool cached = false;     // From the exec line; false when absent.
  bool analyzed = false;   // The exec line carried ANALYZE actuals.
  size_t rows = 0;         // From the exec line; 0 when absent.
  bool truncated = false;  // From the exec line; false when absent.
  double total_ms = -1;    // `ms=` on the exec line; -1 when absent.
  double plan_ms = -1;     // `plan_ms=` on the exec line; -1 when absent.
  std::vector<ExplainedDecl> decls;
  std::vector<ExplainedWarning> warnings;  // From the `warnings:` section.
};

/// Parses ExplainPlan output back into its decisions (roundtrip tests,
/// tooling). Ignores the optional stats section.
Result<ExplainedPlan> ParseExplain(const std::string& text);

/// Renders a plan text as a one-column table ("plan", one row per line) —
/// the shape both hosts return for EXPLAIN statements.
Table ExplainTable(const std::string& text);

/// If `statement` starts with the EXPLAIN keyword (case-insensitive, after
/// whitespace), strips it into `*rest` and returns true.
bool StripExplainPrefix(const std::string& statement, std::string* rest);

/// If `statement` starts with the ANALYZE keyword (case-insensitive, after
/// whitespace), strips it into `*rest` and returns true. Both hosts apply
/// this after StripExplainPrefix to recognize EXPLAIN ANALYZE.
bool StripAnalyzePrefix(const std::string& statement, std::string* rest);

}  // namespace planner
}  // namespace gpml

#endif  // GPML_PLANNER_EXPLAIN_H_
