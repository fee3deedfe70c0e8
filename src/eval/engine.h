#ifndef GPML_EVAL_ENGINE_H_
#define GPML_EVAL_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "ast/ast.h"
#include "common/result.h"
#include "eval/binding.h"
#include "eval/expr_eval.h"
#include "eval/matcher.h"
#include "eval/params.h"
#include "graph/property_graph.h"
#include "obs/clock.h"
#include "obs/execution_record.h"
#include "obs/query_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "planner/explain.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "semantics/analyze.h"

namespace gpml {

/// Execution counters of one execution (a Cursor, whether pulled row by
/// row or drained by Engine::Match / PreparedQuery::Execute), aggregated
/// over all path declarations. Filled when EngineOptions::metrics points
/// here; the benchmarks read their exact counters from it.
///
/// A view of the execution's obs::ExecutionRecord, copied out of it when
/// the execution publishes (and after every fill of the cursor's rows).
/// Deliberately plain scalar fields (the benchmarks depend on the struct
/// staying POD): worker shards count into shard-local MatchStats, merged
/// into the record once per declaration after all shards have joined — so
/// a num_threads > 1 run never races on these fields. The cursor updates
/// the struct between pulls (single-threaded caller context).
///
/// Reset-on-execute: every execution zeroes the struct when its cursor
/// opens, so the fields always describe the latest execution — they grow
/// as rows are pulled and are final when the stream ends
/// (docs/observability.md).
struct EngineMetrics {
  size_t decls = 0;                // Path declarations executed.
  size_t seeded_nodes = 0;         // Start nodes seeded, summed over decls.
  size_t matcher_steps = 0;        // Matcher instructions executed.
  size_t reversed_decls = 0;       // Declarations run against the mirrored
                                   // pattern (right-end anchor).
  size_t seed_filtered_decls = 0;  // Declarations seeded from the bindings
                                   // of earlier declarations.
  size_t target_filtered_decls = 0;  // Declarations whose accepts were
                                   // restricted to end nodes bound by
                                   // earlier declarations.
  size_t witness_decls = 0;        // Declarations run on the matcher's
                                   // witness route (exact-key ANY / ANY
                                   // SHORTEST; docs/planner.md).
  size_t threads = 0;              // Resolved worker count of this call.
  size_t plan_cache_hits = 0;      // 1 when the compiled plan came from the
                                   // graph's plan cache, else 0.
  size_t plan_cache_misses = 0;    // 1 on a fresh compile, else 0.
  size_t index_seeded_decls = 0;   // Declarations seeded from the equality
                                   // (label, prop) = value hash index.
  size_t rows = 0;                 // Result rows emitted so far (post mode
                                   // filter and postfilter; LIMIT-capped).
  size_t budget_truncated = 0;     // 1 when the output was cut short by an
                                   // evaluation budget (BudgetPolicy::
                                   // kTruncate) — distinct from a LIMIT stop.
  size_t batch_blocks = 0;         // Frontier blocks the batch matcher
                                   // expanded (0 = scalar route throughout).
  size_t batch_candidates = 0;     // Adjacency candidates gathered.
  size_t batch_survivors = 0;      // Candidates surviving all filter passes.
  size_t arena_records = 0;        // Most search records one matcher arena
                                   // held at once, over the declarations
                                   // (and chunks; MatchStats::arena_records).
  // Wall-clock stage totals in milliseconds (monotonic clock), the same
  // measurements the trace spans carry (docs/observability.md):
  double plan_ms = 0;              // Parse plus compile cost this execution
                                   // paid; the compile half is 0 on a plan-
                                   // cache hit (a past execution paid it).
  double seed_ms = 0;              // Seed-list derivation, over all decls.
  double exec_ms = 0;              // Pattern matching (RunPattern wall),
                                   // over all decls and seed chunks.
};

struct EngineOptions {
  MatcherOptions matcher;
  size_t max_rows = 1u << 20;  // Join-output guard.
  /// Seed-partitioned parallel matching: per-declaration seed lists are
  /// sharded over this many worker threads and the per-shard match sets are
  /// merged in seed-index order, so results are byte-identical to the
  /// sequential run (see docs/parallel.md). 0 resolves to
  /// std::thread::hardware_concurrency(); 1 runs the exact sequential
  /// engine. Overrides MatcherOptions::num_threads.
  size_t num_threads = 0;
  /// What happens when an evaluation budget (MatcherOptions::max_steps /
  /// max_matches, EngineOptions::max_rows) trips. kError (the historical
  /// behavior) fails the call with kResourceExhausted and no rows. kTruncate
  /// delivers the rows found so far with MatchOutput::truncated (or
  /// Cursor::truncated()) set and EngineMetrics::budget_truncated = 1 —
  /// never silently: a capped result is always either an error or a
  /// flagged partial. Under kTruncate the matcher runs each declaration on
  /// one thread, so truncated rows are exactly the sequential engine's;
  /// full results are unaffected.
  enum class BudgetPolicy { kError, kTruncate };
  BudgetPolicy on_budget = BudgetPolicy::kError;
  /// When non-null, reset and filled on every execution.
  EngineMetrics* metrics = nullptr;
  /// When non-null, cleared and refilled with this execution's span tree:
  /// parse/plan (replayed from the plan-cache entry's stored compile
  /// costs), per-declaration seed and worker-shard spans, join, and the
  /// final filter (docs/observability.md lists the taxonomy). Not
  /// thread-safe — one trace per concurrently executing call.
  obs::Trace* trace = nullptr;
  /// When non-null, every completed execution's trace is emitted here as
  /// JSON lines (rendered from the execution record even when `trace` is
  /// null; with neither set, and no slow capture firing, no trace is built).
  /// Sinks must be thread-safe: the engine emits from whichever thread
  /// runs the execution.
  obs::TraceSink* trace_sink = nullptr;
  /// Publish per-execution counters and stage-latency histograms into the
  /// graph's registry (PropertyGraph::metrics_registry) — shared across
  /// engines and hosts over the same graph, exported by
  /// obs::RenderPrometheus. Lock-free increments, on by default; off only
  /// for overhead measurement (bench/bench_obs.cc).
  bool publish_metrics = true;
  /// Executions slower than this wall-clock threshold (ms) are captured —
  /// parameterized fingerprint, EXPLAIN ANALYZE text, trace JSON — into
  /// `slow_log`, or the process-wide obs::GlobalSlowQueryLog() when that
  /// is null. Negative disables slow-query capture. Every execution is
  /// measured from cursor open to the end of its stream and captured then;
  /// abandoned cursors are never captured.
  double slow_query_ms = 1000.0;
  obs::SlowQueryLog* slow_log = nullptr;
  /// Fold every completed execution — success, error, or truncation — into
  /// the per-fingerprint workload statistics store (obs/query_stats.h):
  /// cumulative calls/rows/steps, a log2 latency histogram, and the plan
  /// ring that detects replans. One short mutexed update per completion,
  /// which bench_obs pins. Off only for overhead measurement.
  bool publish_query_stats = true;
  /// The store to record into; null uses obs::GlobalQueryStats(). The
  /// server passes its own store only in tests — production shares the
  /// global one so /query_stats sees every graph.
  obs::QueryStatsStore* query_stats = nullptr;
  /// Workload attribution, stamped into query-stats entries, slow-query
  /// records, and the execution trace root. The server sets these per
  /// request; in-process hosts leave them empty.
  std::string tenant;
  std::string trace_id;  // Client-supplied correlation id.
};

/// One solution of a graph pattern: a path binding per path declaration
/// (§6.5 "Multiple patterns"), sharing singleton variables.
struct ResultRow {
  std::vector<std::shared_ptr<const PathBinding>> bindings;
};

/// The output of pattern matching, self-contained: rows plus the compiled
/// context needed to interpret them (variable table, normalized pattern with
/// the expressions the rows may be projected through, per-declaration path
/// variables, and the $parameter bindings of this execution).
struct MatchOutput {
  std::vector<ResultRow> rows;
  std::shared_ptr<const VarTable> vars;
  GraphPattern normalized;        // Keeps pattern ASTs alive.
  std::vector<int> path_vars;     // Per declaration; -1 when absent.
  /// The $name bindings this output was produced under (RETURN/COLUMNS
  /// expressions may reference them); nullptr for parameter-free queries.
  std::shared_ptr<const Params> params;
  /// True when rows is an incomplete prefix because an evaluation budget
  /// tripped under BudgetPolicy::kTruncate (never set by a clean LIMIT).
  bool truncated = false;

  size_t size() const { return rows.size(); }
};

/// Expression scope over one result row: singleton lookups see the last
/// binding of a variable, group collections span the whole row, path
/// variables resolve to their declaration's matched path, $parameters to
/// the execution's bindings. Used for the final WHERE postfilter and by
/// both hosts for projection.
class RowScope : public EvalScope {
 public:
  RowScope(const MatchOutput& output, const ResultRow& row)
      : output_(output), row_(row) {}

  std::optional<ElementRef> LookupSingleton(int var) const override;
  std::vector<ElementRef> CollectGroup(int var) const override;
  const Path* LookupPath(int var) const override;
  const Value* LookupParam(const std::string& name) const override {
    return FindParam(output_.params.get(), name);
  }

 private:
  const MatchOutput& output_;
  const ResultRow& row_;
};

class Cursor;
class Engine;

/// Span-level detail of one declaration, beyond what the record sums up
/// (a chunked declaration accumulates its chunks). Times are offsets from
/// the execution's start.
struct DeclRun {
  planner::DeclActual actual;
  int decl_index = 0;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  double seed_ms = 0;
  std::vector<double> shard_ms;
  bool joined = false;  // Every declaration after the first joins.
  uint64_t join_start_us = 0;
  uint64_t join_us = 0;
};

/// Span-level detail of one execution, kept by a cursor only when a trace
/// or EXPLAIN ANALYZE may read it.
struct ExecDetail {
  uint64_t epoch_us = 0;  // MonotonicMicros when the cursor opened.
  std::vector<DeclRun> decls;  // Plan order.
  std::optional<uint64_t> filter_start_us;  // The first per-row tail.

  uint64_t NowUs() const { return obs::MonotonicMicros() - epoch_us; }
  std::vector<planner::DeclActual> Actuals() const {
    std::vector<planner::DeclActual> out;
    out.reserve(decls.size());
    for (const DeclRun& run : decls) out.push_back(run.actual);
    return out;
  }
};

/// A non-owning view of one streamed result row: the row itself plus the
/// compiled context needed to interpret it (`context->rows` stays empty —
/// RowScope{*view.context, *view.row} evaluates expressions against it).
/// Valid until the next Cursor::Next call.
struct RowView {
  const ResultRow* row = nullptr;
  const MatchOutput* context = nullptr;
};

/// A parsed, analyzed, planned, and compiled graph-pattern query with
/// $name parameter placeholders — the prepare-once/bind-per-call half of
/// the execution API (docs/api.md). Obtained from Engine::Prepare; cheap to
/// copy (the compiled plan is shared, and on the graph's plan cache also
/// shared with every other engine/host preparing the same pattern text).
/// The graph must outlive the prepared query; hosts keep the catalog's
/// shared_ptr alongside.
class PreparedQuery {
 public:
  /// The $parameters the pattern references, with inferred constraints;
  /// Execute/Open validate bindings against this before running.
  const ParamSignature& signature() const { return signature_; }

  /// True when Prepare served the compiled plan from the graph's plan
  /// cache instead of compiling fresh.
  bool from_cache() const { return cache_hit_; }

  /// The static analyzer's findings for this query (warnings and notes —
  /// errors failed Prepare). Empty when the query is clean. Carried
  /// through plan-cache hits.
  const analysis::DiagnosticList& diagnostics() const {
    return plan_->diagnostics;
  }

  /// True when the analyzer proved the pattern can never match: Execute and
  /// Open return no rows without seeding or matching (docs/analysis.md).
  bool always_empty() const { return plan_->always_empty; }

  /// Wall-clock cost of the static analysis pass paid when this plan was
  /// compiled (a cache hit reports the cost the original compile paid).
  /// Benchmarked by bench_query_api.
  double analysis_ms() const { return plan_->analysis_ms; }

  /// Extends the bindable signature with parameters referenced by host
  /// statement positions outside the pattern (GQL RETURN items, SQL/PGQ
  /// COLUMNS items), so Execute/Open accept their bindings and the
  /// projection scope can resolve them.
  void ExtendSignature(const ParamSignature& extra) {
    signature_.Merge(extra);
  }

  /// A copy of this prepared query that executes under different engine
  /// options — same graph, same shared compiled plan, nothing recompiled.
  /// The server layer (src/server/) uses this to attach a per-execution
  /// metrics sink and to tighten the matcher's step/match caps to a
  /// tenant's admission quota (each execution's SharedBudget is built
  /// from those caps) without paying Prepare again or mutating the
  /// statement other executions share.
  PreparedQuery WithOptions(EngineOptions options) const {
    PreparedQuery copy(*this);
    copy.options_ = options;
    return copy;
  }

  /// Materializing execution: Open + Drain. Row-identical to Engine::Match
  /// on the same pattern with the bound values written as literals
  /// (prepared-vs-literal differential tests assert this).
  Result<MatchOutput> Execute(const Params& params = {}) const;

  /// Streaming execution: rows are pulled through the returned cursor and
  /// are byte-identical to Execute's row sequence (a prefix of it under
  /// `limit`). Single fixed-length declarations stream incrementally out of
  /// the matcher in seed-order chunks, so the first row does not pay for
  /// full materialization; other shapes run every declaration on the first
  /// pull and stream the filter/delivery stages.
  Result<Cursor> Open(const Params& params = {}) const;
  Result<Cursor> Open(const Params& params,
                      std::optional<uint64_t> limit) const;

  /// The plan rendering of this prepared query (EXPLAIN format).
  Result<std::string> Explain() const;

 private:
  friend class Engine;
  PreparedQuery(const PropertyGraph& graph, EngineOptions options,
                std::shared_ptr<const planner::CachedPlan> plan,
                ParamSignature signature, bool cache_hit);

  const PropertyGraph* graph_;
  EngineOptions options_;
  std::shared_ptr<const planner::CachedPlan> plan_;
  ParamSignature signature_;
  bool cache_hit_;
  /// Wall clock of parsing the pattern text; 0 when prepared from an
  /// already-parsed pattern. Replayed into each execution's trace.
  double parse_ms_ = 0;
};

/// A pull-based result stream (docs/api.md): repeatedly call Next until it
/// returns false, or range-for over the cursor (iteration stops on error
/// or end of stream; check status() afterwards to distinguish). Rows are
/// byte-identical to the materializing execution's row sequence; `limit`
/// (from PreparedQuery::Open or a RETURN ... LIMIT clause) ends the stream
/// after that many rows, stopping matching early.
///
/// The cursor is the engine's only executor: Engine::Match,
/// PreparedQuery::Execute and EXPLAIN ANALYZE drain one. It owns the
/// execution's obs::ExecutionRecord and publishes it once, when the stream
/// ends — end of rows, the `limit`-th row, flagged truncation or an error
/// (docs/observability.md). Abandoning a cursor mid-stream is safe, leaks
/// nothing and publishes nothing: the step/match budget is owned by the
/// cursor and dies with it.
class Cursor {
 public:
  Cursor(Cursor&&) noexcept;
  Cursor& operator=(Cursor&&) noexcept;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;
  ~Cursor();

  /// Advances to the next row. Returns false at end of stream (clean
  /// completion, LIMIT, or flagged truncation); errors are sticky.
  Result<bool> Next(RowView* view);

  /// The compiled context rows are interpreted through (vars, normalized
  /// pattern, path variables, parameter bindings; rows stays empty).
  const MatchOutput& context() const { return context_; }

  /// Rows delivered so far.
  size_t rows_emitted() const { return emitted_; }

  /// True when the stream was cut short by an evaluation budget under
  /// BudgetPolicy::kTruncate — distinct from hit_limit().
  bool truncated() const { return truncated_; }

  /// True when the stream stopped because `limit` rows were delivered.
  bool hit_limit() const { return hit_limit_; }

  /// The sticky error that terminated the stream, or OK.
  const Status& status() const { return status_; }

  /// Moves the remaining rows into a MatchOutput (the Engine::Match shape)
  /// and ends the stream; propagates stream errors. Without a limit the
  /// remaining seeds run as one chunk, so draining a fresh cursor makes one
  /// RunPattern call per declaration.
  Result<MatchOutput> Drain();

  /// Input-iterator support for range-for. Iteration ends at end of stream
  /// or on error; check status() after the loop.
  class iterator {
   public:
    iterator() = default;
    explicit iterator(Cursor* c) : cursor_(c) { Advance(); }
    const RowView& operator*() const { return view_; }
    const RowView* operator->() const { return &view_; }
    iterator& operator++() {
      Advance();
      return *this;
    }
    bool operator==(const iterator& o) const { return cursor_ == o.cursor_; }
    bool operator!=(const iterator& o) const { return cursor_ != o.cursor_; }

   private:
    void Advance() {
      if (cursor_ == nullptr) return;
      Result<bool> more = cursor_->Next(&view_);
      if (!more.ok() || !*more) cursor_ = nullptr;
    }
    Cursor* cursor_ = nullptr;
    RowView view_;
  };
  iterator begin() { return iterator(this); }
  iterator end() { return iterator(); }

 private:
  friend class Engine;
  friend class PreparedQuery;

  Cursor(const PropertyGraph& graph, EngineOptions options,
         std::shared_ptr<const planner::CachedPlan> plan,
         std::shared_ptr<const Params> params, bool cache_hit,
         std::optional<uint64_t> limit, double parse_ms);

  /// The per-declaration step, part one: picks plan declaration
  /// `plan_pos`'s seed source (the nodes earlier declarations bound in
  /// `rows`, else the equality index, else the label scan) and target
  /// restriction, and counts those decisions into the record.
  void BeginDecl(size_t plan_pos, const std::vector<ResultRow>& rows);
  /// The per-declaration step, part two: one RunPattern call of the begun
  /// declaration over `chunk` (a slice of its seed list, charged to the
  /// declaration's shared budget) or, when null, over its whole seed
  /// source. Adds the run's work to the record and the detail and returns
  /// the bindings in source orientation.
  Result<std::vector<std::shared_ptr<const PathBinding>>> RunDecl(
      const IdSpan* chunk);
  /// The general shape: every declaration through the step in plan order,
  /// joined on shared singletons, bindings restored to source order.
  Result<std::vector<ResultRow>> JoinDecls();
  /// Stages the next rows: the next seed chunk of a chunked declaration
  /// (all remaining seeds when `drain`), else every declaration joined in
  /// plan order; then the per-row tail (match mode, final WHERE).
  Status Fill(bool drain);
  /// True when a staged row is ready; false once the stream has ended.
  /// Fills as needed and ends the stream on exhaustion, LIMIT or error.
  Result<bool> Ready(bool drain);
  /// Counts `n` delivered rows; ends the stream when they reach `limit`.
  void Emitted(size_t n);
  /// Ends the stream once `limit` rows were delivered.
  void StopAtLimit();
  /// Ends the stream and publishes its record (docs/observability.md):
  /// the only Publish call, once per execution. A cursor abandoned before
  /// its stream ends never gets here and publishes nothing.
  void Finish(bool error);
  /// Copies the record into EngineOptions::metrics (rows = emitted so far).
  void SyncMetrics();

  const PropertyGraph* graph_;
  EngineOptions options_;
  std::shared_ptr<const planner::CachedPlan> plan_;

  MatchOutput context_;  // rows empty; carries vars/normalized/params.
  std::optional<uint64_t> limit_;
  size_t emitted_ = 0;
  bool exhausted_ = false;  // No matcher work left: staged rows are all.
  bool done_ = false;       // The stream ended and published.
  bool truncated_ = false;
  bool hit_limit_ = false;
  Status status_;
  ResultRow current_;  // Keeps the last-delivered row alive for RowView.

  // Rows that survived the per-row tail, not yet delivered.
  std::vector<ResultRow> staged_;
  size_t staged_pos_ = 0;

  // The declaration the step is running (plan order) and its sources.
  size_t decl_pos_ = 0;
  bool bound_seeded_ = false;     // Seeds are bound_seeds_ ...
  std::vector<NodeId> bound_seeds_;
  std::optional<IdSpan> index_seeds_;  // ... else these, else the label
                                       // scan.
  bool target_filtered_ = false;  // Accepts restricted to targets_.
  std::vector<NodeId> targets_;
  size_t decl_runs_ = 0;          // RunDecl calls of this declaration.

  // A single fixed-length declaration runs in seed-order chunks that grow
  // geometrically; its seed list and budget are made at the first chunk.
  bool chunked_ = false;
  std::optional<std::vector<NodeId>> seeds_;
  size_t seed_pos_ = 0;
  size_t chunk_size_ = 0;
  std::unique_ptr<SharedBudget> budget_;  // One budget across all chunks.

  uint64_t open_us_ = 0;  // Monotonic time of construction.
  obs::ExecutionRecord record_;  // The execution's only running totals.
  std::optional<ExecDetail> detail_;  // Empty unless a trace may render.
};

/// The GPML processor of Figure 9: evaluates graph patterns over one
/// property graph. Both hosts (SQL/PGQ's GRAPH_TABLE and GQL sessions)
/// delegate here; the pre-projection semantics is identical in both, as the
/// paper requires.
///
/// The primary execution API is Prepare (once) + PreparedQuery::Execute /
/// Open (per parameter binding); Match is the one-shot wrapper — prepare,
/// bind nothing, drain. Every execution runs through the Cursor; the
/// semantic oracle it is tested against is RunReferencePattern
/// (eval/reference_eval.h), the literal §6.5 join.
class Engine {
 public:
  explicit Engine(const PropertyGraph& graph, EngineOptions options = {})
      : graph_(graph), options_(options) {}

  /// Prepares a query for repeated execution: parse (text form), normalize
  /// (§6.2), analyze (§4.4/§4.6/§4.7), termination-check (§5), plan,
  /// compile, and collect the $parameter signature — served from the
  /// graph's plan cache when an execution of the same parameterized text
  /// already paid for compilation.
  Result<PreparedQuery> Prepare(const std::string& match_text) const;
  Result<PreparedQuery> Prepare(const GraphPattern& pattern) const;

  /// Full pipeline from MATCH text: prepare, bind no parameters, match,
  /// join declarations on shared singletons, apply the final WHERE.
  /// Parameterized patterns fail here with a missing-parameter error; use
  /// Prepare + Execute to bind values.
  Result<MatchOutput> Match(const std::string& match_text) const;

  /// Same, starting from a parsed (unnormalized) pattern.
  Result<MatchOutput> Match(const GraphPattern& pattern) const;

  /// The execution plan the engine would use for this pattern: normalize,
  /// analyze, then run the statistics-driven planner.
  Result<planner::Plan> Plan(const GraphPattern& pattern) const;

  /// Human-readable EXPLAIN of the plan (see planner/explain.h for the
  /// format); both hosts surface this for EXPLAIN statements.
  Result<std::string> Explain(const std::string& match_text) const;
  Result<std::string> Explain(const GraphPattern& pattern) const;

  /// EXPLAIN ANALYZE: executes the pattern (with the given $parameter
  /// bindings) and renders the plan with per-declaration measured actuals —
  /// seeds, matcher steps, match-set sizes, index-vs-scan seeding — plus
  /// result rows, cache hit, and truncation on the exec line.
  Result<std::string> ExplainAnalyze(const std::string& match_text,
                                     const Params& params = {}) const;
  Result<std::string> ExplainAnalyze(const GraphPattern& pattern,
                                     const Params& params = {}) const;

  /// Runs the full diagnostic pipeline over query text without preparing a
  /// plan and without failing: parse errors surface as a single GPML-E001
  /// diagnostic, normalization/semantic/termination failures as GPML-E002
  /// (both carrying the error's byte offset when available), and otherwise
  /// the static analyzer's complete finding list — errors, warnings, and
  /// notes (docs/analysis.md). Render caret snippets with
  /// DiagnosticList::Render(match_text).
  analysis::DiagnosticList Lint(const std::string& match_text) const;

  const PropertyGraph& graph() const { return graph_; }
  const EngineOptions& options() const { return options_; }

  /// The worker count Match will actually use: options().num_threads, with
  /// 0 resolved to the hardware concurrency (at least 1).
  size_t ResolvedThreads() const;

 private:
  /// The shared front half of Prepare/Plan/Explain: normalize (§6.2),
  /// analyze (§4.4/§4.6/§4.7), termination-check (§5), intern variables.
  struct Analyzed {
    GraphPattern normalized;
    std::shared_ptr<const VarTable> vars;
    /// The semantic per-variable facts, kept for the static analyzer
    /// (which needs VarInfo, not the interned VarTable).
    Analysis analysis;
  };
  Result<Analyzed> AnalyzePattern(const GraphPattern& pattern) const;

  /// Lint without the final span clamp (Lint bounds every span to the
  /// linted text before returning).
  analysis::DiagnosticList LintImpl(const std::string& match_text) const;

  Result<planner::Plan> PlanNormalized(const GraphPattern& normalized,
                                       const VarTable& vars) const;

  /// The compiled plan for `pattern`: served from the graph's plan cache
  /// when enabled (`*cache_hit` reports which), computed-and-published
  /// otherwise. The entry is immutable and shared with the cache.
  Result<std::shared_ptr<const planner::CachedPlan>> PreparePlan(
      const GraphPattern& pattern, bool* cache_hit) const;

  /// Adds a prepare-time analysis's findings to the registry counter.
  void CountDiagnostics(const analysis::DiagnosticList& diags) const;

  const PropertyGraph& graph_;
  EngineOptions options_;
};

}  // namespace gpml

#endif  // GPML_EVAL_ENGINE_H_
