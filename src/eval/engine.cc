#include "eval/engine.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "ast/print.h"
#include "common/source.h"
#include "eval/nfa.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "planner/explain.h"
#include "planner/stats.h"
#include "semantics/normalize.h"
#include "semantics/termination.h"

namespace gpml {

std::optional<ElementRef> RowScope::LookupSingleton(int var) const {
  for (size_t i = row_.bindings.size(); i-- > 0;) {
    const ElementRef* el = row_.bindings[i]->LastOf(var);
    if (el != nullptr) return *el;
  }
  return std::nullopt;
}

std::vector<ElementRef> RowScope::CollectGroup(int var) const {
  std::vector<ElementRef> out;
  for (const auto& pb : row_.bindings) {
    std::vector<ElementRef> part = pb->ElementsOf(var);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

const Path* RowScope::LookupPath(int var) const {
  for (size_t i = 0; i < row_.bindings.size(); ++i) {
    if (i < output_.path_vars.size() && output_.path_vars[i] == var) {
      return &row_.bindings[i]->path;
    }
  }
  return nullptr;
}

namespace {

/// Joins the accumulated rows with the next declaration's bindings on the
/// given join variables (hash join; cross product when none). Exceeding
/// `max_rows` is an error under BudgetPolicy::kError; with `truncate` the
/// rows joined so far are returned and `*truncated` is set.
Result<std::vector<ResultRow>> JoinDecl(
    std::vector<ResultRow> rows,
    const std::vector<std::shared_ptr<const PathBinding>>& bindings,
    const std::vector<int>& join_vars, size_t max_rows, bool truncate,
    bool* truncated) {
  auto key_of_binding =
      [&](const PathBinding& pb) -> std::optional<std::vector<ElementRef>> {
    std::vector<ElementRef> key;
    key.reserve(join_vars.size());
    for (int v : join_vars) {
      const ElementRef* el = pb.LastOf(v);
      if (el == nullptr) return std::nullopt;
      key.push_back(*el);
    }
    return key;
  };
  auto hash_key = [](const std::vector<ElementRef>& key) {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const ElementRef& r : key) h = HashCombine(h, ElementRefHash()(r));
    return h;
  };

  // Index the new declaration's bindings by join key.
  std::unordered_map<size_t, std::vector<size_t>> index;
  std::vector<std::optional<std::vector<ElementRef>>> keys(bindings.size());
  for (size_t i = 0; i < bindings.size(); ++i) {
    keys[i] = key_of_binding(*bindings[i]);
    if (keys[i].has_value()) index[hash_key(*keys[i])].push_back(i);
  }

  std::vector<ResultRow> out;
  bool stop = false;
  for (ResultRow& row : rows) {
    if (stop) break;
    std::optional<std::vector<ElementRef>> row_key;
    if (!join_vars.empty()) {
      std::vector<ElementRef> key;
      key.reserve(join_vars.size());
      bool ok = true;
      for (int v : join_vars) {
        const ElementRef* el = nullptr;
        for (size_t i = row.bindings.size(); i-- > 0 && el == nullptr;) {
          el = row.bindings[i]->LastOf(v);
        }
        if (el == nullptr) {
          ok = false;
          break;
        }
        key.push_back(*el);
      }
      if (!ok) continue;
      row_key = std::move(key);
    }

    auto extend_with = [&](size_t i) -> Status {
      ResultRow nr = row;
      nr.bindings.push_back(bindings[i]);
      out.push_back(std::move(nr));
      if (out.size() > max_rows) {
        if (truncate) {
          out.pop_back();  // Keep exactly max_rows rows.
          *truncated = true;
          stop = true;
          return Status::OK();
        }
        return Status::ResourceExhausted(
            "joined result exceeded max_rows; refine the pattern or raise "
            "EngineOptions::max_rows");
      }
      return Status::OK();
    };

    if (!row_key.has_value()) {
      for (size_t i = 0; i < bindings.size() && !stop; ++i) {
        GPML_RETURN_IF_ERROR(extend_with(i));
      }
    } else {
      auto it = index.find(hash_key(*row_key));
      if (it == index.end()) continue;
      for (size_t i : it->second) {
        if (stop) break;
        if (*keys[i] == *row_key) {
          GPML_RETURN_IF_ERROR(extend_with(i));
        }
      }
    }
  }
  return out;
}

/// Match-mode admission of one joined row (§7.1 Language Opportunity):
/// DIFFERENT EDGES requires all matched edges across the whole graph
/// pattern to be pairwise distinct, DIFFERENT NODES likewise for nodes.
/// Distinctness is over logical bindings: all occurrences of one named
/// singleton variable are a single binding (equi-joins assert equality,
/// they must not self-collide), while group-variable iterations and
/// anonymous positions each count separately — so a walk reusing an edge
/// across quantifier iterations is rejected under DIFFERENT EDGES.
bool ModeAdmitsRow(const MatchOutput& ctx, const ResultRow& row) {
  if (ctx.normalized.mode == MatchMode::kRepeatableElements) return true;
  bool edges_only = ctx.normalized.mode == MatchMode::kDifferentEdges;
  std::unordered_set<uint32_t> seen;
  std::unordered_set<uint64_t> singleton_bindings;
  for (const auto& pb : row.bindings) {
    for (const ElementaryBinding& b : pb->reduced) {
      if (b.element.is_edge() != edges_only) continue;
      const VarInfo& vi = ctx.vars->info(b.var);
      if (!vi.group && !vi.anonymous) {
        uint64_t key =
            (static_cast<uint64_t>(b.var) << 32) | b.element.id;
        if (!singleton_bindings.insert(key).second) continue;
      }
      if (!seen.insert(b.element.id).second) return false;
    }
  }
  return true;
}

/// The shared per-row tail of every execution path: match-mode filter, then
/// the final WHERE postfilter of §5.2. Batch materialization and both
/// cursor modes run every row through this in the same order, which is what
/// keeps streamed rows byte-identical to Engine::Match.
Result<bool> RowSurvives(const MatchOutput& ctx, const PropertyGraph& g,
                         const ResultRow& row) {
  if (!ModeAdmitsRow(ctx, row)) return false;
  if (ctx.normalized.where != nullptr) {
    RowScope scope(ctx, row);
    GPML_ASSIGN_OR_RETURN(
        TriBool ok,
        EvalPredicate(*ctx.normalized.where, g, *ctx.vars, scope));
    if (ok != TriBool::kTrue) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Streaming eligibility: fixed-length patterns
// ---------------------------------------------------------------------------

std::optional<uint64_t> FixedPatternLength(const PathPattern& p);

/// The edge count every match of `e` must have, nullopt when it varies.
std::optional<uint64_t> FixedElementLength(const PathElement& e) {
  switch (e.kind) {
    case PathElement::Kind::kNode:
      return 0;
    case PathElement::Kind::kEdge:
      return 1;
    case PathElement::Kind::kParen:
      return FixedPatternLength(*e.sub);
    case PathElement::Kind::kQuantified: {
      if (!e.max.has_value() || *e.max != e.min) return std::nullopt;
      std::optional<uint64_t> sub = FixedPatternLength(*e.sub);
      if (!sub.has_value()) return std::nullopt;
      return e.min * *sub;
    }
    case PathElement::Kind::kOptional: {
      std::optional<uint64_t> sub = FixedPatternLength(*e.sub);
      if (sub.has_value() && *sub == 0) return 0;
      return std::nullopt;  // 0 or |sub| edges: varies.
    }
  }
  return std::nullopt;
}

/// The edge count every match of `p` must have, nullopt when it varies.
/// Matches of a fixed-length pattern all sort equal under the merge's
/// by-path-length order, so chunked seed-order generation reproduces the
/// full run's binding order exactly — the streaming cursor's eligibility
/// test (docs/api.md).
std::optional<uint64_t> FixedPatternLength(const PathPattern& p) {
  switch (p.kind) {
    case PathPattern::Kind::kConcat: {
      uint64_t total = 0;
      for (const PathElement& e : p.elements) {
        std::optional<uint64_t> len = FixedElementLength(e);
        if (!len.has_value()) return std::nullopt;
        total += *len;
      }
      return total;
    }
    case PathPattern::Kind::kUnion:
    case PathPattern::Kind::kAlternation: {
      std::optional<uint64_t> common;
      for (const PathPatternPtr& alt : p.alternatives) {
        std::optional<uint64_t> len = FixedPatternLength(*alt);
        if (!len.has_value()) return std::nullopt;
        if (common.has_value() && *common != *len) return std::nullopt;
        common = len;
      }
      return common.has_value() ? common : std::optional<uint64_t>(0);
    }
  }
  return std::nullopt;
}

/// The index-backed seed list of a declaration: the (label, prop) = value
/// bucket of its anchor, the value being the planned literal or the
/// bind-time binding of the $parameter the equality compares against.
/// nullptr seeds from the label scan instead: the anchor has no index
/// source, or the parameter is unbound or NULL
/// — the inline predicate then filters by itself (to nothing: `= NULL` is
/// never true), so rows are identical either way.
const std::vector<NodeId>* IndexSeeds(const PropertyGraph& graph,
                                      const planner::DeclPlan& dp,
                                      const Params* params) {
  const planner::SeedEstimate& anchor = dp.anchor;
  if (!anchor.has_index()) return nullptr;
  const Value* value = &anchor.index_value;
  if (!anchor.index_param.empty()) {
    if (params == nullptr) return nullptr;
    auto it = params->find(anchor.index_param);
    if (it == params->end() || it->second.is_null()) return nullptr;
    value = &it->second;
  }
  return &graph.IndexedNodes(anchor.label, anchor.index_prop, *value);
}

/// First-row chunk of the streaming cursor; chunks grow geometrically so a
/// full drain pays O(log seeds) chunk overheads while LIMIT 1 touches only
/// a handful of seeds.
constexpr size_t kFirstChunkSeeds = 8;
constexpr size_t kMaxChunkSeeds = 4096;

// ---------------------------------------------------------------------------
// Execution records and the one publisher (docs/observability.md)
// ---------------------------------------------------------------------------

using obs::MsToUs;

size_t ResolveThreads(const EngineOptions& options) {
  if (options.num_threads != 0) return options.num_threads;
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

MatcherOptions ExecMatcherOptions(const EngineOptions& options,
                                  size_t threads) {
  MatcherOptions matcher = options.matcher;
  matcher.num_threads = threads;
  return matcher;
}

/// The record of an execution about to start: its decisions known before
/// any matching (threads, plan identity, cache hit) and the compile costs
/// it replays.
obs::ExecutionRecord StartRecord(const EngineOptions& options,
                                 const planner::CachedPlan& plan,
                                 bool cache_hit, double parse_ms) {
  obs::ExecutionRecord rec;
  rec.parse_ms = parse_ms;
  rec.compile_ms = plan.analyze_ms + plan.plan_ms + plan.compile_ms;
  rec.threads = ResolveThreads(options);
  rec.plan_hash = plan.plan_hash;
  rec.cache_hit = cache_hit;
  return rec;
}

/// Adds one matcher run's work — a declaration, or a stream chunk — to the
/// record.
void AddMatchStats(const MatchStats& stats, obs::ExecutionRecord* rec) {
  rec->seeds += stats.seeds;
  rec->steps += stats.steps;
  rec->batch_blocks += stats.batch_blocks;
  rec->batch_candidates += stats.batch_candidates;
  rec->batch_survivors += stats.batch_survivors;
  rec->arena_records = std::max<uint64_t>(rec->arena_records,
                                          stats.arena_records);
  rec->seed_ms += stats.seed_ms;
  rec->match_ms += stats.match_ms;
}

EngineMetrics ToEngineMetrics(const obs::ExecutionRecord& rec) {
  EngineMetrics m;
  m.decls = rec.decls;
  m.seeded_nodes = rec.seeds;
  m.matcher_steps = rec.steps;
  m.reversed_decls = rec.reversed_decls;
  m.seed_filtered_decls = rec.bound_seeded_decls;
  m.target_filtered_decls = rec.target_filtered_decls;
  m.witness_decls = rec.witness_decls;
  m.threads = rec.threads;
  m.plan_cache_hits = rec.cache_hit ? 1 : 0;
  m.plan_cache_misses = rec.cache_hit ? 0 : 1;
  m.index_seeded_decls = rec.index_seeded_decls;
  m.rows = rec.rows;
  m.budget_truncated = rec.truncated ? 1 : 0;
  m.batch_blocks = rec.batch_blocks;
  m.batch_candidates = rec.batch_candidates;
  m.batch_survivors = rec.batch_survivors;
  m.arena_records = rec.arena_records;
  m.plan_ms = rec.paid_plan_ms();
  m.seed_ms = rec.seed_ms;
  m.exec_ms = rec.match_ms;
  return m;
}

/// Span-level detail of one declaration of a materialized run, beyond what
/// the record sums up. Times are offsets from the execution's start.
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

/// What a materialized run's span tree and EXPLAIN ANALYZE need on top of
/// its record. Collected only when one of them may be consumed.
struct ExecDetail {
  uint64_t epoch_us = 0;  // MonotonicMicros at the execution's start.
  std::vector<DeclRun> decls;  // Plan order.
  uint64_t filter_start_us = 0;

  uint64_t NowUs() const { return obs::MonotonicMicros() - epoch_us; }
  std::vector<planner::DeclActual> Actuals() const {
    std::vector<planner::DeclActual> out;
    out.reserve(decls.size());
    for (const DeclRun& run : decls) out.push_back(run.actual);
    return out;
  }
};

/// Renders the span trace of a finished execution from its record. A
/// materialized run (which always keeps its detail when a trace may be
/// rendered) becomes the query > decl > seed/shard tree plus join and
/// filter spans; a stream, whose work happened across pulls, becomes a flat
/// query/parse/plan/seed/match trace.
void RenderTrace(const EngineOptions& options, const obs::ExecutionRecord& rec,
                 const ExecDetail* detail, obs::Trace* tr) {
  tr->Clear();
  const char* cached = rec.cache_hit ? "true" : "false";
  int root = tr->AddComplete("query", obs::Trace::kNoParent, 0,
                             MsToUs(rec.total_ms));
  if (rec.streamed) {
    tr->Attr(root, "mode", "stream");
    tr->Attr(root, "cached", cached);
    tr->Attr(root, "rows", std::to_string(rec.rows));
  } else {
    tr->Attr(root, "threads", std::to_string(rec.threads));
    tr->Attr(root, "cached", cached);
  }
  if (!options.tenant.empty()) tr->Attr(root, "tenant", options.tenant);
  if (!options.trace_id.empty()) tr->Attr(root, "trace_id", options.trace_id);
  if (!rec.streamed) tr->Attr(root, "rows", std::to_string(rec.rows));
  if (rec.parse_ms > 0) tr->AddComplete("parse", root, 0, MsToUs(rec.parse_ms));
  int plan_span = tr->AddComplete("plan", root, 0, MsToUs(rec.compile_ms));
  tr->Attr(plan_span, "cached", cached);
  if (detail == nullptr) {  // A stream: no per-declaration detail.
    tr->AddComplete("seed", root, 0, MsToUs(rec.seed_ms));
    tr->AddComplete("match", root, 0, MsToUs(rec.match_ms));
    return;
  }
  for (const DeclRun& run : detail->decls) {
    int decl = tr->AddComplete("decl", root, run.start_us,
                               run.end_us - run.start_us);
    tr->Attr(decl, "decl", std::to_string(run.decl_index));
    tr->Attr(decl, "source", run.actual.index_seeded    ? "index"
                             : run.actual.seed_filtered ? "bound"
                                                        : "scan");
    tr->AddComplete("seed", decl, run.start_us, MsToUs(run.seed_ms));
    uint64_t shard_start = run.start_us + MsToUs(run.seed_ms);
    for (size_t s = 0; s < run.shard_ms.size(); ++s) {
      int shard = tr->AddComplete("shard", decl, shard_start,
                                  MsToUs(run.shard_ms[s]));
      tr->Attr(shard, "shard", std::to_string(s));
    }
    if (run.joined) {
      tr->AddComplete("join", root, run.join_start_us, run.join_us);
    }
  }
  tr->AddComplete("filter", root, detail->filter_start_us,
                  MsToUs(rec.filter_ms));
}

/// Captures one slow execution into the configured (or global) log.
void CaptureSlowQuery(const EngineOptions& options, const PropertyGraph& g,
                      const planner::CachedPlan& plan,
                      const obs::ExecutionRecord& rec,
                      const ExecDetail* detail, const obs::Trace& trace) {
  planner::ExplainExec exec;
  exec.threads = rec.threads;
  exec.cached = rec.cache_hit;
  exec.analyzed = true;
  exec.rows = rec.rows;
  exec.truncated = rec.truncated;
  exec.total_ms = rec.total_ms;
  exec.plan_ms = rec.paid_plan_ms();
  std::vector<planner::DeclActual> actuals;
  if (detail != nullptr) actuals = detail->Actuals();

  obs::SlowQueryRecord slow;
  slow.graph_token = g.identity_token();
  // Parameterized fingerprint: $names render as themselves, so the capture
  // never leaks bound values (matches the plan cache's keying).
  slow.fingerprint = plan.stats_fingerprint;
  slow.total_ms = rec.total_ms;
  slow.rows = rec.rows;
  slow.explain = planner::ExplainPlan(plan.plan, *plan.vars, /*stats=*/nullptr,
                                      &exec,
                                      detail != nullptr ? &actuals : nullptr,
                                      &plan.diagnostics);
  slow.trace_json = trace.ToJsonLines();
  slow.tenant = options.tenant;
  slow.trace_id = options.trace_id;
  obs::SlowQueryLog& log = options.slow_log != nullptr
                               ? *options.slow_log
                               : obs::GlobalSlowQueryLog();
  log.Add(std::move(slow));
}

/// The one publisher: fans a finished execution's record out to
/// EngineMetrics, the graph registry (through handles resolved once per
/// registry), the trace consumers, the slow-query log and the query-stats
/// store. A failed execution reaches only EngineMetrics, a caller-attached
/// trace and the stats store — with the work it spent before failing: a
/// query that dies on its step budget dominated that budget, and the
/// store's purpose is to say so. The span trace is rendered only when
/// something consumes it.
void Publish(const PropertyGraph& g, const EngineOptions& options,
             const planner::CachedPlan& plan, const obs::ExecutionRecord& rec,
             const ExecDetail* detail) {
  if (options.metrics != nullptr) *options.metrics = ToEngineMetrics(rec);
  const bool slow = !rec.error && options.slow_query_ms >= 0 &&
                    rec.total_ms > options.slow_query_ms;
  obs::ExecutionSeries* series =
      options.publish_metrics ? &g.registry().execution_series() : nullptr;
  if (series != nullptr && !rec.error) series->Publish(rec, slow);

  const bool emit = !rec.error && options.trace_sink != nullptr;
  obs::Trace local_trace;
  obs::Trace* trace = options.trace;
  if (trace == nullptr && (emit || slow)) trace = &local_trace;
  if (trace != nullptr) RenderTrace(options, rec, detail, trace);
  if (emit) options.trace_sink->Emit(*trace);
  if (slow) CaptureSlowQuery(options, g, plan, rec, detail, *trace);

  if (!options.publish_query_stats) return;
  obs::QueryStatsStore& store = options.query_stats != nullptr
                                    ? *options.query_stats
                                    : obs::GlobalQueryStats();
  obs::QueryStatsStore::RecordOutcome outcome =
      store.Record(options.tenant, plan.stats_fingerprint,
                   plan.stats_fingerprint_hash, g.identity_token(), rec);
  if (series != nullptr) {
    series->querystats_observations->Increment();
    if (outcome.evicted) series->querystats_evictions->Increment();
    if (outcome.plan_changed) series->plan_changes->Increment();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine: prepare
// ---------------------------------------------------------------------------

Result<Engine::Analyzed> Engine::AnalyzePattern(
    const GraphPattern& pattern) const {
  Analyzed p;
  GPML_ASSIGN_OR_RETURN(p.normalized, Normalize(pattern));
  GPML_ASSIGN_OR_RETURN(p.analysis, Analyze(p.normalized));
  GPML_RETURN_IF_ERROR(CheckTermination(p.normalized, p.analysis));
  p.vars = std::make_shared<const VarTable>(p.analysis);
  return p;
}

size_t Engine::ResolvedThreads() const { return ResolveThreads(options_); }

Result<planner::Plan> Engine::PlanNormalized(const GraphPattern& normalized,
                                             const VarTable& vars) const {
  std::shared_ptr<const planner::GraphStats> stats =
      planner::GetStats(graph_);
  planner::PlannerConfig config;
  // Exact per-(label, key, value) counts for equality selectivities
  // (docs/planner.md): the planner reads the graph's property seed index
  // instead of the System-R constant whenever an estimate hint resolves.
  config.histograms = &graph_;
  return planner::PlanPattern(normalized, vars, *stats, config);
}

Result<std::shared_ptr<const planner::CachedPlan>> Engine::PreparePlan(
    const GraphPattern& pattern, bool* cache_hit) const {
  *cache_hit = false;
  // The fingerprint is the parameterized pattern text: $name placeholders
  // render as themselves, so executions differing only in bound values
  // share one entry — the prepare-once contract.
  const std::string fingerprint = planner::PlanFingerprint(pattern);
  if (std::shared_ptr<const planner::CachedPlan> cached = planner::LookupPlan(
          graph_, fingerprint,
          options_.publish_metrics ? &graph_.registry() : nullptr)) {
    *cache_hit = true;
    return cached;
  }
  auto entry = std::make_shared<planner::CachedPlan>();
  obs::Stopwatch analyze_clock;
  GPML_ASSIGN_OR_RETURN(Analyzed p, AnalyzePattern(pattern));
  entry->normalized = std::move(p.normalized);
  entry->vars = std::move(p.vars);
  entry->analyze_ms = analyze_clock.ElapsedMs();
  // Static analysis (docs/analysis.md): collect-all diagnostics over the
  // normalized pattern. Errors fail Prepare; warnings/notes are cached on
  // the entry so EXPLAIN and Lint see them on cache hits too. The pass may
  // rewrite the postfilter (dropping parameter-free TRUE conjuncts) and
  // prove the pattern empty — both recorded before planning so the plan is
  // built against the rewritten pattern.
  obs::Stopwatch analysis_clock;
  analysis::QueryAnalysis qa =
      analysis::AnalyzeQuery(entry->normalized, p.analysis, &graph_);
  entry->analysis_ms = analysis_clock.ElapsedMs();
  CountDiagnostics(qa.diagnostics);
  if (qa.diagnostics.has_errors()) {
    return Status::SemanticError(qa.diagnostics.ToString());
  }
  if (qa.postfilter_rewritten) {
    entry->normalized.where = qa.rewritten_postfilter;
  }
  entry->diagnostics = std::move(qa.diagnostics);
  entry->always_empty = qa.always_empty;
  obs::Stopwatch plan_clock;
  GPML_ASSIGN_OR_RETURN(entry->plan,
                        PlanNormalized(entry->normalized, *entry->vars));
  entry->plan_ms = plan_clock.ElapsedMs();
  // Compile and graph-bind every declaration's program now, so cache hits
  // skip compilation and label-predicate binding as well as planning. The
  // entry is keyed on the graph identity token, so the bound symbol ids can
  // never be replayed against a different graph.
  obs::Stopwatch compile_clock;
  entry->programs.reserve(entry->plan.decls.size());
  for (const planner::DeclPlan& dp : entry->plan.decls) {
    GPML_ASSIGN_OR_RETURN(Program program,
                          CompilePattern(dp.decl, *entry->vars));
    // The variable table enables the batch plan (Program::batch): predicate
    // kernels and equi-join targets compile once here and ride the cache.
    BindProgramToGraph(&program, graph_, entry->vars.get());
    entry->programs.push_back(
        std::make_shared<const Program>(std::move(program)));
  }
  entry->compile_ms = compile_clock.ElapsedMs();
  // Workload-statistics identity, computed once per compile so executions
  // (cache hits included) never pay for rendering. The stats fingerprint
  // is the query shape alone: the same text replanned over a graph whose
  // statistics moved the anchor keeps one stats entry while the plan hash —
  // FNV-1a of the plan's EXPLAIN rendering, diagnostics excluded so
  // warnings don't masquerade as replans — flips, which is exactly the
  // signal QueryStatsStore turns into a plan-change event.
  entry->stats_fingerprint = Print(entry->normalized);
  entry->stats_fingerprint_hash = obs::HashFingerprint(entry->stats_fingerprint);
  entry->plan_hash = obs::HashPlanText(planner::ExplainPlan(
      entry->plan, *entry->vars, /*stats=*/nullptr, /*exec=*/nullptr,
      /*actuals=*/nullptr, /*warnings=*/nullptr));
  std::shared_ptr<const planner::CachedPlan> shared = std::move(entry);
  planner::StorePlan(graph_, fingerprint, shared);
  return shared;
}

Result<PreparedQuery> Engine::Prepare(const std::string& match_text) const {
  obs::Stopwatch parse_clock;
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  double parse_ms = parse_clock.ElapsedMs();
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(pattern));
  prepared.parse_ms_ = parse_ms;
  return prepared;
}

Result<PreparedQuery> Engine::Prepare(const GraphPattern& pattern) const {
  bool cache_hit = false;
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const planner::CachedPlan> plan,
                        PreparePlan(pattern, &cache_hit));
  ParamSignature signature = CollectPatternParams(plan->normalized);
  return PreparedQuery(graph_, options_, std::move(plan),
                       std::move(signature), cache_hit);
}

// ---------------------------------------------------------------------------
// Engine: plan / explain
// ---------------------------------------------------------------------------

Result<planner::Plan> Engine::Plan(const GraphPattern& pattern) const {
  bool cache_hit = false;
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const planner::CachedPlan> prepared,
                        PreparePlan(pattern, &cache_hit));
  return prepared->plan;
}

Result<std::string> Engine::Explain(const std::string& match_text) const {
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  return Explain(pattern);
}

Result<std::string> Engine::Explain(const GraphPattern& pattern) const {
  bool cache_hit = false;
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const planner::CachedPlan> prepared,
                        PreparePlan(pattern, &cache_hit));
  planner::ExplainExec exec;
  exec.threads = ResolvedThreads();
  exec.cached = cache_hit;
  return planner::ExplainPlan(prepared->plan, *prepared->vars,
                              /*stats=*/nullptr, &exec, /*actuals=*/nullptr,
                              &prepared->diagnostics);
}

Result<std::string> Engine::ExplainAnalyze(const std::string& match_text,
                                           const Params& params) const {
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  return ExplainAnalyze(pattern, params);
}

Result<std::string> Engine::ExplainAnalyze(const GraphPattern& pattern,
                                           const Params& params) const {
  // Run with private metrics and a private trace so the rendering carries
  // measured wall-clock actuals (`ms=`, `plan_ms=`, `actual_ms=`) even when
  // the caller attached neither.
  EngineMetrics metrics;
  obs::Trace trace;
  EngineOptions opts = options_;
  opts.metrics = &metrics;
  opts.trace = &trace;
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(pattern));
  GPML_RETURN_IF_ERROR(ValidateParams(prepared.signature_, params));
  std::shared_ptr<const Params> shared =
      params.empty() ? nullptr : std::make_shared<const Params>(params);
  std::vector<planner::DeclActual> actuals;
  GPML_ASSIGN_OR_RETURN(
      MatchOutput out,
      ExecutePlan(graph_, opts, *prepared.plan_, prepared.cache_hit_,
                  std::move(shared), &actuals));
  planner::ExplainExec exec;
  exec.threads = ResolvedThreads();
  exec.cached = prepared.cache_hit_;
  exec.analyzed = true;
  exec.rows = out.rows.size();
  exec.truncated = out.truncated;
  exec.total_ms = trace.TotalMs("query");
  exec.plan_ms = metrics.plan_ms;
  return planner::ExplainPlan(prepared.plan_->plan, *prepared.plan_->vars,
                              /*stats=*/nullptr, &exec, &actuals,
                              &prepared.plan_->diagnostics);
}

// ---------------------------------------------------------------------------
// Engine: lint
// ---------------------------------------------------------------------------

namespace {

/// A pipeline error as one diagnostic: first message line (the snippet
/// AttachSnippet appended is re-derivable from the span), with the byte
/// offset recovered from the `offset=N` marker the parser and semantic
/// passes embed.
analysis::Diagnostic StatusToDiagnostic(const char* code, const Status& st) {
  analysis::Diagnostic d;
  d.code = code;
  d.severity = analysis::Severity::kError;
  std::string message = st.message();
  size_t nl = message.find('\n');
  if (nl != std::string::npos) message.resize(nl);
  size_t offset = 0;
  if (FindOffsetMarker(message, &offset)) {
    d.span = SourceSpan{offset, offset + 1};
  }
  d.message = std::move(message);
  return d;
}

}  // namespace

analysis::DiagnosticList Engine::Lint(const std::string& match_text) const {
  analysis::DiagnosticList diags = LintImpl(match_text);
  // Every span stays inside the linted text: errors reported at end of
  // input would otherwise point one byte past it ([size, size+1)).
  for (analysis::Diagnostic& d : diags.mutable_items()) {
    if (d.span.begin > match_text.size()) d.span.begin = match_text.size();
    if (d.span.end > match_text.size()) d.span.end = match_text.size();
  }
  return diags;
}

analysis::DiagnosticList Engine::LintImpl(const std::string& match_text) const {
  analysis::DiagnosticList diags;
  Result<GraphPattern> pattern = ParseGraphPattern(match_text);
  if (!pattern.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSyntax, pattern.status()));
    return diags;
  }
  Result<GraphPattern> normalized = Normalize(*pattern);
  if (!normalized.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSemantic,
                                 normalized.status()));
    return diags;
  }
  Result<Analysis> sem = Analyze(*normalized);
  if (!sem.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSemantic, sem.status()));
    return diags;
  }
  if (Status st = CheckTermination(*normalized, *sem); !st.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSemantic, st));
    return diags;
  }
  analysis::QueryAnalysis qa =
      analysis::AnalyzeQuery(*normalized, *sem, &graph_);
  CountDiagnostics(qa.diagnostics);
  return std::move(qa.diagnostics);
}

// ---------------------------------------------------------------------------
// Engine: materialized execution
// ---------------------------------------------------------------------------

void Engine::CountDiagnostics(const analysis::DiagnosticList& diags) const {
  if (options_.publish_metrics && !diags.empty()) {
    graph_.registry().execution_series().diagnostics_emitted->Increment(
        diags.size());
  }
}

Result<MatchOutput> Engine::Match(const std::string& match_text) const {
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  return Match(pattern);
}

Result<MatchOutput> Engine::Match(const GraphPattern& pattern) const {
  // The legacy one-shot call is a thin prepare-bind-drain: prepare (or hit
  // the plan cache), bind the empty parameter set, materialize.
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(pattern));
  return prepared.Execute();
}

namespace {

/// The distinct nodes `var` is bound to across `rows` (its last binding in
/// each row), ascending — a declaration's restricted seed or target list.
std::vector<NodeId> BoundNodes(const std::vector<ResultRow>& rows, int var) {
  std::unordered_set<NodeId> distinct;
  for (const ResultRow& row : rows) {
    for (size_t i = row.bindings.size(); i-- > 0;) {
      const ElementRef* el = row.bindings[i]->LastOf(var);
      if (el != nullptr) {
        if (el->is_node()) distinct.insert(el->id);
        break;
      }
    }
  }
  std::vector<NodeId> out(distinct.begin(), distinct.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// The materializing execution: per-declaration matching in plan order,
/// the singleton hash join, declaration reordering, then the per-row tail.
/// Fills `rec` as it goes — including the work of a declaration whose run
/// fails — and `detail` when non-null.
Result<MatchOutput> MaterializePlan(const PropertyGraph& graph,
                                    const EngineOptions& options,
                                    const planner::CachedPlan& prepared,
                                    std::shared_ptr<const Params> params,
                                    obs::ExecutionRecord* rec,
                                    ExecDetail* detail) {
  MatchOutput out;
  out.normalized = prepared.normalized;
  out.vars = prepared.vars;
  out.params = std::move(params);
  const planner::Plan& plan = prepared.plan;
  const bool truncate =
      options.on_budget == EngineOptions::BudgetPolicy::kTruncate;
  const MatcherOptions matcher_options =
      ExecMatcherOptions(options, rec->threads);

  // Evaluate every path declaration independently (§6.5) in plan order,
  // then join. The planner may mirror a declaration (anchor at its right
  // end) or seed it from the bindings of earlier declarations; both are
  // result-preserving (see docs/planner.md).
  const size_t num_decls = plan.decls.size();
  out.path_vars.assign(num_decls, -1);
  if (detail != nullptr) detail->decls.reserve(num_decls);
  bool first = true;
  std::vector<ResultRow> rows;
  // Analyzer-proven empty pattern (docs/analysis.md): skip seeding, matching
  // and joining entirely — the loop guard below keeps the tail of this
  // function (reorder, filter) running over zero rows, so the execution
  // still publishes its counters (0 seeds, 0 matcher steps, 0 rows) and a
  // complete trace.
  const bool always_empty = prepared.always_empty;
  for (size_t plan_pos = 0; !always_empty && plan_pos < num_decls;
       ++plan_pos) {
    const planner::DeclPlan& dp = plan.decls[plan_pos];
    const PathPatternDecl& decl = dp.decl;
    const uint64_t decl_start_us = detail != nullptr ? detail->NowUs() : 0;
    out.path_vars[static_cast<size_t>(dp.decl_index)] =
        decl.path_var.empty() ? -1 : out.vars->Find(decl.path_var);

    // Compiled with the plan (and graph-bound); cache hits reuse it as-is.
    const Program& program = *prepared.programs[plan_pos];

    // Restricted seeding: the anchor variable is already bound by earlier
    // declarations, so only those nodes can start a joinable match; failing
    // that, an anchor with an inline equality predicate seeds from the
    // (label, prop) = value hash index — the value is the planned literal
    // or the bind-time $parameter binding. Both restrictions only drop
    // starts the pattern's first node check would reject anyway.
    std::vector<NodeId> seed_filter;
    const std::vector<NodeId>* filter = nullptr;
    bool use_filter = !first && dp.seed_bound_var >= 0;
    bool use_index = false;
    if (use_filter) {
      seed_filter = BoundNodes(rows, dp.seed_bound_var);
      filter = &seed_filter;
    } else {
      filter = IndexSeeds(graph, dp, out.params.get());
      use_index = filter != nullptr;
    }

    // Target restriction: the far endpoint is bound by earlier
    // declarations too, so a binding ending anywhere else cannot join.
    std::vector<NodeId> target_filter;
    const bool use_target = !first && dp.target_bound_var >= 0;
    if (use_target) target_filter = BoundNodes(rows, dp.target_bound_var);

    MatchStats match_stats;
    bool decl_truncated = false;
    Result<MatchSet> match = RunPattern(
        graph, program, *out.vars, matcher_options, filter,
        use_target ? &target_filter : nullptr, &match_stats,
        out.params.get(), /*shared_budget=*/nullptr,
        truncate ? &decl_truncated : nullptr);
    // Count the work even when the run failed: RunPattern reports the
    // steps it spent before a budget refusal.
    AddMatchStats(match_stats, rec);
    ++rec->decls;
    if (dp.reversed) ++rec->reversed_decls;
    if (use_filter) ++rec->bound_seeded_decls;
    if (use_target) ++rec->target_filtered_decls;
    if (use_index) ++rec->index_seeded_decls;
    if (match_stats.route == MatchRoute::kWitness) ++rec->witness_decls;
    if (!match.ok()) return match.status();
    if (decl_truncated) out.truncated = true;
    if (dp.reversed) planner::UnreverseMatchSet(&*match);

    DeclRun* run = nullptr;
    if (detail != nullptr) {
      run = &detail->decls.emplace_back();
      run->decl_index = dp.decl_index;
      run->start_us = decl_start_us;
      run->end_us = detail->NowUs();
      run->seed_ms = match_stats.seed_ms;
      run->shard_ms = std::move(match_stats.shard_ms);
      run->actual.seeds = match_stats.seeds;
      run->actual.steps = match_stats.steps;
      run->actual.bindings = match->bindings.size();
      run->actual.index_seeded = use_index;
      run->actual.seed_filtered = use_filter;
      run->actual.target_filtered = use_target;
      run->actual.targets = target_filter.size();
      run->actual.route = MatchRouteName(match_stats.route);
      run->actual.arena_records = match_stats.arena_records;
      run->actual.ms = match_stats.match_ms;
    }

    std::vector<std::shared_ptr<const PathBinding>> bindings;
    bindings.reserve(match->bindings.size());
    for (PathBinding& pb : match->bindings) {
      bindings.push_back(std::make_shared<const PathBinding>(std::move(pb)));
    }

    if (first) {
      rows.reserve(bindings.size());
      for (auto& b : bindings) {
        ResultRow r;
        r.bindings.push_back(std::move(b));
        rows.push_back(std::move(r));
      }
      first = false;
      continue;
    }

    obs::Stopwatch join_clock;
    bool join_truncated = false;
    GPML_ASSIGN_OR_RETURN(
        rows, JoinDecl(std::move(rows), bindings, dp.join_vars,
                       options.max_rows, truncate, &join_truncated));
    const uint64_t join_us = join_clock.ElapsedMicros();
    rec->join_ms += static_cast<double>(join_us) / 1e3;
    if (run != nullptr) {
      run->joined = true;
      run->join_start_us = join_clock.start_us() - detail->epoch_us;
      run->join_us = join_us;
    }
    if (join_truncated) out.truncated = true;
  }

  // Row bindings were accumulated in plan execution order; restore source
  // declaration order so hosts and RowScope index them by declaration.
  bool reordered = false;
  for (size_t i = 0; i < num_decls; ++i) {
    if (plan.decls[i].decl_index != static_cast<int>(i)) reordered = true;
  }
  if (reordered) {
    for (ResultRow& row : rows) {
      std::vector<std::shared_ptr<const PathBinding>> ordered(num_decls);
      for (size_t i = 0; i < num_decls; ++i) {
        ordered[static_cast<size_t>(plan.decls[i].decl_index)] =
            std::move(row.bindings[i]);
      }
      row.bindings = std::move(ordered);
    }
  }

  // Per-row tail: match-mode filter (§7.1) and the final WHERE (§5.2) —
  // the same RowSurvives the cursor paths stream through.
  obs::Stopwatch filter_clock;
  if (detail != nullptr) {
    detail->filter_start_us = filter_clock.start_us() - detail->epoch_us;
  }
  std::vector<ResultRow> surviving;
  surviving.reserve(rows.size());
  for (ResultRow& row : rows) {
    GPML_ASSIGN_OR_RETURN(bool keep, RowSurvives(out, graph, row));
    if (keep) surviving.push_back(std::move(row));
  }
  out.rows = std::move(surviving);
  rec->filter_ms = filter_clock.ElapsedMs();
  return out;
}

}  // namespace

Result<MatchOutput> Engine::ExecutePlan(
    const PropertyGraph& graph, const EngineOptions& options,
    const planner::CachedPlan& prepared, bool cache_hit,
    std::shared_ptr<const Params> params,
    std::vector<planner::DeclActual>* actuals, double parse_ms) {
  obs::Stopwatch clock;
  obs::ExecutionRecord rec = StartRecord(options, prepared, cache_hit, parse_ms);
  // Span-level detail only when a trace or EXPLAIN ANALYZE may read it: a
  // caller's trace, a sink, the caller's actuals, or an armed slow-query
  // capture (which renders both if the run turns out slow).
  ExecDetail detail;
  detail.epoch_us = clock.start_us();
  const bool keep_detail = actuals != nullptr || options.trace != nullptr ||
                           options.trace_sink != nullptr ||
                           options.slow_query_ms >= 0;
  Result<MatchOutput> out =
      MaterializePlan(graph, options, prepared, std::move(params), &rec,
                      keep_detail ? &detail : nullptr);
  rec.total_ms = clock.ElapsedMs();
  rec.error = !out.ok();
  if (out.ok()) {
    rec.rows = out->rows.size();
    rec.truncated = out->truncated;
  }
  if (actuals != nullptr) *actuals = detail.Actuals();
  Publish(graph, options, prepared, rec, keep_detail ? &detail : nullptr);
  return out;
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

PreparedQuery::PreparedQuery(const PropertyGraph& graph,
                             EngineOptions options,
                             std::shared_ptr<const planner::CachedPlan> plan,
                             ParamSignature signature, bool cache_hit)
    : graph_(&graph),
      options_(std::move(options)),
      plan_(std::move(plan)),
      signature_(std::move(signature)),
      cache_hit_(cache_hit) {}

Result<MatchOutput> PreparedQuery::Execute(const Params& params) const {
  GPML_RETURN_IF_ERROR(ValidateParams(signature_, params));
  std::shared_ptr<const Params> shared =
      params.empty() ? nullptr : std::make_shared<const Params>(params);
  return Engine::ExecutePlan(*graph_, options_, *plan_, cache_hit_,
                             std::move(shared), /*actuals=*/nullptr,
                             parse_ms_);
}

Result<Cursor> PreparedQuery::Open(const Params& params) const {
  return Open(params, std::nullopt);
}

Result<Cursor> PreparedQuery::Open(const Params& params,
                                   std::optional<uint64_t> limit) const {
  GPML_RETURN_IF_ERROR(ValidateParams(signature_, params));
  std::shared_ptr<const Params> shared =
      params.empty() ? nullptr : std::make_shared<const Params>(params);
  return Cursor(*graph_, options_, plan_, std::move(shared), cache_hit_,
                limit, parse_ms_);
}

Result<std::string> PreparedQuery::Explain() const {
  planner::ExplainExec exec;
  exec.threads = ResolveThreads(options_);
  exec.cached = cache_hit_;
  return planner::ExplainPlan(plan_->plan, *plan_->vars, /*stats=*/nullptr,
                              &exec, /*actuals=*/nullptr,
                              &plan_->diagnostics);
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

Cursor::Cursor(const PropertyGraph& graph, EngineOptions options,
               std::shared_ptr<const planner::CachedPlan> plan,
               std::shared_ptr<const Params> params, bool cache_hit,
               std::optional<uint64_t> limit, double parse_ms)
    : graph_(&graph),
      options_(std::move(options)),
      plan_(std::move(plan)),
      limit_(limit),
      open_us_(obs::MonotonicMicros()),
      record_(StartRecord(options_, *plan_, cache_hit, parse_ms)) {
  context_.normalized = plan_->normalized;
  context_.vars = plan_->vars;
  context_.params = std::move(params);
  const planner::Plan& p = plan_->plan;
  context_.path_vars.assign(p.decls.size(), -1);
  for (const planner::DeclPlan& dp : p.decls) {
    context_.path_vars[static_cast<size_t>(dp.decl_index)] =
        dp.decl.path_var.empty() ? -1 : context_.vars->Find(dp.decl.path_var);
  }

  // Streaming eligibility: a single declaration with no selector whose
  // matches all have one fixed path length. Then per-chunk merge order
  // (stable by-length sort) is the identity, chunk outputs concatenate in
  // seed order exactly like the full run's discovery order, and cross-chunk
  // duplicates cannot exist (distinct seeds; a reduced binding keeps its
  // start node) — so streamed rows are byte-identical to Execute.
  // Analyzer-proven empty plans stay in kBatch: FillBatch delegates to
  // ExecutePlan, whose always-empty early exit publishes the 0-seed /
  // 0-step execution without ever calling ComputeSeeds.
  if (!plan_->always_empty && p.decls.size() == 1 &&
      p.decls[0].decl.selector.IsNone() &&
      FixedPatternLength(*p.decls[0].decl.pattern).has_value()) {
    mode_ = Mode::kStream;
    const planner::DeclPlan& dp = p.decls[0];
    record_.streamed = true;
    record_.decls = 1;
    if (dp.reversed) record_.reversed_decls = 1;
    const std::vector<NodeId>* filter =
        IndexSeeds(graph, dp, context_.params.get());
    if (filter != nullptr) record_.index_seeded_decls = 1;
    obs::Stopwatch seed_clock;
    seeds_ = ComputeSeeds(graph, *plan_->programs[0], filter);
    record_.seed_ms = seed_clock.ElapsedMs();
    chunk_size_ = kFirstChunkSeeds;
    // One budget across all chunks: the stream can never execute more
    // steps or accept more matches than a single materializing call.
    budget_ = std::make_unique<SharedBudget>(options_.matcher.max_steps,
                                             options_.matcher.max_matches);
  }
  SyncMetrics();
}

void Cursor::SyncMetrics() {
  if (options_.metrics == nullptr) return;
  record_.rows = emitted_;
  *options_.metrics = ToEngineMetrics(record_);
}

Status Cursor::FillChunk() {
  staged_.clear();
  staged_pos_ = 0;
  const planner::DeclPlan& dp = plan_->plan.decls[0];
  const Program& program = *plan_->programs[0];

  const size_t count = std::min(chunk_size_, seeds_.size() - seed_pos_);
  std::vector<NodeId> chunk(seeds_.begin() + static_cast<long>(seed_pos_),
                            seeds_.begin() +
                                static_cast<long>(seed_pos_ + count));
  seed_pos_ += count;
  chunk_size_ = std::min(chunk_size_ * 2, kMaxChunkSeeds);

  const bool truncate =
      options_.on_budget == EngineOptions::BudgetPolicy::kTruncate;
  MatchStats stats;
  bool exhausted = false;
  Result<MatchSet> match = RunPattern(
      *graph_, program, *context_.vars,
      ExecMatcherOptions(options_, record_.threads), &chunk,
      /*target_filter=*/nullptr, &stats,
      context_.params.get(), budget_.get(), truncate ? &exhausted : nullptr);
  // Record the matcher work even when the run errored: RunPattern fills
  // `stats` with the steps actually spent before a budget refusal, and
  // downstream accounting (the server's per-tenant step charging) must see
  // them — a query that dies on its step cap still did that work.
  AddMatchStats(stats, &record_);
  if (!match.ok()) return match.status();
  if (dp.reversed) planner::UnreverseMatchSet(&*match);

  obs::Stopwatch filter_clock;
  for (PathBinding& pb : match->bindings) {
    ResultRow row;
    row.bindings.push_back(
        std::make_shared<const PathBinding>(std::move(pb)));
    Result<bool> keep = RowSurvives(context_, *graph_, row);
    if (!keep.ok()) return keep.status();
    if (*keep) staged_.push_back(std::move(row));
  }
  record_.filter_ms += filter_clock.ElapsedMs();

  if (exhausted) {
    truncated_ = true;
    context_.truncated = true;
    record_.truncated = true;
    seed_pos_ = seeds_.size();  // No further chunks.
  }
  SyncMetrics();
  return Status::OK();
}

Status Cursor::FillBatch() {
  batch_ran_ = true;
  Result<MatchOutput> out = Engine::ExecutePlan(
      *graph_, options_, *plan_, record_.cache_hit, context_.params,
      /*actuals=*/nullptr, record_.parse_ms);
  if (!out.ok()) return out.status();
  truncated_ = out->truncated;
  context_.truncated = out->truncated;
  staged_ = std::move(out->rows);
  staged_pos_ = 0;
  // ExecutePlan reported the materialized count; the cursor contract is
  // rows *emitted so far*, counted per pull in Next for both modes.
  if (options_.metrics != nullptr) options_.metrics->rows = 0;
  return Status::OK();
}

Result<bool> Cursor::Next(RowView* view) {
  if (!status_.ok()) return status_;
  if (limit_.has_value() && emitted_ >= *limit_) {
    if (!done_) {
      done_ = true;
      hit_limit_ = true;
      FinishStream(/*error=*/false);
    }
    return false;
  }
  if (done_) return false;
  while (true) {
    if (staged_pos_ < staged_.size()) {
      current_ = std::move(staged_[staged_pos_++]);
      ++emitted_;
      if (options_.metrics != nullptr) ++options_.metrics->rows;
      view->row = &current_;
      view->context = &context_;
      return true;
    }
    if (mode_ == Mode::kBatch) {
      if (batch_ran_) {
        done_ = true;
        return false;
      }
      status_ = FillBatch();
    } else {
      if (seed_pos_ >= seeds_.size()) {
        done_ = true;
        FinishStream(/*error=*/false);
        return false;
      }
      status_ = FillChunk();
    }
    if (!status_.ok()) {
      done_ = true;
      // kBatch errors were already published inside ExecutePlan.
      FinishStream(/*error=*/true);
      return status_;
    }
  }
}

void Cursor::FinishStream(bool error) {
  if (published_ || mode_ != Mode::kStream) return;
  published_ = true;
  record_.total_ms =
      static_cast<double>(obs::MonotonicMicros() - open_us_) / 1e3;
  record_.rows = emitted_;
  record_.error = error;
  Publish(*graph_, options_, *plan_, record_, /*detail=*/nullptr);
}

Result<MatchOutput> Cursor::Drain() {
  MatchOutput out = context_;
  RowView view;
  while (true) {
    GPML_ASSIGN_OR_RETURN(bool more, Next(&view));
    if (!more) break;
    out.rows.push_back(*view.row);
  }
  out.truncated = truncated_;
  return out;
}

}  // namespace gpml
