#ifndef GPML_PLANNER_PLAN_CACHE_H_
#define GPML_PLANNER_PLAN_CACHE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "analysis/diagnostic.h"
#include "ast/ast.h"
#include "eval/binding.h"
#include "eval/nfa.h"
#include "graph/property_graph.h"
#include "obs/metrics.h"
#include "planner/planner.h"

namespace gpml {
namespace planner {

/// Everything Engine::Match derives from a pattern before touching graph
/// data: the normalized pattern (§6.2), the interned variable table
/// (§4.4/§4.6/§4.7 analysis), and the statistics-driven Plan. A cache hit
/// skips normalize, analyze, termination checking, and planning; only
/// per-declaration compilation and the search itself re-run. The entry is
/// immutable and shared: the AST inside is shared_ptr-kept, so concurrent
/// engines can execute from one entry.
///
/// Motivated by "Towards Cross-Model Efficiency in SQL/PGQ" (Rotschield &
/// Peterfreund, 2025): both hosts funnel through the same Engine, so one
/// cached compilation serves SQL/PGQ GRAPH_TABLE calls and GQL session
/// statements alike.
struct CachedPlan {
  GraphPattern normalized;
  std::shared_ptr<const VarTable> vars;
  Plan plan;
  /// One compiled, graph-bound program per plan declaration (in plan
  /// order): label expressions are already resolved to symbol-id predicates
  /// and CSR partitions against the owning graph, so a cache hit skips
  /// pattern compilation and label-predicate binding too. Safe to share:
  /// matcher shards only read programs.
  std::vector<std::shared_ptr<const Program>> programs;
  /// Wall-clock cost of building this entry (normalize+analyze, planning,
  /// and per-declaration compile+bind), recorded once before publication.
  /// Cache hits replay these into the trace as `cached` spans so EXPLAIN
  /// ANALYZE can still show what the compilation originally cost, while
  /// EngineMetrics::plan_ms reports 0 for the hit itself (the execution
  /// paid nothing). See docs/observability.md.
  double analyze_ms = 0;
  double plan_ms = 0;
  double compile_ms = 0;
  /// Wall-clock cost of the static analyzer pass alone (a slice of the
  /// prepare pipeline measured separately so bench_query_api can report
  /// prepare-time analysis overhead).
  double analysis_ms = 0;
  /// Static-analyzer findings recorded at compile time (warnings and notes;
  /// errors fail Prepare and are never cached). Carried through cache hits
  /// so EXPLAIN's `warnings=` section and PreparedQuery::diagnostics() see
  /// them without re-analyzing.
  analysis::DiagnosticList diagnostics;
  /// The analyzer proved no binding can exist (an unsatisfiable mandatory
  /// site): execution skips seeding and matching entirely and publishes
  /// metrics with 0 seeds and 0 steps — the cached empty plan.
  bool always_empty = false;
  /// The workload-statistics key: Print of the normalized pattern, $names
  /// kept. Unlike the cache fingerprint it does NOT embed the planner flag,
  /// and the graph is not part of it either: the same text replanned over
  /// a reloaded graph keeps one stats entry while producing a different
  /// plan_hash, which is exactly how QueryStatsStore detects a plan change.
  /// Computed once on the cache-miss path; hits reuse it for free.
  std::string stats_fingerprint;
  /// HashFingerprint(stats_fingerprint): the query-stats key hash, computed
  /// with the fingerprint so executions never rehash the text.
  uint64_t stats_fingerprint_hash = 0;
  /// FNV-1a of the plan's EXPLAIN rendering (obs::HashPlanText): the stable
  /// plan identity QueryStatsStore tracks per fingerprint. Identical plans
  /// hash identically across cache hits, processes, and runs.
  uint64_t plan_hash = 0;
};

/// An immutable snapshot map of fingerprint -> CachedPlan, stored on the
/// PropertyGraph next to the GraphStats slot (same atomic-shared_ptr
/// discipline, see PropertyGraph::plan_cache). `graph_token` records which
/// graph identity the snapshot was built for; Lookup revalidates it so a
/// snapshot can never serve plans for a different graph.
struct PlanCache {
  uint64_t graph_token = 0;
  std::unordered_map<std::string, std::shared_ptr<const CachedPlan>> entries;
};

/// Snapshots are rebuilt from scratch when they would exceed this many
/// entries (epoch flush) — a crude but lock-free bound on ad-hoc query
/// churn; steady-state workloads repeat far fewer distinct patterns.
inline constexpr size_t kPlanCacheMaxEntries = 128;

/// Deterministic fingerprint of a pattern: its surface-syntax rendering —
/// Print roundtrips with the parser, so distinct patterns render
/// distinctly. The graph half of the cache key is the identity token
/// carried by the cache snapshot itself.
std::string PlanFingerprint(const GraphPattern& pattern);

/// The cached entry of `g` for `fingerprint`, or nullptr on a miss (also
/// when the stored snapshot belongs to a different graph identity). When
/// `registry` is non-null the outcome is counted there as
/// gpml_plan_cache_hits_total / gpml_plan_cache_misses_total — the engine
/// passes the graph's registry unless metrics publication is disabled.
std::shared_ptr<const CachedPlan> LookupPlan(
    const PropertyGraph& g, const std::string& fingerprint,
    obs::MetricsRegistry* registry = nullptr);

/// Publishes `entry` under `fingerprint` by copy-on-write: loads the current
/// snapshot, copies it extended with the entry, and stores it back. Racing
/// publishers may overwrite each other's entry (last store wins); that only
/// costs a later recompute, never correctness.
void StorePlan(const PropertyGraph& g, const std::string& fingerprint,
               std::shared_ptr<const CachedPlan> entry);

}  // namespace planner
}  // namespace gpml

#endif  // GPML_PLANNER_PLAN_CACHE_H_
