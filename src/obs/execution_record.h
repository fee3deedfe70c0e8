#ifndef GPML_OBS_EXECUTION_RECORD_H_
#define GPML_OBS_EXECUTION_RECORD_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "obs/metrics.h"

namespace gpml {
namespace obs {

/// One execution as every telemetry surface sees it (docs/observability.md):
/// registry counters and stage histograms, the query-stats entry, the span
/// trace, the slow-query capture and EngineMetrics are all views of this
/// record. The materialized path and the streaming cursor fill the same
/// fields, so a streamed and a materialized run of one query produce equal
/// records apart from the durations.
///
/// Plain data: filling it is a handful of adds per declaration or chunk, and
/// it is the only running total either execution path keeps.
struct ExecutionRecord {
  // Per-layer wall times in milliseconds (monotonic clock).
  double parse_ms = 0;    // Text parse, replayed from Prepare (0 when the
                          // query was prepared from a parsed pattern).
  double compile_ms = 0;  // Normalize/analyze + plan + compile cost of the
                          // plan-cache entry; replayed, paid only on a miss.
  double seed_ms = 0;     // Seed-list derivation, over all declarations.
  double match_ms = 0;    // Pattern matching (RunPattern wall).
  double join_ms = 0;     // Cross-declaration hash joins.
  double filter_ms = 0;   // Match-mode filter and final WHERE per row.
  double total_ms = 0;    // The whole execution (cursor: open to finish).

  // Counts, summed over declarations (and chunks, for a stream).
  uint64_t decls = 0;
  uint64_t seeds = 0;
  uint64_t steps = 0;
  uint64_t rows = 0;
  uint64_t batch_blocks = 0;
  uint64_t batch_candidates = 0;
  uint64_t batch_survivors = 0;
  uint64_t arena_records = 0;  // Peak matcher arena records of any one run
                               // (max, not sum: MatchStats::arena_records).

  // Decisions.
  uint64_t reversed_decls = 0;      // Run from the right-end anchor.
  uint64_t index_seeded_decls = 0;  // Seeded from the equality hash index.
  uint64_t bound_seeded_decls = 0;  // Seeded from earlier declarations.
  uint64_t target_filtered_decls = 0;  // End nodes restricted to earlier
                                       // declarations' bindings.
  uint64_t witness_decls = 0;       // Run on the matcher's witness route.
  uint64_t threads = 0;             // Resolved worker count.
  uint64_t plan_hash = 0;           // CachedPlan::plan_hash.
  bool cache_hit = false;           // Plan served from the plan cache.
  bool streamed = false;            // Cursor stream (flat trace) vs.
                                    // materialized (span tree).

  // Outcome.
  bool error = false;      // Failed; the counts are the work spent first.
  bool truncated = false;  // Budget tripped under BudgetPolicy::kTruncate.

  /// The compile cost this execution itself paid: parsing always, the
  /// normalize/plan/compile half only on a plan-cache miss.
  double paid_plan_ms() const {
    return parse_ms + (cache_hit ? 0.0 : compile_ms);
  }
};

/// A registry series resolved on first use and kept for the registry's
/// lifetime: the first call pays the registry's mutexed name lookup, every
/// later one is a single acquire load. Resolving lazily keeps the export
/// unchanged: a series appears only once something was recorded into it.
template <typename Metric>
class SeriesHandle {
 public:
  SeriesHandle(MetricsRegistry* registry, const char* name)
      : registry_(registry), name_(name) {}

  Metric* operator->() { return Get(); }

  Metric* Get() {
    Metric* metric = metric_.load(std::memory_order_acquire);
    if (metric != nullptr) return metric;
    // Racing resolvers get the same pointer from the registry.
    if constexpr (std::is_same_v<Metric, Counter>) {
      metric = registry_->GetCounter(name_);
    } else {
      metric = registry_->GetHistogram(name_);
    }
    metric_.store(metric, std::memory_order_release);
    return metric;
  }

 private:
  MetricsRegistry* const registry_;
  const char* const name_;
  std::atomic<Metric*> metric_{nullptr};
};

/// Every series the engine publishes into a graph's registry, as handles
/// resolved once per registry (MetricsRegistry::execution_series). This is
/// the only place the engine's metric names are spelled out.
struct ExecutionSeries {
  explicit ExecutionSeries(MetricsRegistry* registry);

  // Per completed execution.
  SeriesHandle<Counter> executions;
  SeriesHandle<Counter> decls;
  SeriesHandle<Counter> seeded_nodes;
  SeriesHandle<Counter> matcher_steps;
  SeriesHandle<Counter> reversed_decls;
  SeriesHandle<Counter> seed_filtered_decls;
  SeriesHandle<Counter> target_filtered_decls;
  SeriesHandle<Counter> index_seeded_decls;
  SeriesHandle<Counter> rows;
  SeriesHandle<Counter> budget_truncated;
  SeriesHandle<Counter> batch_blocks;
  SeriesHandle<Counter> slow_queries;
  SeriesHandle<Histogram> batch_survivor_rate;
  SeriesHandle<Histogram> stage_plan;
  SeriesHandle<Histogram> stage_seed;
  SeriesHandle<Histogram> stage_match;
  SeriesHandle<Histogram> stage_join;
  SeriesHandle<Histogram> stage_filter;
  SeriesHandle<Histogram> query_duration;
  // Query-stats store outcomes.
  SeriesHandle<Counter> querystats_observations;
  SeriesHandle<Counter> querystats_evictions;
  SeriesHandle<Counter> plan_changes;
  // Prepare time.
  SeriesHandle<Counter> plan_cache_hits;
  SeriesHandle<Counter> plan_cache_misses;
  SeriesHandle<Counter> diagnostics_emitted;

  /// Publishes one completed execution: the per-execution counters, the
  /// stage and duration histograms, and (when `slow`) the slow-query count.
  void Publish(const ExecutionRecord& record, bool slow);
};

}  // namespace obs
}  // namespace gpml

#endif  // GPML_OBS_EXECUTION_RECORD_H_
