#include "obs/execution_record.h"

#include "obs/clock.h"

namespace gpml {
namespace obs {

// Stage histograms share one base metric; the label selects the pipeline
// stage (obs/prometheus.h splits them back).
ExecutionSeries::ExecutionSeries(MetricsRegistry* r)
    : executions(r, "gpml_executions_total"),
      decls(r, "gpml_decls_total"),
      seeded_nodes(r, "gpml_seeded_nodes_total"),
      matcher_steps(r, "gpml_matcher_steps_total"),
      reversed_decls(r, "gpml_reversed_decls_total"),
      seed_filtered_decls(r, "gpml_seed_filtered_decls_total"),
      target_filtered_decls(r, "gpml_target_filtered_decls_total"),
      index_seeded_decls(r, "gpml_index_seeded_decls_total"),
      rows(r, "gpml_rows_total"),
      budget_truncated(r, "gpml_budget_truncated_total"),
      batch_blocks(r, "gpml_batch_blocks_total"),
      slow_queries(r, "gpml_slow_queries_total"),
      batch_survivor_rate(r, "gpml_batch_survivor_rate"),
      stage_plan(r, "gpml_stage_duration_us{stage=\"plan\"}"),
      stage_seed(r, "gpml_stage_duration_us{stage=\"seed\"}"),
      stage_match(r, "gpml_stage_duration_us{stage=\"match\"}"),
      stage_join(r, "gpml_stage_duration_us{stage=\"join\"}"),
      stage_filter(r, "gpml_stage_duration_us{stage=\"filter\"}"),
      query_duration(r, "gpml_query_duration_us"),
      querystats_observations(r, "gpml_querystats_observations_total"),
      querystats_evictions(r, "gpml_querystats_evictions_total"),
      plan_changes(r, "gpml_plan_changes_total"),
      plan_cache_hits(r, "gpml_plan_cache_hits_total"),
      plan_cache_misses(r, "gpml_plan_cache_misses_total"),
      diagnostics_emitted(r, "gpml_diagnostics_emitted_total") {}

void ExecutionSeries::Publish(const ExecutionRecord& record, bool slow) {
  executions->Increment();
  decls->Increment(record.decls);
  seeded_nodes->Increment(record.seeds);
  matcher_steps->Increment(record.steps);
  reversed_decls->Increment(record.reversed_decls);
  seed_filtered_decls->Increment(record.bound_seeded_decls);
  target_filtered_decls->Increment(record.target_filtered_decls);
  index_seeded_decls->Increment(record.index_seeded_decls);
  rows->Increment(record.rows);
  budget_truncated->Increment(record.truncated ? 1 : 0);
  batch_blocks->Increment(record.batch_blocks);
  if (record.batch_candidates > 0) {
    batch_survivor_rate->Observe(
        100.0 * static_cast<double>(record.batch_survivors) /
        static_cast<double>(record.batch_candidates));
  }
  stage_plan->Observe(MsToUs(record.paid_plan_ms()));
  stage_seed->Observe(MsToUs(record.seed_ms));
  stage_match->Observe(MsToUs(record.match_ms));
  stage_join->Observe(MsToUs(record.join_ms));
  stage_filter->Observe(MsToUs(record.filter_ms));
  query_duration->Observe(MsToUs(record.total_ms));
  if (slow) slow_queries->Increment();
}

}  // namespace obs
}  // namespace gpml
