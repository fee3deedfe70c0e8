#ifndef GPML_OBS_QUERY_STATS_H_
#define GPML_OBS_QUERY_STATS_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/execution_record.h"
#include "obs/metrics.h"

namespace gpml {
namespace obs {

/// What the engine reports to the store when one execution completes —
/// success, error, or budget truncation alike. Keyed by the parameterized
/// plan-cache fingerprint (Print of the normalized pattern, $names kept),
/// so literal-varying executions of one shape aggregate under one entry:
/// the pg_stat_statements model.
struct QueryObservation {
  std::string fingerprint;   // Parameterized pattern text.
  uint64_t graph_token = 0;  // PropertyGraph::identity_token of the run.
  std::string tenant;        // Server tenant ("" for in-process hosts).
  uint64_t plan_hash = 0;    // Stable hash of the compiled EXPLAIN text.
  double total_ms = 0;       // Wall clock of the execution.
  uint64_t rows = 0;
  uint64_t seeds = 0;
  uint64_t steps = 0;
  bool error = false;
  bool truncated = false;      // Budget tripped under kTruncate.
  bool cache_hit = false;      // Plan came from the plan cache.
  bool batch_engaged = false;  // The vectorized path ran >= 1 block.
};

/// Per-plan latency summary inside an entry: one row of the last-N
/// distinct-plans ring. `plan_hash` hashes the compiled EXPLAIN rendering,
/// so a replan that flips anchor/index/batch decisions produces a new row
/// even though the fingerprint (and so the entry) stays the same.
struct PlanRecord {
  uint64_t plan_hash = 0;
  uint64_t first_seen_us = 0;  // MonotonicMicros of the first execution.
  uint64_t last_seen_us = 0;   // ... and the most recent one.
  uint64_t calls = 0;
  double total_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

/// POD snapshot of one fingerprint's cumulative statistics.
struct QueryStatEntry {
  std::string fingerprint;
  uint64_t graph_token = 0;
  std::string tenant;

  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t truncations = 0;
  uint64_t rows = 0;
  uint64_t seeds = 0;
  uint64_t steps = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t batch_calls = 0;  // Executions where the batch path engaged.
  double total_ms = 0;
  double min_ms = 0;
  double max_ms = 0;

  /// Log2 latency histogram, same bounds as obs::Histogram: bucket i
  /// counts executions <= 2^i microseconds, last slot is overflow.
  std::vector<uint64_t> latency_buckets;  // kNumBounds finite + 1 overflow.

  /// The last kMaxPlans distinct plans seen, oldest first; back() is the
  /// plan currently in use.
  std::vector<PlanRecord> plans;
  /// A later execution arrived under a plan hash different from the entry's
  /// current one — the planner (or a flag flip) changed its mind for this
  /// fingerprint. Sticky until the entry is evicted.
  bool plan_changed = false;
  /// Times the current-plan hash flipped (revisiting an old plan counts).
  uint64_t plan_changes = 0;
};

/// A bounded, LRU-evicted store of cumulative per-fingerprint statistics.
/// One mutex, one short critical section per *completed execution* —
/// completion is not the matcher's inner loop (bench_obs pins it as the one
/// lock an execution publishes with; "lock-cheap", not lock-free: the
/// per-entry histogram and plan ring make per-field atomics impractical).
///
/// Entries are keyed by (tenant, fingerprint): the server keeps tenants'
/// workloads distinguishable, in-process hosts all record under tenant ""
/// Graph identity is a field, not a key — host surfaces filter on it
/// (Session::QueryStats / pgq::GraphTableQueryStats), matching the
/// slow-query log's discipline.
class QueryStatsStore {
 public:
  static constexpr size_t kDefaultCapacity = 1024;
  static constexpr size_t kMaxPlans = 4;

  explicit QueryStatsStore(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// What one Record call did, so the caller can publish counters without
  /// re-deriving store state (which would race).
  struct RecordOutcome {
    /// The observation arrived under a plan hash different from the
    /// entry's current plan — a plan change (an entry's first observation
    /// is never a change: there was no prior plan to change from).
    bool plan_changed = false;
    bool new_entry = false;  // First observation of this (tenant, query).
    bool evicted = false;    // Making room dropped the LRU entry.
  };

  /// Folds one completed execution into its entry (created on first
  /// sight, evicting the least-recently-updated entry at capacity).
  RecordOutcome Record(const QueryObservation& obs);

  /// The engine's fold: the same aggregation, read straight from the
  /// execution record and keyed by (tenant, fingerprint) with the
  /// fingerprint's hash precomputed (HashFingerprint, cached on the plan).
  /// A hit compares the strings in place; they are copied only into a new
  /// entry.
  RecordOutcome Record(const std::string& tenant,
                       const std::string& fingerprint,
                       uint64_t fingerprint_hash, uint64_t graph_token,
                       const ExecutionRecord& record);

  /// All retained entries, most-recently-updated first.
  std::vector<QueryStatEntry> Snapshot() const;

  uint64_t total_recorded() const;
  uint64_t evictions() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  struct Entry {
    uint64_t key_hash = 0;
    QueryStatEntry stats;
  };
  using Lru = std::list<Entry>;

  mutable std::mutex mu_;
  const size_t capacity_;
  Lru lru_;  // Front = most recently updated.
  // Key hash -> entry; colliding keys are told apart by their strings.
  std::unordered_multimap<uint64_t, Lru::iterator> index_;
  uint64_t recorded_ = 0;
  uint64_t evictions_ = 0;
};

/// 64-bit FNV-1a of a stats fingerprint: the hash CachedPlan precomputes
/// so executions never rehash the text.
uint64_t HashFingerprint(const std::string& fingerprint);

/// 64-bit FNV-1a of a rendered plan — the stable plan hash. Pure function
/// of the text, so identical EXPLAIN renderings (cache hits, re-plans that
/// reach the same plan) hash identically across processes and runs.
uint64_t HashPlanText(const std::string& explain_text);

/// The process-wide store the engine uses when EngineOptions::query_stats
/// is null. Never destroyed (safe during static teardown).
QueryStatsStore& GlobalQueryStats();

}  // namespace obs
}  // namespace gpml

#endif  // GPML_OBS_QUERY_STATS_H_
