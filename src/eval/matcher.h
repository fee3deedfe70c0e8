#ifndef GPML_EVAL_MATCHER_H_
#define GPML_EVAL_MATCHER_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/result.h"
#include "eval/binding.h"
#include "eval/nfa.h"
#include "eval/params.h"
#include "graph/property_graph.h"

namespace gpml {

/// Evaluation guards. The search is complete and exact; these limits only
/// bound pathological instances (enumeration on dense graphs is inherently
/// exponential, §8's complexity discussion) and surface as
/// kResourceExhausted instead of runaway memory/time.
///
/// The limits apply to the whole RunPattern call, never per worker: with
/// `num_threads > 1` all seed shards draw from one shared atomic budget
/// (see SharedBudget), so a parallel run can never execute more than the
/// configured number of steps plus one charge batch per shard.
struct MatcherOptions {
  /// Bindings kept: an accept counts once it passed the target filter and
  /// the selector's per-partition keep rule (RunPattern) and was not a
  /// duplicate, so an ANY search counts one binding per endpoint pair.
  size_t max_matches = 1u << 20;
  size_t max_steps = 200u << 20;       // Executed instructions.
  /// Seed-partitioned worker threads. 1 (the default) runs the exact
  /// sequential engine; N > 1 runs up to N worker shards that claim
  /// contiguous seed slices in order, searched concurrently and merged back
  /// in seed-index order, which makes results byte-identical to the
  /// sequential run (see docs/parallel.md).
  size_t num_threads = 1;
  /// Minimum seeds per worker shard: seed lists shorter than
  /// 2 * min_seeds_per_shard never fan out, so small queries skip the
  /// thread spawn/join overhead entirely (a query's result is independent
  /// of the shard count, so this is purely a latency knob). Tests set 1 to
  /// force sharding on tiny graphs.
  size_t min_seeds_per_shard = 16;
};

/// Target number of frontier entries expanded per batch block. Candidate
/// gathers run per block, so this bounds the transient candidate arrays
/// while keeping the filter loops long enough to vectorize.
inline constexpr size_t kBatchBlockTarget = 512;

/// One shared step/match budget drawn on by every seed shard of a RunPattern
/// call. Sequential runs charge every step individually, so the limit fires
/// at exactly the same instruction as the historical per-run counters;
/// parallel shards charge in small batches to keep the hot loop off the
/// shared cache line (bounded overshoot: one batch per shard).
class SharedBudget {
 public:
  SharedBudget(size_t max_steps, size_t max_matches)
      : max_steps_(max_steps), max_matches_(max_matches) {}

  /// The message of the status a shard receives when a *sibling* shard
  /// exhausted the budget first: it stops early without a limit violation of
  /// its own, and RunPattern reports the sibling's genuine error instead.
  static constexpr const char* kAbortedBySibling =
      "search aborted: shared budget exhausted by a sibling shard";

  /// Charges `n` executed instructions; kResourceExhausted once the total
  /// exceeds max_steps.
  Status ChargeSteps(size_t n) {
    if (exhausted_.load(std::memory_order_relaxed)) {
      return Status::ResourceExhausted(kAbortedBySibling);
    }
    if (steps_.fetch_add(n, std::memory_order_relaxed) + n > max_steps_) {
      exhausted_.store(true, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "match search exceeded max_steps; tighten the pattern or raise "
          "MatcherOptions::max_steps");
    }
    return Status::OK();
  }

  /// Charges one accepted (post-dedup) binding against max_matches.
  Status ChargeMatch() {
    if (matches_.fetch_add(1, std::memory_order_relaxed) + 1 > max_matches_) {
      exhausted_.store(true, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "match set exceeded max_matches; add restrictors/selectors or "
          "raise MatcherOptions::max_matches");
    }
    return Status::OK();
  }

  /// Tells sibling shards to stop at their next budget check (set when a
  /// shard fails for a non-budget reason, e.g. an expression type error).
  void Abort() { exhausted_.store(true, std::memory_order_relaxed); }

  size_t steps() const { return steps_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> steps_{0};
  std::atomic<size_t> matches_{0};
  std::atomic<bool> exhausted_{false};
  const size_t max_steps_;
  const size_t max_matches_;
};

/// The multiset of reduced path bindings of one path pattern declaration,
/// deduplicated (§6.5) — multiset alternation multiplicity is carried by the
/// provenance tags — in deterministic order (by path length, then discovery).
struct MatchSet {
  std::vector<PathBinding> bindings;
};

/// The search a RunPattern call ran (docs/planner.md, "Selector route";
/// docs/vectorized.md): the per-seed DFS, the block-at-a-time batch
/// matcher, the general selector BFS over full search-state keys, or the
/// witness route of exact-key programs (Program::exact_visit_key).
enum class MatchRoute { kDfs, kBatch, kBfs, kWitness };

/// "dfs", "batch", "bfs" or "witness" (EXPLAIN ANALYZE's actual_route=).
const char* MatchRouteName(MatchRoute route);

/// Execution counters of one RunPattern call (planner benchmarks, EXPLAIN
/// ANALYZE-style reporting). Filled once after all shards join — workers
/// count locally and the totals are merged at the end, so the struct stays
/// plain data with no synchronization.
struct MatchStats {
  size_t seeds = 0;   // Start nodes seeded.
  size_t steps = 0;   // Interpreter instructions executed (summed over shards).
  size_t shards = 0;  // Worker shards the seed list was split into.
  MatchRoute route = MatchRoute::kDfs;  // The route every shard ran.
  // Batch-path counters (zero when the scalar interpreter ran):
  size_t batch_blocks = 0;      // Frontier blocks expanded.
  size_t batch_candidates = 0;  // Adjacency candidates gathered into blocks.
  size_t batch_survivors = 0;   // Candidates surviving all filter passes.
  /// The most search records one slice's arena held at once, over the
  /// slices (zero on the batch route): the memory of the DFS, BFS and
  /// witness routes' paths, environments, frames, scopes and tags.
  size_t arena_records = 0;
  // Wall-clock timings (monotonic clock, see obs/clock.h), always measured:
  // two clock reads per region, far below the bench_obs 2% overhead gate.
  // The engine turns these into trace spans and EngineMetrics/stage-
  // histogram totals (docs/observability.md).
  double seed_ms = 0;             // ComputeSeeds (seed-list derivation).
  double match_ms = 0;            // The whole RunPattern call.
  std::vector<double> shard_ms;   // Per worker shard (all its slices).
};

/// Runs one compiled pattern over the graph: every admissible start node is
/// seeded, matches are collected, reduced, deduplicated, and the selector
/// (if any) is applied per endpoint partition (§5.1).
///
/// Route selection: patterns without a selector enumerate by DFS (the §5
/// termination rules guarantee finiteness through restrictors); patterns
/// with a selector run a level-order BFS that emits matches in increasing
/// path length with per-product-state pruning sound for each selector kind.
/// On that route an accept is recorded only if the selector's keep rule
/// for its endpoint partition (SelectorKeeps) still admits it.
/// Program::exact_visit_key programs run the same BFS as the witness route:
/// compact (pc, node, start) entries keyed exactly, with parent-linked
/// bindings materialized only for kept accepts — same steps, same rows
/// (docs/planner.md, "Selector route").
///
/// With `options.num_threads > 1` the seed list is split into contiguous
/// blocks, one per worker; per-seed searches are independent (the paper's
/// per-start-node determinism, §4–§6), and the per-shard results are merged
/// back in seed-index order, globally deduplicated, and selector-filtered,
/// reproducing the sequential output exactly (differential-tested).
///
/// `seed_filter`, when non-null, replaces the default seeding (label index
/// or all nodes) with the given start nodes — the planner passes the values
/// an earlier declaration bound to the pattern's first variable, which is
/// sound because the join discards every other start. `target_filter`,
/// when non-null, is the sorted list of end nodes a binding may have — the
/// planner passes the values earlier declarations bound to the pattern's
/// last variable — and every other accept is dropped before its binding is
/// built, on every route. `stats`, when non-null, receives execution
/// counters.
///
/// `params` supplies the $name bindings inline predicates may reference
/// (prepared queries); nullptr when the pattern is parameter-free.
///
/// `shared_budget`, when non-null, replaces the call-local step/match
/// budget: the cursor's chunked streaming execution passes one budget
/// across all of its per-chunk RunPattern calls, so a streamed query can
/// never execute more total steps than a single materializing call
/// (single-shard chunks charge per step, exactly like the sequential
/// engine). `budget_exhausted`, when non-null, switches budget exhaustion
/// from an error into partial delivery: the bindings found so far are
/// returned with *budget_exhausted = true (non-budget errors still fail
/// the call). Partial delivery runs as a single shard whatever
/// `num_threads` says, so the partial set is exactly the one the
/// sequential engine returns.
///
/// `program` must be bound to `g` (BindProgramToGraph); an unbound program,
/// or one bound to another graph, fails with kInvalidArgument.
Result<MatchSet> RunPattern(const PropertyGraph& g, const Program& program,
                            const VarTable& vars,
                            const MatcherOptions& options,
                            const std::vector<NodeId>* seed_filter = nullptr,
                            const std::vector<NodeId>* target_filter = nullptr,
                            MatchStats* stats = nullptr,
                            const Params* params = nullptr,
                            SharedBudget* shared_budget = nullptr,
                            bool* budget_exhausted = nullptr);

/// The start-node seed list RunPattern derives for `program`: the explicit
/// filter when given, else the most selective required-label index of the
/// first node check, else all nodes — always distinct node ids in the scan
/// order matching visits them. Exposed so the streaming cursor can walk
/// the same list in chunks (docs/api.md).
std::vector<NodeId> ComputeSeeds(const PropertyGraph& g,
                                 const Program& program,
                                 const std::vector<NodeId>* seed_filter);

}  // namespace gpml

#endif  // GPML_EVAL_MATCHER_H_
