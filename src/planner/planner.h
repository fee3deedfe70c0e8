#ifndef GPML_PLANNER_PLANNER_H_
#define GPML_PLANNER_PLANNER_H_

#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/result.h"
#include "eval/binding.h"
#include "eval/matcher.h"
#include "planner/stats.h"

namespace gpml {
namespace planner {

/// Cost-model knobs. The defaults follow the classic System-R magic
/// selectivities; they only steer direction/order choices, never results.
struct PlannerConfig {
  double eq_selectivity = 0.1;       // x.prop = literal.
  double range_selectivity = 0.3;    // <, <=, >, >=.
  double neq_selectivity = 0.9;      // <>.
  double default_selectivity = 0.5;  // Anything else.
  /// Mirror the pattern only when the right end is better by this factor
  /// (hysteresis: ties and near-ties keep the written direction).
  double reverse_margin = 1.5;
  /// Exact equality histograms: when non-null, `var.prop = literal`
  /// selectivities over a labeled endpoint are computed from the graph's
  /// per-(label, key, value) property seed index counts instead of
  /// eq_selectivity, and index-backed seed estimates use the exact bucket
  /// size. Estimates only — never results. Null keeps the System-R
  /// constants (unit tests exercise the cost model without a graph).
  const PropertyGraph* histograms = nullptr;
};

/// Seed-cost estimate of one endpoint of a path pattern declaration.
struct SeedEstimate {
  bool has_node = false;    // Endpoint node pattern was extractable.
  double enumerated = 0;    // Start nodes the matcher would seed.
  double survivors = 0;     // Seeds surviving label + inline predicate.
  double fanout = 0;        // Expected first-hop expansion per survivor.
  std::string label;        // Label-index source ("" = full node scan).
  std::string index_prop;   // Non-empty: seed from the equality index
                            // (label, index_prop) = index_value.
  Value index_value;
  std::string index_param;  // Non-empty: the equality compares against the
                            // $parameter instead of a literal; the engine
                            // resolves the index value at bind time
                            // (index_value is unset in that case).

  /// The inline-predicate selectivity this estimate used — exact (from the
  /// property seed index histogram) when PlannerConfig::histograms resolved
  /// the predicate, else the System-R constant product. Rendered as `sel~`
  /// on EXPLAIN step lines.
  double selectivity = 1.0;

  bool has_index() const { return !index_prop.empty(); }

  /// The quantity plans are compared on.
  double Cost() const { return enumerated + survivors * (1.0 + fanout); }
};

/// The plan of one path pattern declaration.
struct DeclPlan {
  int decl_index = -1;        // Index in the normalized pattern's `paths`.
  bool reversed = false;      // Compile and run the mirrored pattern.
  int anchor_var = -1;        // Var id of the chosen anchor endpoint (-1 if
                              // not extractable).
  int seed_bound_var = -1;    // == anchor_var when earlier-planned decls bind
                              // it, so the engine seeds from those bindings.
  int target_bound_var = -1;  // The other endpoint's var when earlier-planned
                              // decls bind it, so the engine keeps only
                              // accepts ending at those bindings.
  SeedEstimate anchor;        // Estimate of the chosen end.
  SeedEstimate other;         // Estimate of the rejected end.
  std::vector<int> join_vars; // Equi-join vars vs already-planned decls
                              // (ascending var id).
  PathPatternDecl decl;       // What to compile (mirrored when `reversed`).
};

/// An execution plan for a whole graph pattern: declarations in execution
/// order, each with direction, seed source, and join variables.
struct Plan {
  std::vector<DeclPlan> decls;
};

/// Statistics-driven planning: per declaration, estimates the seed cost of
/// both endpoints, anchors at the cheaper end (mirroring the pattern when
/// that end is the right one and mirroring is semantics-preserving), and
/// greedily orders declarations so ones sharing already-bound singletons run
/// later with restricted seed lists.
Result<Plan> PlanPattern(const GraphPattern& normalized, const VarTable& vars,
                         const GraphStats& stats,
                         const PlannerConfig& config = {});

/// The mirror image of a path pattern: elements in reverse order, edge
/// orientations flipped, subpatterns mirrored recursively.
PathPatternPtr ReversePathPattern(const PathPatternPtr& p);

/// True when running the mirrored pattern and un-mirroring the results is
/// guaranteed to produce the same match set: no multiset alternation (tag
/// provenance is order-sensitive), a deterministic selector (NONE, ALL
/// SHORTEST, SHORTEST k GROUP — the others pick direction-dependent
/// witnesses), and every inline predicate local to its own element (a
/// cross-element predicate could be evaluated before its inputs are bound in
/// the mirrored order).
bool ReversalSafe(const PathPatternDecl& decl);

/// Restores source order of a MatchSet produced by running a mirrored
/// program: reverses each binding's reduced sequence, path, and tags.
void UnreverseMatchSet(MatchSet* match);

/// Estimated number of nodes matching a label expression (exposed for unit
/// tests of the cost model).
double EstimateLabelCardinality(const LabelExprPtr& labels,
                                const GraphStats& stats);

/// Estimated fraction of elements surviving an inline predicate.
double PredicateSelectivity(const ExprPtr& where, const PlannerConfig& config);

/// Context for the histogram-aware overload: which endpoint the predicate
/// filters, so `var.prop = literal` can be resolved against the graph's
/// per-(label, key, value) seed-index counts.
struct SelectivityHints {
  std::string var;     // Endpoint variable name ("" = unknown).
  std::string label;   // Single seeding label ("" = full scan).
  double label_count = 0;  // Estimated elements carrying `label`.
};

/// PredicateSelectivity with exact equality estimates: when
/// config.histograms is set, hints.label is non-empty, and the conjunct is
/// `hints.var.prop = literal`, returns the exact bucket count from the
/// property seed index divided by hints.label_count (clamped to [0, 1]).
/// Every other shape recurses with the same hints and falls back to the
/// System-R constants.
double PredicateSelectivity(const ExprPtr& where, const PlannerConfig& config,
                            const SelectivityHints& hints);

/// Endpoint node patterns of a declaration pattern, when extractable
/// (concatenations, through parentheses and min>=1 quantifier heads).
const NodePattern* FirstNodeOf(const PathPattern& p);
const NodePattern* LastNodeOf(const PathPattern& p);

}  // namespace planner
}  // namespace gpml

#endif  // GPML_PLANNER_PLANNER_H_
