#ifndef GPML_EVAL_REFERENCE_EVAL_H_
#define GPML_EVAL_REFERENCE_EVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/result.h"
#include "eval/binding.h"
#include "eval/engine.h"
#include "eval/matcher.h"
#include "graph/property_graph.h"

namespace gpml {

/// The reference evaluator implements the execution model of Section 6
/// *literally*: patterns are expanded into a set of rigid patterns (fixed
/// quantifier iteration counts, one union/alternation branch each, §6.3),
/// each rigid pattern is matched and joined (§6.4), bindings are reduced and
/// deduplicated (§6.5), and selectors run last. It exists for two purposes:
///
///  * it regenerates the intermediate artifacts of the paper's worked
///    example (the rigid patterns π(n,ℓ) and their annotated bindings);
///  * it differentially tests the production NFA engine: both must produce
///    identical reduced binding sets on every graph and pattern.
///
/// Unbounded quantifiers are expanded up to a cap. With a restrictor in
/// scope the cap is exact (TRAIL paths have at most |E| edges, ACYCLIC /
/// SIMPLE at most |N|); with only a selector the cap is a configured
/// approximation — fine for the differential tests, which compare against
/// shortest-path results on small graphs.
struct ReferenceOptions {
  /// 0 = auto: |E|+1 under TRAIL, |N|+1 under ACYCLIC/SIMPLE,
  /// 2|N|+2 otherwise.
  uint64_t expansion_cap = 0;
  size_t max_rigid_patterns = 200000;
  size_t max_matches = 1u << 20;
};

/// One item of a rigid pattern: an annotated node or edge pattern. The
/// annotation (the paper's superscripts) is the iteration path, e.g. b in
/// the third iteration of the first quantifier is rendered "b^3".
struct RigidItem {
  bool is_node = true;
  const NodePattern* node = nullptr;
  const EdgePattern* edge = nullptr;
  int var = -1;             // Interned base variable.
  std::string suffix;       // Iteration annotation ("", "^3", "^3^1", ...).
};

/// A WHERE attached to a segment of the rigid pattern (parenthesized or
/// per-iteration predicate), evaluated when the segment completes.
struct RigidWhere {
  ExprPtr expr;
  size_t from = 0;  // Item range [from, to).
  size_t to = 0;
  std::string suffix;  // Resolution context for singleton references.
};

/// A restrictor over a segment of the rigid pattern.
struct RigidScope {
  Restrictor restrictor = Restrictor::kNone;
  size_t from = 0;
  size_t to = 0;
};

struct RigidPattern {
  std::vector<RigidItem> items;
  std::vector<RigidWhere> wheres;
  std::vector<RigidScope> scopes;
  std::vector<int32_t> tags;

  /// Rendering à la §6.3: (a)-[b^1:Transfer...]->($n2^1)...
  std::string ToString(const VarTable& vars) const;
};

/// Expands a normalized declaration into rigid patterns (§6.3). Exposed so
/// tests can reproduce the paper's π(n,ℓ) listings.
Result<std::vector<RigidPattern>> ExpandPattern(
    const PathPatternDecl& decl, const VarTable& vars,
    const PropertyGraph& g, const ReferenceOptions& options);

/// Full reference evaluation of one declaration (§6.3–§6.5 + selector).
Result<MatchSet> RunReference(const PropertyGraph& g,
                              const PathPatternDecl& decl,
                              const VarTable& vars,
                              const ReferenceOptions& options);

/// Full reference evaluation of a normalized graph pattern (§6.5 "Multiple
/// patterns"), literally: RunReference per declaration, a nested-loop join
/// of the match sets on the singleton variables the declarations share,
/// the match mode (DIFFERENT EDGES / DIFFERENT NODES), then the final WHERE
/// through RowScope. Rows hold one binding per declaration in source order;
/// they come in nested-loop order, which callers compare as a multiset.
/// `options.max_matches` bounds the joined rows too. The planner's oracle:
/// no plan, no seed or target restriction, no hash join.
Result<MatchOutput> RunReferencePattern(const PropertyGraph& g,
                                        const GraphPattern& normalized,
                                        std::shared_ptr<const VarTable> vars,
                                        const ReferenceOptions& options);

}  // namespace gpml

#endif  // GPML_EVAL_REFERENCE_EVAL_H_
