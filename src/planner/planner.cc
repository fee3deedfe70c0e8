#include "planner/planner.h"

#include <algorithm>
#include <set>

#include "graph/property_graph.h"

namespace gpml {
namespace planner {

namespace {

// ---------------------------------------------------------------------------
// Pattern mirroring
// ---------------------------------------------------------------------------

EdgeOrientation MirrorOrientation(EdgeOrientation o) {
  switch (o) {
    case EdgeOrientation::kLeft: return EdgeOrientation::kRight;
    case EdgeOrientation::kRight: return EdgeOrientation::kLeft;
    case EdgeOrientation::kLeftOrUndirected:
      return EdgeOrientation::kUndirectedOrRight;
    case EdgeOrientation::kUndirectedOrRight:
      return EdgeOrientation::kLeftOrUndirected;
    case EdgeOrientation::kUndirected:
    case EdgeOrientation::kLeftOrRight:
    case EdgeOrientation::kAny:
      return o;  // Symmetric.
  }
  return o;
}

PathElement ReverseElement(const PathElement& e) {
  PathElement out = e;
  switch (e.kind) {
    case PathElement::Kind::kNode:
      break;
    case PathElement::Kind::kEdge:
      out.edge.orientation = MirrorOrientation(e.edge.orientation);
      break;
    case PathElement::Kind::kParen:
    case PathElement::Kind::kQuantified:
    case PathElement::Kind::kOptional:
      out.sub = ReversePathPattern(e.sub);
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reversal safety
// ---------------------------------------------------------------------------

void CollectDeclaredVars(const PathPattern& p, std::set<std::string>* out) {
  switch (p.kind) {
    case PathPattern::Kind::kConcat:
      for (const PathElement& e : p.elements) {
        switch (e.kind) {
          case PathElement::Kind::kNode:
            if (!e.node.var.empty()) out->insert(e.node.var);
            break;
          case PathElement::Kind::kEdge:
            if (!e.edge.var.empty()) out->insert(e.edge.var);
            break;
          case PathElement::Kind::kParen:
          case PathElement::Kind::kQuantified:
          case PathElement::Kind::kOptional:
            CollectDeclaredVars(*e.sub, out);
            break;
        }
      }
      break;
    case PathPattern::Kind::kUnion:
    case PathPattern::Kind::kAlternation:
      for (const PathPatternPtr& alt : p.alternatives) {
        CollectDeclaredVars(*alt, out);
      }
      break;
  }
}

bool WhereLocal(const ExprPtr& where, const std::set<std::string>& allowed) {
  if (where == nullptr) return true;
  std::vector<std::string> refs;
  where->CollectVariables(&refs);
  for (const std::string& r : refs) {
    if (allowed.count(r) == 0) return false;
  }
  return true;
}

bool ReversalSafeWalk(const PathPattern& p) {
  switch (p.kind) {
    case PathPattern::Kind::kAlternation:
      // |+| provenance tags are recorded in traversal order; mirroring
      // permutes nested tag sequences in a way plain reversal can't undo.
      return false;
    case PathPattern::Kind::kUnion:
      for (const PathPatternPtr& alt : p.alternatives) {
        if (!ReversalSafeWalk(*alt)) return false;
      }
      return true;
    case PathPattern::Kind::kConcat:
      for (const PathElement& e : p.elements) {
        switch (e.kind) {
          case PathElement::Kind::kNode:
            if (!WhereLocal(e.node.where, {e.node.var})) return false;
            break;
          case PathElement::Kind::kEdge:
            if (!WhereLocal(e.edge.where, {e.edge.var})) return false;
            break;
          case PathElement::Kind::kParen:
          case PathElement::Kind::kQuantified:
          case PathElement::Kind::kOptional: {
            if (!ReversalSafeWalk(*e.sub)) return false;
            std::set<std::string> declared;
            CollectDeclaredVars(*e.sub, &declared);
            if (!WhereLocal(e.where, declared)) return false;
            break;
          }
        }
      }
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Endpoint extraction and estimation
// ---------------------------------------------------------------------------

const NodePattern* EndNodeOf(const PathPattern& p, bool last) {
  if (p.kind != PathPattern::Kind::kConcat || p.elements.empty()) {
    return nullptr;  // Union endpoints differ per branch: not extractable.
  }
  const PathElement& e = last ? p.elements.back() : p.elements.front();
  switch (e.kind) {
    case PathElement::Kind::kNode:
      return &e.node;
    case PathElement::Kind::kParen:
      return EndNodeOf(*e.sub, last);
    case PathElement::Kind::kQuantified:
      // With at least one mandatory iteration the path's end node is the
      // body's end node; with min=0 the quantifier can vanish entirely.
      return e.min >= 1 ? EndNodeOf(*e.sub, last) : nullptr;
    case PathElement::Kind::kEdge:
    case PathElement::Kind::kOptional:
      return nullptr;
  }
  return nullptr;
}

/// Expected first-hop fanout of the endpoint: how many adjacencies survive
/// the adjacent edge pattern's label and orientation, per surviving seed.
/// Falls back to per-label (or graph-wide) average degree when the adjacent
/// edge or the label-path frequencies can't pin it down.
double EndpointFanout(const PathPattern& p, bool right_end,
                      const SeedEstimate& est, const GraphStats& stats) {
  double fallback = est.label.empty() ? stats.AvgDegreeOverall()
                                      : stats.AvgDegree(est.label);
  if (p.kind != PathPattern::Kind::kConcat || p.elements.size() < 2) {
    return fallback;
  }
  const PathElement& e =
      right_end ? p.elements[p.elements.size() - 2] : p.elements[1];
  if (e.kind != PathElement::Kind::kEdge) return fallback;
  if (e.edge.labels == nullptr || e.edge.labels->kind != LabelExpr::Kind::kName)
    return fallback;
  if (est.label.empty()) return fallback;
  double denom = static_cast<double>(stats.NodeLabelCount(est.label));
  if (denom <= 0) return fallback;

  // Orientation as seen when walking away from this endpoint.
  EdgeOrientation o = right_end ? MirrorOrientation(e.edge.orientation)
                                : e.edge.orientation;
  bool forward = o == EdgeOrientation::kRight ||
                 o == EdgeOrientation::kUndirectedOrRight ||
                 o == EdgeOrientation::kLeftOrRight ||
                 o == EdgeOrientation::kAny;
  bool backward = o == EdgeOrientation::kLeft ||
                  o == EdgeOrientation::kLeftOrUndirected ||
                  o == EdgeOrientation::kLeftOrRight ||
                  o == EdgeOrientation::kAny;
  bool undirected = o == EdgeOrientation::kUndirected ||
                    o == EdgeOrientation::kLeftOrUndirected ||
                    o == EdgeOrientation::kUndirectedOrRight ||
                    o == EdgeOrientation::kAny;

  // label_path_counts mixes directed and undirected edges (the latter in
  // both orders); subtract the undirected share to cost each admissible
  // traversal kind with exactly the edges it can cross.
  const std::string& el = e.edge.labels->name;
  double out_all = 0, out_und = 0, in_all = 0, in_und = 0;
  for (const auto& [key, c] : stats.label_path_counts) {
    if (std::get<1>(key) != el) continue;
    if (std::get<0>(key) == est.label) out_all += c;
    if (std::get<2>(key) == est.label) in_all += c;
  }
  for (const auto& [key, c] : stats.undirected_label_path_counts) {
    if (std::get<1>(key) != el) continue;
    if (std::get<0>(key) == est.label) out_und += c;
    if (std::get<2>(key) == est.label) in_und += c;
  }
  double count = 0;
  if (forward) count += out_all - out_und;
  if (backward) count += in_all - in_und;
  if (undirected) count += out_und;  // Both orders recorded: one suffices.
  return count / denom;
}

/// A top-level AND-conjunct of `where` of the shape `var.prop = literal`
/// or `var.prop = $param` (either operand order); fills prop and either
/// value or param. Literals must be non-null because `= NULL` is never
/// kTrue (a $param may still be bound to NULL — the engine falls back to
/// label-scan seeding in that case); top-level because an equality under
/// OR/NOT is not necessary for the predicate to hold.
bool FindEqualityConjunct(const Expr& where, const std::string& var,
                          std::string* prop, Value* value,
                          std::string* param) {
  if (where.kind == Expr::Kind::kBinary && where.op == BinaryOp::kAnd) {
    return FindEqualityConjunct(*where.lhs, var, prop, value, param) ||
           FindEqualityConjunct(*where.rhs, var, prop, value, param);
  }
  if (where.kind != Expr::Kind::kBinary || where.op != BinaryOp::kEq) {
    return false;
  }
  auto is_rhs = [](const Expr& e) {
    return e.kind == Expr::Kind::kLiteral || e.kind == Expr::Kind::kParam;
  };
  const Expr* access = nullptr;
  const Expr* operand = nullptr;
  if (where.lhs->kind == Expr::Kind::kPropertyAccess && is_rhs(*where.rhs)) {
    access = where.lhs.get();
    operand = where.rhs.get();
  } else if (where.rhs->kind == Expr::Kind::kPropertyAccess &&
             is_rhs(*where.lhs)) {
    access = where.rhs.get();
    operand = where.lhs.get();
  } else {
    return false;
  }
  if (access->var != var || var.empty() || access->property == "*") {
    return false;
  }
  if (operand->kind == Expr::Kind::kLiteral) {
    if (operand->literal.is_null()) return false;
    *value = operand->literal;
  } else {
    *param = operand->var;
  }
  *prop = access->property;
  return true;
}

SeedEstimate EstimateEndpoint(const NodePattern* np, const GraphStats& stats,
                              const PlannerConfig& config) {
  SeedEstimate est;
  double n = static_cast<double>(stats.num_nodes);
  if (np == nullptr) {
    est.enumerated = n;
    est.survivors = n;
    return est;
  }
  est.has_node = true;
  // Mirror the matcher's seeding rule: seed from the most selective
  // required label conjunct (a plain name, or any name a conjunction
  // requires); anything else scans all nodes.
  if (np->labels != nullptr) {
    std::vector<const std::string*> required;
    np->labels->CollectRequiredNames(&required);
    const std::string* best = nullptr;
    size_t best_count = 0;
    for (const std::string* name : required) {
      size_t count = stats.NodeLabelCount(*name);
      if (best == nullptr || count < best_count) {
        best = name;
        best_count = count;
      }
    }
    if (best != nullptr) {
      est.label = *best;
      est.enumerated = static_cast<double>(best_count);
    } else {
      est.enumerated = n;
    }
  } else {
    est.enumerated = n;
  }
  SelectivityHints hints;
  hints.var = np->var;
  hints.label = est.label;
  hints.label_count = est.label.empty() ? n : est.enumerated;
  est.selectivity = PredicateSelectivity(np->where, config, hints);
  est.survivors = EstimateLabelCardinality(np->labels, stats) *
                  est.selectivity;
  est.survivors = std::min(est.survivors, est.enumerated);

  // Index-backed seeding: a labeled endpoint with an inline equality
  // predicate can seed from the (label, prop) = value hash index. The cost
  // comparison against the label scan is the eq-selectivity discount on the
  // enumerated seeds (exact bucket size when histograms are available); the
  // index is never larger than the label scan, so this estimate errs
  // conservative.
  if (!est.label.empty() && np->where != nullptr &&
      FindEqualityConjunct(*np->where, np->var, &est.index_prop,
                           &est.index_value, &est.index_param)) {
    if (config.histograms != nullptr && est.index_param.empty()) {
      double exact = static_cast<double>(
          config.histograms
              ->IndexedNodes(est.label, est.index_prop, est.index_value)
              .size());
      est.enumerated = std::min(est.enumerated, exact);
    } else {
      est.enumerated *= config.eq_selectivity;
    }
    est.survivors = std::min(est.survivors, est.enumerated);
  }
  return est;
}

// ---------------------------------------------------------------------------
// Join variables
// ---------------------------------------------------------------------------

/// Named unconditional non-group singletons declared both in decl
/// `decl_index` and in any already-planned declaration — the same rule the
/// engine's hash join uses.
std::vector<int> JoinVars(const VarTable& vars, int decl_index,
                          const std::set<int>& processed) {
  std::vector<int> out;
  for (int v = 0; v < vars.size(); ++v) {
    const VarInfo& info = vars.info(v);
    if (info.anonymous || info.group || info.conditional) continue;
    if (info.kind == VarInfo::Kind::kPath) continue;
    bool in_this = false;
    bool in_processed = false;
    for (int d : info.decls) {
      if (d == decl_index) in_this = true;
      if (processed.count(d) > 0) in_processed = true;
    }
    if (in_this && in_processed) out.push_back(v);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public helpers
// ---------------------------------------------------------------------------

PathPatternPtr ReversePathPattern(const PathPatternPtr& p) {
  if (p == nullptr) return nullptr;
  switch (p->kind) {
    case PathPattern::Kind::kConcat: {
      std::vector<PathElement> elements;
      elements.reserve(p->elements.size());
      for (auto it = p->elements.rbegin(); it != p->elements.rend(); ++it) {
        elements.push_back(ReverseElement(*it));
      }
      return PathPattern::Concat(std::move(elements));
    }
    case PathPattern::Kind::kUnion:
    case PathPattern::Kind::kAlternation: {
      std::vector<PathPatternPtr> alts;
      alts.reserve(p->alternatives.size());
      for (const PathPatternPtr& alt : p->alternatives) {
        alts.push_back(ReversePathPattern(alt));
      }
      return p->kind == PathPattern::Kind::kUnion
                 ? PathPattern::Union(std::move(alts))
                 : PathPattern::Alternation(std::move(alts));
    }
  }
  return p;
}

bool ReversalSafe(const PathPatternDecl& decl) {
  switch (decl.selector.kind) {
    case Selector::Kind::kNone:
    case Selector::Kind::kAllShortest:
    case Selector::Kind::kShortestKGroup:
      break;  // Full enumeration or a deterministic subset: direction-free.
    default:
      return false;  // ANY-family selectors pick direction-dependent
                     // witnesses; mirroring would change results.
  }
  return ReversalSafeWalk(*decl.pattern);
}

void UnreverseMatchSet(MatchSet* match) {
  for (PathBinding& pb : match->bindings) {
    std::reverse(pb.reduced.begin(), pb.reduced.end());
    std::reverse(pb.tags.begin(), pb.tags.end());
    pb.path = pb.path.Reversed();
  }
}

double EstimateLabelCardinality(const LabelExprPtr& labels,
                                const GraphStats& stats) {
  double n = static_cast<double>(stats.num_nodes);
  if (labels == nullptr) return n;
  switch (labels->kind) {
    case LabelExpr::Kind::kName:
      return static_cast<double>(stats.NodeLabelCount(labels->name));
    case LabelExpr::Kind::kWildcard:
      return static_cast<double>(stats.num_labeled_nodes);
    case LabelExpr::Kind::kNot:
      return std::max(n - EstimateLabelCardinality(labels->left, stats), 0.0);
    case LabelExpr::Kind::kAnd:
      return std::min(EstimateLabelCardinality(labels->left, stats),
                      EstimateLabelCardinality(labels->right, stats));
    case LabelExpr::Kind::kOr:
      return std::min(n, EstimateLabelCardinality(labels->left, stats) +
                             EstimateLabelCardinality(labels->right, stats));
  }
  return n;
}

namespace {

/// Exact selectivity of `hints.var.prop = literal` from the property seed
/// index histogram: bucket count over label count, clamped to [0, 1].
/// Negative when the conjunct doesn't resolve (wrong shape, other variable,
/// $param operand, no label, empty histogram context).
double ExactEqualitySelectivity(const Expr& eq, const PlannerConfig& config,
                                const SelectivityHints& hints) {
  if (config.histograms == nullptr || hints.label.empty() ||
      hints.var.empty() || hints.label_count <= 0) {
    return -1.0;
  }
  const Expr* access = nullptr;
  const Expr* literal = nullptr;
  if (eq.lhs->kind == Expr::Kind::kPropertyAccess &&
      eq.rhs->kind == Expr::Kind::kLiteral) {
    access = eq.lhs.get();
    literal = eq.rhs.get();
  } else if (eq.rhs->kind == Expr::Kind::kPropertyAccess &&
             eq.lhs->kind == Expr::Kind::kLiteral) {
    access = eq.rhs.get();
    literal = eq.lhs.get();
  } else {
    return -1.0;
  }
  if (access->var != hints.var || access->property == "*" ||
      literal->literal.is_null()) {
    return -1.0;
  }
  double count = static_cast<double>(
      config.histograms
          ->IndexedNodes(hints.label, access->property, literal->literal)
          .size());
  return std::min(1.0, count / hints.label_count);
}

}  // namespace

double PredicateSelectivity(const ExprPtr& where, const PlannerConfig& config,
                            const SelectivityHints& hints) {
  if (where == nullptr) return 1.0;
  switch (where->kind) {
    case Expr::Kind::kBinary:
      switch (where->op) {
        case BinaryOp::kAnd:
          return PredicateSelectivity(where->lhs, config, hints) *
                 PredicateSelectivity(where->rhs, config, hints);
        case BinaryOp::kOr: {
          double a = PredicateSelectivity(where->lhs, config, hints);
          double b = PredicateSelectivity(where->rhs, config, hints);
          return std::min(1.0, a + b - a * b);
        }
        case BinaryOp::kEq: {
          double exact = ExactEqualitySelectivity(*where, config, hints);
          return exact >= 0 ? exact : config.eq_selectivity;
        }
        case BinaryOp::kNeq:
          return config.neq_selectivity;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return config.range_selectivity;
        default:
          return config.default_selectivity;
      }
    case Expr::Kind::kNot:
      return std::max(0.0,
                      1.0 - PredicateSelectivity(where->lhs, config, hints));
    case Expr::Kind::kIsNull:
      return where->negated ? config.neq_selectivity : config.eq_selectivity;
    case Expr::Kind::kLiteral:
      return 1.0;  // TRUE/FALSE literals are rare; don't special-case.
    default:
      return config.default_selectivity;
  }
}

double PredicateSelectivity(const ExprPtr& where,
                            const PlannerConfig& config) {
  return PredicateSelectivity(where, config, SelectivityHints{});
}

const NodePattern* FirstNodeOf(const PathPattern& p) {
  return EndNodeOf(p, /*last=*/false);
}

const NodePattern* LastNodeOf(const PathPattern& p) {
  return EndNodeOf(p, /*last=*/true);
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

Result<Plan> PlanPattern(const GraphPattern& normalized, const VarTable& vars,
                         const GraphStats& stats,
                         const PlannerConfig& config) {
  Plan plan;
  const size_t n = normalized.paths.size();

  struct Cand {
    const NodePattern* first = nullptr;
    const NodePattern* last = nullptr;
    SeedEstimate left, right;
    int left_var = -1, right_var = -1;
    bool safe = false;
  };
  std::vector<Cand> cands(n);
  for (size_t d = 0; d < n; ++d) {
    const PathPatternDecl& decl = normalized.paths[d];
    Cand& c = cands[d];
    c.first = FirstNodeOf(*decl.pattern);
    c.last = LastNodeOf(*decl.pattern);
    c.left = EstimateEndpoint(c.first, stats, config);
    c.right = EstimateEndpoint(c.last, stats, config);
    c.left.fanout = EndpointFanout(*decl.pattern, false, c.left, stats);
    c.right.fanout = EndpointFanout(*decl.pattern, true, c.right, stats);
    if (c.first != nullptr) c.left_var = vars.Find(c.first->var);
    if (c.last != nullptr) c.right_var = vars.Find(c.last->var);
    c.safe = ReversalSafe(decl);
  }

  std::set<int> processed;
  std::vector<bool> done(n, false);
  while (processed.size() < n) {
    // Greedy pick: prefer declarations whose anchor endpoint is already
    // bound (restricted seed list), then ones sharing any join variable
    // (selective hash join), then the cheapest remaining; original index
    // breaks ties so equal-cost declarations keep source order.
    int best = -1;
    int best_class = 3;
    double best_cost = 0;
    std::vector<int> best_join;
    for (size_t d = 0; d < n; ++d) {
      if (done[d]) continue;
      const Cand& c = cands[d];
      std::vector<int> join =
          JoinVars(vars, static_cast<int>(d), processed);
      auto is_join_var = [&join](int v) {
        return v >= 0 &&
               std::find(join.begin(), join.end(), v) != join.end();
      };
      bool left_bound = is_join_var(c.left_var);
      bool right_bound = is_join_var(c.right_var) && c.safe;
      int cls = (left_bound || right_bound) ? 0 : (join.empty() ? 2 : 1);
      double cost = c.left.Cost();
      if (c.safe) cost = std::min(cost, c.right.Cost());
      if (best < 0 || cls < best_class ||
          (cls == best_class && cost < best_cost)) {
        best = static_cast<int>(d);
        best_class = cls;
        best_cost = cost;
        best_join = std::move(join);
      }
    }

    const Cand& c = cands[static_cast<size_t>(best)];
    const PathPatternDecl& decl = normalized.paths[static_cast<size_t>(best)];
    auto is_join_var = [&best_join](int v) {
      return v >= 0 && std::find(best_join.begin(), best_join.end(), v) !=
                           best_join.end();
    };
    bool left_bound = is_join_var(c.left_var);
    bool right_bound = is_join_var(c.right_var);

    DeclPlan dp;
    dp.decl_index = best;
    dp.join_vars = best_join;
    // Direction: a bound end wins outright (its seed list is the join
    // bindings, typically tiny); otherwise the statistically cheaper end,
    // with hysteresis toward the written direction.
    if (c.safe && right_bound && !left_bound) {
      dp.reversed = true;
    } else if (c.safe && !left_bound && !right_bound) {
      dp.reversed = c.right.Cost() * config.reverse_margin < c.left.Cost();
    }
    dp.anchor = dp.reversed ? c.right : c.left;
    dp.other = dp.reversed ? c.left : c.right;
    dp.anchor_var = dp.reversed ? c.right_var : c.left_var;
    if (is_join_var(dp.anchor_var)) dp.seed_bound_var = dp.anchor_var;
    const int other_var = dp.reversed ? c.left_var : c.right_var;
    if (is_join_var(other_var)) dp.target_bound_var = other_var;
    if (dp.reversed) {
      dp.decl = decl;
      dp.decl.pattern = ReversePathPattern(decl.pattern);
    } else {
      dp.decl = decl;
    }

    done[static_cast<size_t>(best)] = true;
    processed.insert(best);
    plan.decls.push_back(std::move(dp));
  }
  return plan;
}

}  // namespace planner
}  // namespace gpml
