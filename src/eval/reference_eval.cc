#include "eval/reference_eval.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "ast/print.h"
#include "eval/expr_eval.h"
#include "eval/restrictor.h"
#include "eval/selector.h"

namespace gpml {

std::string RigidPattern::ToString(const VarTable& vars) const {
  std::string out;
  for (const RigidItem& it : items) {
    if (it.is_node) {
      NodePattern np = *it.node;
      np.var = vars.name(it.var) + it.suffix;
      out += Print(np);
    } else {
      EdgePattern ep = *it.edge;
      ep.var = vars.name(it.var) + it.suffix;
      out += Print(ep);
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Expansion (§6.3)
// ---------------------------------------------------------------------------

class Expander {
 public:
  Expander(const VarTable& vars, uint64_t cap, size_t max_patterns)
      : vars_(vars), cap_(cap), max_patterns_(max_patterns) {}

  Result<std::vector<RigidPattern>> Expand(const PathPattern& p) {
    return ExpandPath(p, "");
  }

 private:
  Status Guard(size_t n) {
    if (n > max_patterns_) {
      return Status::ResourceExhausted(
          "rigid-pattern expansion exceeded max_rigid_patterns");
    }
    return Status::OK();
  }

  /// Concatenation of two rigid fragments: shifts the right fragment's
  /// where/scope ranges.
  static RigidPattern Concat(const RigidPattern& a, const RigidPattern& b) {
    RigidPattern out = a;
    size_t shift = a.items.size();
    out.items.insert(out.items.end(), b.items.begin(), b.items.end());
    for (RigidWhere w : b.wheres) {
      w.from += shift;
      w.to += shift;
      out.wheres.push_back(std::move(w));
    }
    for (RigidScope s : b.scopes) {
      s.from += shift;
      s.to += shift;
      out.scopes.push_back(s);
    }
    out.tags.insert(out.tags.end(), b.tags.begin(), b.tags.end());
    return out;
  }

  Result<std::vector<RigidPattern>> ExpandPath(const PathPattern& p,
                                               const std::string& suffix) {
    switch (p.kind) {
      case PathPattern::Kind::kConcat: {
        std::vector<RigidPattern> acc = {RigidPattern{}};
        for (const PathElement& e : p.elements) {
          GPML_ASSIGN_OR_RETURN(std::vector<RigidPattern> alts,
                                ExpandElement(e, suffix));
          std::vector<RigidPattern> next;
          next.reserve(acc.size() * alts.size());
          for (const RigidPattern& a : acc) {
            for (const RigidPattern& b : alts) {
              next.push_back(Concat(a, b));
            }
          }
          GPML_RETURN_IF_ERROR(Guard(next.size()));
          acc = std::move(next);
        }
        return acc;
      }
      case PathPattern::Kind::kUnion:
      case PathPattern::Kind::kAlternation: {
        std::vector<RigidPattern> out;
        for (size_t i = 0; i < p.alternatives.size(); ++i) {
          GPML_ASSIGN_OR_RETURN(std::vector<RigidPattern> alts,
                                ExpandPath(*p.alternatives[i], suffix));
          for (RigidPattern& rp : alts) {
            if (p.kind == PathPattern::Kind::kAlternation) {
              rp.tags.insert(rp.tags.begin(), next_tag_base_ +
                                                  static_cast<int32_t>(i));
            }
            out.push_back(std::move(rp));
          }
          GPML_RETURN_IF_ERROR(Guard(out.size()));
        }
        if (p.kind == PathPattern::Kind::kAlternation) {
          next_tag_base_ += static_cast<int32_t>(p.alternatives.size());
        }
        return out;
      }
    }
    return Status::Internal("unknown path pattern kind");
  }

  Result<std::vector<RigidPattern>> ExpandElement(const PathElement& e,
                                                  const std::string& suffix) {
    switch (e.kind) {
      case PathElement::Kind::kNode: {
        RigidPattern rp;
        RigidItem it;
        it.is_node = true;
        it.node = &e.node;
        it.var = vars_.Find(e.node.var);
        it.suffix = suffix;
        rp.items.push_back(std::move(it));
        return std::vector<RigidPattern>{std::move(rp)};
      }
      case PathElement::Kind::kEdge: {
        RigidPattern rp;
        RigidItem it;
        it.is_node = false;
        it.edge = &e.edge;
        it.var = vars_.Find(e.edge.var);
        it.suffix = suffix;
        rp.items.push_back(std::move(it));
        return std::vector<RigidPattern>{std::move(rp)};
      }
      case PathElement::Kind::kParen: {
        GPML_ASSIGN_OR_RETURN(std::vector<RigidPattern> subs,
                              ExpandPath(*e.sub, suffix));
        for (RigidPattern& rp : subs) {
          AttachSegment(e, suffix, &rp);
        }
        return subs;
      }
      case PathElement::Kind::kOptional: {
        GPML_ASSIGN_OR_RETURN(std::vector<RigidPattern> subs,
                              ExpandPath(*e.sub, suffix));
        for (RigidPattern& rp : subs) {
          AttachSegment(e, suffix, &rp);
        }
        subs.push_back(RigidPattern{});  // The skipped alternative.
        return subs;
      }
      case PathElement::Kind::kQuantified: {
        uint64_t hi = e.max.has_value() ? *e.max : cap_;
        std::vector<RigidPattern> out;
        // All iteration counts n in [min, hi]; per-iteration alternatives
        // multiply (each iteration may pick a different branch).
        for (uint64_t n = e.min; n <= hi; ++n) {
          std::vector<RigidPattern> acc = {RigidPattern{}};
          for (uint64_t i = 1; i <= n; ++i) {
            std::string iter_suffix = suffix + "^" + std::to_string(i);
            GPML_ASSIGN_OR_RETURN(std::vector<RigidPattern> body,
                                  ExpandPath(*e.sub, iter_suffix));
            for (RigidPattern& rp : body) {
              RigidPattern seg = rp;
              // Per-iteration WHERE and restrictor wrap each copy.
              AttachSegment(e, iter_suffix, &seg);
              rp = std::move(seg);
            }
            std::vector<RigidPattern> next;
            next.reserve(acc.size() * body.size());
            for (const RigidPattern& a : acc) {
              for (const RigidPattern& b : body) {
                next.push_back(Concat(a, b));
              }
            }
            GPML_RETURN_IF_ERROR(Guard(next.size() + out.size()));
            acc = std::move(next);
          }
          for (RigidPattern& rp : acc) out.push_back(std::move(rp));
          GPML_RETURN_IF_ERROR(Guard(out.size()));
        }
        return out;
      }
    }
    return Status::Internal("unknown path element kind");
  }

  static void AttachSegment(const PathElement& e, const std::string& suffix,
                            RigidPattern* rp) {
    if (e.where != nullptr) {
      RigidWhere w;
      w.expr = e.where;
      w.from = 0;
      w.to = rp->items.size();
      w.suffix = suffix;
      rp->wheres.push_back(std::move(w));
    }
    if (e.restrictor != Restrictor::kNone) {
      RigidScope s;
      s.restrictor = e.restrictor;
      s.from = 0;
      s.to = rp->items.size();
      rp->scopes.push_back(s);
    }
  }

  const VarTable& vars_;
  uint64_t cap_;
  size_t max_patterns_;
  int32_t next_tag_base_ = 1;
};

// ---------------------------------------------------------------------------
// Rigid pattern matching (§6.4)
// ---------------------------------------------------------------------------

/// Scope resolving singleton references by annotated variable with
/// longest-suffix-first fallback: a reference to b inside iteration ^3 sees
/// b^3, while a reference to an outer a sees a (empty suffix).
class RigidScopeEval : public EvalScope {
 public:
  RigidScopeEval(const std::map<std::string, ElementRef>& env,
                 const VarTable& vars, std::string suffix,
                 const std::vector<std::pair<int, ElementRef>>* frame)
      : env_(env), vars_(vars), suffix_(std::move(suffix)), frame_(frame) {}

  std::optional<ElementRef> LookupSingleton(int var) const override {
    std::string suffix = suffix_;
    const std::string& base = vars_.name(var);
    while (true) {
      auto it = env_.find(base + suffix);
      if (it != env_.end()) return it->second;
      if (suffix.empty()) return std::nullopt;
      size_t pos = suffix.rfind('^');
      suffix = pos == std::string::npos ? "" : suffix.substr(0, pos);
    }
  }

  std::vector<ElementRef> CollectGroup(int var) const override {
    std::vector<ElementRef> out;
    if (frame_ == nullptr) return out;
    for (const auto& [v, el] : *frame_) {
      if (v == var) out.push_back(el);
    }
    return out;
  }

 private:
  const std::map<std::string, ElementRef>& env_;
  const VarTable& vars_;
  std::string suffix_;
  const std::vector<std::pair<int, ElementRef>>* frame_;
};

class RigidMatcher {
 public:
  RigidMatcher(const PropertyGraph& g, const VarTable& vars,
               const RigidPattern& rp, size_t max_matches,
               std::vector<PathBinding>* out)
      : g_(g), vars_(vars), rp_(rp), max_matches_(max_matches), out_(out) {}

  Status Run() {
    if (rp_.items.empty()) return Status::OK();
    assignments_.assign(rp_.items.size(), ElementRef());
    traversals_.assign(rp_.items.size(), Traversal::kForward);
    for (NodeId s = 0; s < g_.num_nodes(); ++s) {
      GPML_RETURN_IF_ERROR(Step(0, s));
    }
    return Status::OK();
  }

 private:
  std::string AnnotatedName(const RigidItem& it) const {
    return vars_.name(it.var) + it.suffix;
  }

  Status Step(size_t index, NodeId current) {
    // Segment predicates / restrictors whose range ends here.
    for (const RigidWhere& w : rp_.wheres) {
      if (w.to != index) continue;
      std::vector<std::pair<int, ElementRef>> frame;
      for (size_t i = w.from; i < w.to; ++i) {
        frame.push_back({rp_.items[i].var, assignments_[i]});
      }
      RigidScopeEval scope(env_, vars_, w.suffix, &frame);
      GPML_ASSIGN_OR_RETURN(TriBool ok,
                            EvalPredicate(*w.expr, g_, vars_, scope));
      if (ok != TriBool::kTrue) return Status::OK();
    }
    for (const RigidScope& s : rp_.scopes) {
      if (s.to != index || s.restrictor == Restrictor::kNone) continue;
      if (!SatisfiesRestrictor(SliceToPath(s.from, s.to), s.restrictor)) {
        return Status::OK();
      }
    }

    if (index == rp_.items.size()) return Accept();

    const RigidItem& it = rp_.items[index];
    if (it.is_node) {
      ElementRef ref = ElementRef::Node(current);
      if (it.node->labels != nullptr &&
          !it.node->labels->Matches(g_.LabelNames(ref))) {
        return Status::OK();
      }
      std::string key = AnnotatedName(it);
      auto prev = env_.find(key);
      bool inserted = false;
      if (prev != env_.end()) {
        if (!(prev->second == ref)) return Status::OK();
      } else if (!vars_.info(it.var).anonymous) {
        env_.emplace(key, ref);
        inserted = true;
      }
      bool pass = true;
      if (it.node->where != nullptr) {
        RigidScopeEval scope(env_, vars_, it.suffix, nullptr);
        // The node's own variable might be anonymous and absent from env;
        // temporarily expose it.
        auto self = env_.emplace(key, ref);
        Result<TriBool> ok = EvalPredicate(*it.node->where, g_, vars_, scope);
        if (self.second) env_.erase(key);
        if (!ok.ok()) return ok.status();
        pass = *ok == TriBool::kTrue;
      }
      Status st = Status::OK();
      if (pass) {
        assignments_[index] = ref;
        st = Step(index + 1, current);
      }
      if (inserted) env_.erase(key);
      return st;
    }

    // Edge item: iterate admissible adjacencies.
    for (const Adjacency& adj : g_.adjacencies(current)) {
      if (!Admits(it.edge->orientation, adj.traversal)) continue;
      ElementRef ref = ElementRef::Edge(adj.edge);
      if (it.edge->labels != nullptr &&
          !it.edge->labels->Matches(g_.LabelNames(ref))) {
        continue;
      }
      std::string key = AnnotatedName(it);
      auto prev = env_.find(key);
      if (prev != env_.end() && !(prev->second == ref)) continue;
      bool inserted = false;
      if (prev == env_.end() && !vars_.info(it.var).anonymous) {
        env_.emplace(key, ref);
        inserted = true;
      }
      bool pass = true;
      if (it.edge->where != nullptr) {
        auto self = env_.emplace(key, ref);
        RigidScopeEval scope(env_, vars_, it.suffix, nullptr);
        Result<TriBool> ok = EvalPredicate(*it.edge->where, g_, vars_, scope);
        if (self.second) env_.erase(key);
        if (!ok.ok()) return ok.status();
        pass = *ok == TriBool::kTrue;
      }
      if (pass) {
        assignments_[index] = ref;
        traversals_[index] = adj.traversal;
        GPML_RETURN_IF_ERROR(Step(index + 1, adj.neighbor));
      }
      if (inserted) env_.erase(key);
    }
    return Status::OK();
  }

  static bool Admits(EdgeOrientation o, Traversal t) {
    switch (o) {
      case EdgeOrientation::kLeft: return t == Traversal::kBackward;
      case EdgeOrientation::kUndirected: return t == Traversal::kUndirected;
      case EdgeOrientation::kRight: return t == Traversal::kForward;
      case EdgeOrientation::kLeftOrUndirected:
        return t != Traversal::kForward;
      case EdgeOrientation::kUndirectedOrRight:
        return t != Traversal::kBackward;
      case EdgeOrientation::kLeftOrRight: return t != Traversal::kUndirected;
      case EdgeOrientation::kAny: return true;
    }
    return false;
  }

  /// The path spanned by items [from, to) — adjacent node items collapse.
  Path SliceToPath(size_t from, size_t to) const {
    Path p;
    bool started = false;
    for (size_t i = from; i < to && i < assignments_.size(); ++i) {
      const ElementRef& ref = assignments_[i];
      if (ref.id == kInvalidId) break;
      if (ref.is_node()) {
        if (!started) {
          p = Path(ref.id);
          started = true;
        }
      } else {
        NodeId next = kInvalidId;
        for (size_t j = i + 1; j < to && j < assignments_.size(); ++j) {
          if (assignments_[j].is_node()) {
            next = assignments_[j].id;
            break;
          }
        }
        p.Append(ref.id, traversals_[i], next);
      }
    }
    return p;
  }

  Status Accept() {
    // The base variables' bindings, reduced by the matcher's reduction.
    std::vector<WitnessLink> raw(rp_.items.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      raw[i].binding = {rp_.items[i].var, assignments_[i]};
      raw[i].traversal = traversals_[i];
    }
    ReduceBindings(raw, vars_, rp_.tags, &out_->emplace_back());
    if (out_->size() > max_matches_) {
      return Status::ResourceExhausted(
          "reference evaluation exceeded max_matches");
    }
    return Status::OK();
  }

  const PropertyGraph& g_;
  const VarTable& vars_;
  const RigidPattern& rp_;
  size_t max_matches_;
  std::vector<PathBinding>* out_;

  std::vector<ElementRef> assignments_;
  std::vector<Traversal> traversals_;
  std::map<std::string, ElementRef> env_;
};

uint64_t AutoCap(const PathPatternDecl& decl, const PropertyGraph& g,
                 const ReferenceOptions& options) {
  if (options.expansion_cap != 0) return options.expansion_cap;
  // Walk for any restrictor (declaration-level or parenthesized).
  // TRAIL bounds path length by |E|; ACYCLIC/SIMPLE by |N|.
  if (decl.restrictor == Restrictor::kTrail) return g.num_edges() + 1;
  if (decl.restrictor != Restrictor::kNone) return g.num_nodes() + 1;
  return 2 * g.num_nodes() + 2;
}

}  // namespace

Result<std::vector<RigidPattern>> ExpandPattern(
    const PathPatternDecl& decl, const VarTable& vars, const PropertyGraph& g,
    const ReferenceOptions& options) {
  Expander ex(vars, AutoCap(decl, g, options), options.max_rigid_patterns);
  GPML_ASSIGN_OR_RETURN(std::vector<RigidPattern> rigids,
                        ex.Expand(*decl.pattern));
  // The declaration-level restrictor spans every rigid pattern entirely.
  if (decl.restrictor != Restrictor::kNone) {
    for (RigidPattern& rp : rigids) {
      RigidScope s;
      s.restrictor = decl.restrictor;
      s.from = 0;
      s.to = rp.items.size();
      rp.scopes.push_back(s);
    }
  }
  return rigids;
}

Result<MatchSet> RunReference(const PropertyGraph& g,
                              const PathPatternDecl& decl,
                              const VarTable& vars,
                              const ReferenceOptions& options) {
  GPML_ASSIGN_OR_RETURN(std::vector<RigidPattern> rigids,
                        ExpandPattern(decl, vars, g, options));

  std::vector<PathBinding> all;
  for (const RigidPattern& rp : rigids) {
    RigidMatcher m(g, vars, rp, options.max_matches, &all);
    GPML_RETURN_IF_ERROR(m.Run());
  }

  // Reduction happened per match; now deduplicate (§6.5) and order by
  // length for the selector.
  std::stable_sort(all.begin(), all.end(),
                   [](const PathBinding& a, const PathBinding& b) {
                     return a.path.Length() < b.path.Length();
                   });
  std::vector<PathBinding> dedup;
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  for (PathBinding& pb : all) {
    auto& bucket = buckets[pb.ReducedHash()];
    bool dup = false;
    for (size_t idx : bucket) {
      if (dedup[idx].SameReduced(pb)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      bucket.push_back(dedup.size());
      dedup.push_back(std::move(pb));
    }
  }

  ApplySelector(decl.selector, &dedup);
  MatchSet out;
  out.bindings = std::move(dedup);
  return out;
}

namespace {

/// True when `binding` binds every shared singleton that `row` binds to the
/// same element: the equi-join condition of §6.5.
bool JoinsWith(const ResultRow& row, const PathBinding& binding,
               const std::vector<int>& shared) {
  for (int var : shared) {
    const ElementRef* mine = binding.LastOf(var);
    for (size_t d = 0; mine != nullptr && d < row.bindings.size(); ++d) {
      const ElementRef* theirs = row.bindings[d]->LastOf(var);
      if (theirs != nullptr && !(*theirs == *mine)) return false;
    }
  }
  return true;
}

/// DIFFERENT EDGES / DIFFERENT NODES (§7.1): no edge (or node) of the row
/// is bound twice. A named singleton is one binding however often it
/// occurs; each group iteration and each anonymous position is its own.
bool ElementsDistinct(const ResultRow& row, const VarTable& vars,
                      bool edges) {
  std::map<ElementRef, int> bound_by;  // The singleton, or -1.
  for (const auto& binding : row.bindings) {
    for (const ElementaryBinding& b : binding->reduced) {
      if (b.element.is_edge() != edges) continue;
      const VarInfo& info = vars.info(b.var);
      const int var = info.group || info.anonymous ? -1 : b.var;
      auto [it, fresh] = bound_by.emplace(b.element, var);
      if (!fresh && (var < 0 || it->second != var)) return false;
    }
  }
  return true;
}

}  // namespace

Result<MatchOutput> RunReferencePattern(const PropertyGraph& g,
                                        const GraphPattern& normalized,
                                        std::shared_ptr<const VarTable> vars,
                                        const ReferenceOptions& options) {
  MatchOutput out;
  out.vars = vars;
  out.normalized = normalized;
  std::vector<int> shared;
  for (int v = 0; v < vars->size(); ++v) {
    const VarInfo& info = vars->info(v);
    if (!info.group && info.kind != VarInfo::Kind::kPath &&
        info.decls.size() > 1) {
      shared.push_back(v);
    }
  }

  std::vector<ResultRow> rows(1);  // The empty row: the join's unit.
  for (const PathPatternDecl& decl : normalized.paths) {
    out.path_vars.push_back(decl.path_var.empty() ? -1
                                                  : vars->Find(decl.path_var));
    GPML_ASSIGN_OR_RETURN(MatchSet set,
                          RunReference(g, decl, *vars, options));
    std::vector<ResultRow> joined;
    for (PathBinding& pb : set.bindings) {
      auto binding = std::make_shared<const PathBinding>(std::move(pb));
      for (const ResultRow& row : rows) {
        if (!JoinsWith(row, *binding, shared)) continue;
        joined.push_back(row);
        joined.back().bindings.push_back(binding);
        if (joined.size() > options.max_matches) {
          return Status::ResourceExhausted(
              "reference join exceeded max_matches");
        }
      }
    }
    rows = std::move(joined);
  }

  for (ResultRow& row : rows) {
    if (normalized.mode != MatchMode::kRepeatableElements &&
        !ElementsDistinct(row, *vars,
                          normalized.mode == MatchMode::kDifferentEdges)) {
      continue;
    }
    if (normalized.where != nullptr) {
      RowScope scope(out, row);
      GPML_ASSIGN_OR_RETURN(TriBool keep,
                            EvalPredicate(*normalized.where, g, *vars, scope));
      if (keep != TriBool::kTrue) continue;
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

}  // namespace gpml
