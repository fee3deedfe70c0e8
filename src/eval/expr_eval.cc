#include "eval/expr_eval.h"

#include <algorithm>
#include <set>

namespace gpml {

namespace {

Result<TriBool> AsPredicate(const EvalValue& v) {
  if (v.kind != EvalValue::Kind::kValue) {
    return Status::SemanticError("element used as a predicate");
  }
  if (v.value.is_null()) return TriBool::kUnknown;
  if (!v.value.is_bool()) {
    return Status::SemanticError("predicate is not boolean");
  }
  return v.value.bool_value() ? TriBool::kTrue : TriBool::kFalse;
}

Value FromTriBool(TriBool t) {
  switch (t) {
    case TriBool::kTrue: return Value::Bool(true);
    case TriBool::kFalse: return Value::Bool(false);
    case TriBool::kUnknown: return Value::Null();
  }
  return Value::Null();
}

/// Value-vs-value comparison under SQL semantics (the shared tail of
/// Compare, the borrowed fast path and the predicate kernels).
Result<TriBool> CompareValues(BinaryOp op, ValueView a, ValueView b) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  switch (op) {
    case BinaryOp::kEq: return Value::SqlEquals(a, b);
    case BinaryOp::kNeq: return TriNot(Value::SqlEquals(a, b));
    default: break;
  }
  Result<int> cmp = Value::SqlCompare(a, b);
  // Incomparable types yield UNKNOWN rather than an error: predicates over
  // heterogeneous properties simply fail to select.
  if (!cmp.ok()) return TriBool::kUnknown;
  int c = *cmp;
  bool res = false;
  switch (op) {
    case BinaryOp::kLt: res = c < 0; break;
    case BinaryOp::kLe: res = c <= 0; break;
    case BinaryOp::kGt: res = c > 0; break;
    case BinaryOp::kGe: res = c >= 0; break;
    default: return Status::Internal("not a comparison");
  }
  return res ? TriBool::kTrue : TriBool::kFalse;
}

/// Comparison under SQL semantics; elements compare by identity (GQL-style
/// element equality, §4.7).
Result<TriBool> Compare(BinaryOp op, const EvalValue& l, const EvalValue& r) {
  if (l.kind == EvalValue::Kind::kElement ||
      r.kind == EvalValue::Kind::kElement) {
    if (l.kind != r.kind) {
      if (l.is_null() || r.is_null()) return TriBool::kUnknown;
      return Status::SemanticError("cannot compare element with value");
    }
    bool eq = l.element == r.element;
    if (op == BinaryOp::kEq) return eq ? TriBool::kTrue : TriBool::kFalse;
    if (op == BinaryOp::kNeq) return eq ? TriBool::kFalse : TriBool::kTrue;
    return Status::SemanticError("elements only support = and <>");
  }
  return CompareValues(op, l.value, r.value);
}

/// Resolves an expression to a view when that needs no construction:
/// literals and bound parameters view themselves, property accesses view
/// the graph's column slot (or NULL for unbound/unknown cases, matching the
/// EvalExpr NULL results exactly). Returns false when the expression needs
/// full evaluation. This keeps `x.prop <op> literal` — the dominant
/// predicate shape in the matcher's hot loop — free of Value (string)
/// copies.
bool BorrowValue(const Expr& expr, const PropertyGraph& g,
                 const VarTable& vars, const EvalScope& scope,
                 ValueView* out) {
  if (expr.kind == Expr::Kind::kLiteral) {
    *out = expr.literal;
    return true;
  }
  if (expr.kind == Expr::Kind::kParam) {
    // Bound parameters borrow the execution's Params slot; unbound ones
    // fall through to full evaluation, which reports the error.
    const Value* v = scope.LookupParam(expr.var);
    if (v != nullptr) *out = *v;
    return v != nullptr;
  }
  if (expr.kind != Expr::Kind::kPropertyAccess) return false;
  *out = ValueView();
  int id = vars.Find(expr.var);
  if (id < 0) return true;
  std::optional<ElementRef> el = scope.LookupSingleton(id);
  if (el.has_value()) *out = g.GetPropertyFast(*el, expr.property);
  return true;
}

/// Scope wrapper that overrides one variable with a specific element while
/// an aggregate argument is evaluated per group member.
class OverrideScope : public EvalScope {
 public:
  OverrideScope(const EvalScope& base, int var, ElementRef element)
      : base_(base), var_(var), element_(element) {}

  std::optional<ElementRef> LookupSingleton(int var) const override {
    if (var == var_) return element_;
    return base_.LookupSingleton(var);
  }
  std::vector<ElementRef> CollectGroup(int var) const override {
    if (var == var_) return {element_};
    return base_.CollectGroup(var);
  }
  const Path* LookupPath(int var) const override {
    return base_.LookupPath(var);
  }
  const Value* LookupParam(const std::string& name) const override {
    return base_.LookupParam(name);
  }

 private:
  const EvalScope& base_;
  int var_;
  ElementRef element_;
};

Result<EvalValue> EvalAggregate(const Expr& expr, const PropertyGraph& g,
                                const VarTable& vars, const EvalScope& scope) {
  // Identify the group variable driving the aggregate: the first variable
  // referenced by the argument that is a group (or any) element variable.
  std::vector<std::string> names;
  expr.arg->CollectVariables(&names);
  int group_var = -1;
  for (const std::string& n : names) {
    int id = vars.Find(n);
    if (id >= 0 && vars.info(id).kind != VarInfo::Kind::kPath) {
      group_var = id;
      break;
    }
  }

  std::vector<ElementRef> members;
  if (group_var >= 0) {
    members = scope.CollectGroup(group_var);
  }

  // COUNT(e) / COUNT(e.*) count the bindings themselves.
  bool count_star =
      expr.agg == AggFunc::kCount &&
      (expr.arg->kind == Expr::Kind::kVarRef ||
       (expr.arg->kind == Expr::Kind::kPropertyAccess &&
        expr.arg->property == "*"));

  std::vector<Value> inputs;
  std::set<std::pair<int, uint32_t>> distinct_elems;
  for (const ElementRef& m : members) {
    if (expr.distinct) {
      auto key = std::make_pair(static_cast<int>(m.kind), m.id);
      if (!distinct_elems.insert(key).second) continue;
    }
    if (count_star) {
      inputs.push_back(Value::Int(1));
      continue;
    }
    OverrideScope member_scope(scope, group_var, m);
    GPML_ASSIGN_OR_RETURN(EvalValue v,
                          EvalExpr(*expr.arg, g, vars, member_scope));
    if (v.kind == EvalValue::Kind::kElement) {
      // Aggregating bare elements: LISTAGG renders names, COUNT counts.
      inputs.push_back(Value::String(std::string(g.name(v.element))));
    } else if (!v.value.is_null()) {
      inputs.push_back(v.value);
    }
  }

  switch (expr.agg) {
    case AggFunc::kCount:
      return EvalValue::Of(Value::Int(static_cast<int64_t>(inputs.size())));
    case AggFunc::kSum: {
      if (inputs.empty()) return EvalValue::Of(Value::Null());
      Value acc = Value::Int(0);
      for (const Value& v : inputs) {
        GPML_ASSIGN_OR_RETURN(acc, Value::Add(acc, v));
      }
      return EvalValue::Of(acc);
    }
    case AggFunc::kAvg: {
      if (inputs.empty()) return EvalValue::Of(Value::Null());
      double sum = 0;
      for (const Value& v : inputs) {
        if (!v.is_numeric()) {
          return Status::SemanticError("AVG over non-numeric values");
        }
        sum += v.AsDouble();
      }
      return EvalValue::Of(
          Value::Double(sum / static_cast<double>(inputs.size())));
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (inputs.empty()) return EvalValue::Of(Value::Null());
      const Value* best = &inputs[0];
      for (const Value& v : inputs) {
        bool less = v < *best;
        if (expr.agg == AggFunc::kMin ? less : (*best < v)) best = &v;
      }
      return EvalValue::Of(*best);
    }
    case AggFunc::kListAgg: {
      std::string out;
      const std::string& sep =
          expr.separator.empty() ? std::string(", ") : expr.separator;
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (i > 0) out += sep;
        out += inputs[i].ToString();
      }
      return EvalValue::Of(Value::String(out));
    }
  }
  return Status::Internal("unknown aggregate");
}

}  // namespace

Result<EvalValue> EvalExpr(const Expr& expr, const PropertyGraph& g,
                           const VarTable& vars, const EvalScope& scope) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return EvalValue::Of(expr.literal);

    case Expr::Kind::kParam: {
      const Value* v = scope.LookupParam(expr.var);
      if (v == nullptr) {
        return Status::InvalidArgument(
            "unbound parameter $" + expr.var +
            "; bind it through PreparedQuery::Execute/Open");
      }
      return EvalValue::Of(*v);
    }

    case Expr::Kind::kVarRef: {
      int id = vars.Find(expr.var);
      if (id < 0) return EvalValue::Of(Value::Null());
      if (vars.info(id).kind == VarInfo::Kind::kPath) {
        const Path* p = scope.LookupPath(id);
        if (p == nullptr) return EvalValue::Of(Value::Null());
        return EvalValue::OfPath(p);
      }
      std::optional<ElementRef> el = scope.LookupSingleton(id);
      if (!el.has_value()) return EvalValue::Of(Value::Null());
      return EvalValue::OfElement(*el);
    }

    case Expr::Kind::kPropertyAccess: {
      int id = vars.Find(expr.var);
      if (id < 0) return EvalValue::Of(Value::Null());
      std::optional<ElementRef> el = scope.LookupSingleton(id);
      if (!el.has_value()) return EvalValue::Of(Value::Null());
      // Columnar access: one key-string hash shared across all elements,
      // then an array index.
      return EvalValue::Of(g.GetPropertyFast(*el, expr.property).ToValue());
    }

    case Expr::Kind::kBinary: {
      switch (expr.op) {
        case BinaryOp::kAnd: {
          GPML_ASSIGN_OR_RETURN(TriBool l,
                                EvalPredicate(*expr.lhs, g, vars, scope));
          if (l == TriBool::kFalse) return EvalValue::Of(Value::Bool(false));
          GPML_ASSIGN_OR_RETURN(TriBool r,
                                EvalPredicate(*expr.rhs, g, vars, scope));
          return EvalValue::Of(FromTriBool(TriAnd(l, r)));
        }
        case BinaryOp::kOr: {
          GPML_ASSIGN_OR_RETURN(TriBool l,
                                EvalPredicate(*expr.lhs, g, vars, scope));
          if (l == TriBool::kTrue) return EvalValue::Of(Value::Bool(true));
          GPML_ASSIGN_OR_RETURN(TriBool r,
                                EvalPredicate(*expr.rhs, g, vars, scope));
          return EvalValue::Of(FromTriBool(TriOr(l, r)));
        }
        case BinaryOp::kEq:
        case BinaryOp::kNeq:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          // Borrowed fast path: both operands reachable without
          // constructing EvalValues (no string copies per evaluation).
          ValueView lb, rb;
          if (BorrowValue(*expr.lhs, g, vars, scope, &lb) &&
              BorrowValue(*expr.rhs, g, vars, scope, &rb)) {
            GPML_ASSIGN_OR_RETURN(TriBool t, CompareValues(expr.op, lb, rb));
            return EvalValue::Of(FromTriBool(t));
          }
          GPML_ASSIGN_OR_RETURN(EvalValue l,
                                EvalExpr(*expr.lhs, g, vars, scope));
          GPML_ASSIGN_OR_RETURN(EvalValue r,
                                EvalExpr(*expr.rhs, g, vars, scope));
          GPML_ASSIGN_OR_RETURN(TriBool t, Compare(expr.op, l, r));
          return EvalValue::Of(FromTriBool(t));
        }
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv: {
          GPML_ASSIGN_OR_RETURN(EvalValue l,
                                EvalExpr(*expr.lhs, g, vars, scope));
          GPML_ASSIGN_OR_RETURN(EvalValue r,
                                EvalExpr(*expr.rhs, g, vars, scope));
          if (l.kind != EvalValue::Kind::kValue ||
              r.kind != EvalValue::Kind::kValue) {
            return Status::SemanticError("arithmetic on elements");
          }
          switch (expr.op) {
            case BinaryOp::kAdd: {
              GPML_ASSIGN_OR_RETURN(Value v, Value::Add(l.value, r.value));
              return EvalValue::Of(std::move(v));
            }
            case BinaryOp::kSub: {
              GPML_ASSIGN_OR_RETURN(Value v,
                                    Value::Subtract(l.value, r.value));
              return EvalValue::Of(std::move(v));
            }
            case BinaryOp::kMul: {
              GPML_ASSIGN_OR_RETURN(Value v,
                                    Value::Multiply(l.value, r.value));
              return EvalValue::Of(std::move(v));
            }
            default: {
              GPML_ASSIGN_OR_RETURN(Value v, Value::Divide(l.value, r.value));
              return EvalValue::Of(std::move(v));
            }
          }
        }
      }
      return Status::Internal("unknown binary op");
    }

    case Expr::Kind::kNot: {
      GPML_ASSIGN_OR_RETURN(TriBool t, EvalPredicate(*expr.lhs, g, vars, scope));
      return EvalValue::Of(FromTriBool(TriNot(t)));
    }

    case Expr::Kind::kIsNull: {
      GPML_ASSIGN_OR_RETURN(EvalValue v, EvalExpr(*expr.lhs, g, vars, scope));
      bool is_null = v.is_null();
      return EvalValue::Of(Value::Bool(expr.negated ? !is_null : is_null));
    }

    case Expr::Kind::kAggregate:
      return EvalAggregate(expr, g, vars, scope);

    case Expr::Kind::kIsDirected: {
      int id = vars.Find(expr.var);
      std::optional<ElementRef> el =
          id < 0 ? std::nullopt : scope.LookupSingleton(id);
      if (!el.has_value() || !el->is_edge()) {
        return EvalValue::Of(Value::Null());
      }
      return EvalValue::Of(Value::Bool(g.edge(el->id).directed));
    }

    case Expr::Kind::kIsSourceOf:
    case Expr::Kind::kIsDestinationOf: {
      int node_id = vars.Find(expr.var);
      int edge_id = vars.Find(expr.var2);
      std::optional<ElementRef> node =
          node_id < 0 ? std::nullopt : scope.LookupSingleton(node_id);
      std::optional<ElementRef> edge =
          edge_id < 0 ? std::nullopt : scope.LookupSingleton(edge_id);
      if (!node.has_value() || !edge.has_value() || !node->is_node() ||
          !edge->is_edge()) {
        return EvalValue::Of(Value::Null());
      }
      const EdgeData& ed = g.edge(edge->id);
      if (!ed.directed) return EvalValue::Of(Value::Bool(false));
      NodeId endpoint =
          expr.kind == Expr::Kind::kIsSourceOf ? ed.u : ed.v;
      return EvalValue::Of(Value::Bool(endpoint == node->id));
    }

    case Expr::Kind::kSame:
    case Expr::Kind::kAllDifferent: {
      std::vector<ElementRef> elems;
      for (const std::string& name : expr.vars) {
        int id = vars.Find(name);
        std::optional<ElementRef> el =
            id < 0 ? std::nullopt : scope.LookupSingleton(id);
        if (!el.has_value()) return EvalValue::Of(Value::Null());
        elems.push_back(*el);
      }
      if (expr.kind == Expr::Kind::kSame) {
        for (size_t i = 1; i < elems.size(); ++i) {
          if (!(elems[i] == elems[0])) {
            return EvalValue::Of(Value::Bool(false));
          }
        }
        return EvalValue::Of(Value::Bool(true));
      }
      for (size_t i = 0; i < elems.size(); ++i) {
        for (size_t j = i + 1; j < elems.size(); ++j) {
          if (elems[i] == elems[j]) return EvalValue::Of(Value::Bool(false));
        }
      }
      return EvalValue::Of(Value::Bool(true));
    }

    case Expr::Kind::kPathLength: {
      int id = vars.Find(expr.var);
      const Path* p = id < 0 ? nullptr : scope.LookupPath(id);
      if (p == nullptr) return EvalValue::Of(Value::Null());
      return EvalValue::Of(Value::Int(static_cast<int64_t>(p->Length())));
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<TriBool> EvalPredicate(const Expr& expr, const PropertyGraph& g,
                              const VarTable& vars, const EvalScope& scope) {
  GPML_ASSIGN_OR_RETURN(EvalValue v, EvalExpr(expr, g, vars, scope));
  return AsPredicate(v);
}

Value ToOutputValue(const EvalValue& v, const PropertyGraph& g) {
  switch (v.kind) {
    case EvalValue::Kind::kValue: return v.value;
    case EvalValue::Kind::kElement:
      return Value::String(std::string(g.name(v.element)));
    case EvalValue::Kind::kPath:
      return Value::String(v.path->ToString(g));
  }
  return Value::Null();
}

// ---------------------------------------------------------------------------
// Predicate kernels
// ---------------------------------------------------------------------------

namespace {

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// One comparison conjunct into a kernel term. Exactly one side must be a
/// property access on the pending variable, the other a literal or $param.
/// The operator is mirrored when the access is on the right, so the term
/// always reads `column <op> rhs`.
bool CompileTerm(const Expr& cmp, int var, const VarTable& vars,
                 const SymbolTable& property_symbols, PredicateKernel* out) {
  if (!IsComparisonOp(cmp.op)) return false;
  auto is_rhs = [](const Expr& e) {
    return e.kind == Expr::Kind::kLiteral || e.kind == Expr::Kind::kParam;
  };
  auto is_access = [&](const Expr& e) {
    return e.kind == Expr::Kind::kPropertyAccess && e.property != "*" &&
           vars.Find(e.var) == var;
  };
  const Expr* access = nullptr;
  const Expr* operand = nullptr;
  BinaryOp op = cmp.op;
  if (is_access(*cmp.lhs) && is_rhs(*cmp.rhs)) {
    access = cmp.lhs.get();
    operand = cmp.rhs.get();
  } else if (is_access(*cmp.rhs) && is_rhs(*cmp.lhs)) {
    access = cmp.rhs.get();
    operand = cmp.lhs.get();
    switch (op) {  // `lit < x.p` reads as `x.p > lit`.
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;  // = and <> are symmetric.
    }
  } else {
    return false;
  }
  PredicateKernel::Term term;
  term.prop = property_symbols.Find(access->property);
  term.op = op;
  if (operand->kind == Expr::Kind::kLiteral) {
    term.literal = &operand->literal;
  } else {
    term.param = operand->var;
  }
  out->terms.push_back(std::move(term));
  return true;
}

}  // namespace

bool PredicateKernel::Compile(const Expr& where, int var, const VarTable& vars,
                              const SymbolTable& property_symbols,
                              PredicateKernel* out) {
  if (where.kind != Expr::Kind::kBinary) return false;
  if (where.op == BinaryOp::kAnd) {
    return Compile(*where.lhs, var, vars, property_symbols, out) &&
           Compile(*where.rhs, var, vars, property_symbols, out);
  }
  return CompileTerm(where, var, vars, property_symbols, out);
}

bool BindPredicateKernel(const PredicateKernel& kernel, const Params* params,
                         BoundPredicateKernel* out) {
  out->terms.clear();
  out->terms.reserve(kernel.terms.size());
  for (const PredicateKernel::Term& t : kernel.terms) {
    BoundPredicateKernel::Term b;
    b.prop = t.prop;
    b.op = t.op;
    if (t.literal != nullptr) {
      b.rhs = *t.literal;
    } else {
      if (params == nullptr) return false;
      auto it = params->find(t.param);
      if (it == params->end()) return false;
      b.rhs = it->second;
    }
    out->terms.push_back(b);
  }
  return true;
}

bool EvalKernel(const BoundPredicateKernel& kernel, const PropertyGraph& g,
                bool is_node, uint32_t id) {
  for (const BoundPredicateKernel::Term& t : kernel.terms) {
    // An un-interned key means the column read is NULL, so the comparison
    // is UNKNOWN: the conjunction can never be kTrue.
    if (t.prop == kInvalidSymbol) return false;
    ValueView lhs =
        is_node ? g.NodeColumnValue(t.prop, id) : g.EdgeColumnValue(t.prop, id);
    Result<TriBool> r = CompareValues(t.op, lhs, t.rhs);
    if (!r.ok() || *r != TriBool::kTrue) return false;
  }
  return true;
}

}  // namespace gpml
