#ifndef GPML_EVAL_EXPR_EVAL_H_
#define GPML_EVAL_EXPR_EVAL_H_

#include <optional>
#include <vector>

#include "ast/expr.h"
#include "common/result.h"
#include "common/value.h"
#include "eval/binding.h"
#include "eval/params.h"
#include "graph/path.h"
#include "graph/property_graph.h"

namespace gpml {

/// Where expression evaluation finds its variable bindings. Implementations
/// exist for the three evaluation contexts: in-flight search states (inline
/// and frame prefilters), joined result rows (postfilter, projection), and
/// the reference evaluator's rigid-pattern rows.
class EvalScope {
 public:
  virtual ~EvalScope() = default;

  /// Latest element bound to `var` visible as a singleton reference;
  /// nullopt when unbound (conditional variable not matched, or forward
  /// reference), which evaluates to NULL.
  virtual std::optional<ElementRef> LookupSingleton(int var) const = 0;

  /// All elements bound to `var` for group aggregation, innermost frame (or
  /// whole row for postfilters).
  virtual std::vector<ElementRef> CollectGroup(int var) const = 0;

  /// Path bound to a path variable, nullptr if none.
  virtual const Path* LookupPath(int var) const {
    (void)var;
    return nullptr;
  }

  /// The value bound to $name for this execution; nullptr when the scope
  /// carries no parameter bindings or the name is unbound (evaluating an
  /// unbound $param is an error — prepared-query bind validation makes
  /// this unreachable in the normal API flow).
  virtual const Value* LookupParam(const std::string& name) const {
    (void)name;
    return nullptr;
  }

 protected:
  /// Shared lookup helper for scope implementations holding a Params map.
  static const Value* FindParam(const Params* params,
                                const std::string& name) {
    if (params == nullptr) return nullptr;
    auto it = params->find(name);
    return it == params->end() ? nullptr : &it->second;
  }
};

/// The result of evaluating an expression: either a property value or an
/// element/path reference (element references arise from bare variable
/// references and can be compared, §4.7 / GQL element equality).
struct EvalValue {
  enum class Kind { kValue, kElement, kPath };
  Kind kind = Kind::kValue;
  Value value;
  ElementRef element;
  const Path* path = nullptr;

  static EvalValue Of(Value v) {
    EvalValue e;
    e.value = std::move(v);
    return e;
  }
  static EvalValue OfElement(ElementRef r) {
    EvalValue e;
    e.kind = Kind::kElement;
    e.element = r;
    return e;
  }
  static EvalValue OfPath(const Path* p) {
    EvalValue e;
    e.kind = Kind::kPath;
    e.path = p;
    return e;
  }
  bool is_null() const {
    return kind == Kind::kValue && value.is_null();
  }
};

/// Evaluates `expr` to a value. Unbound variables yield NULL; type errors
/// surface as Status.
Result<EvalValue> EvalExpr(const Expr& expr, const PropertyGraph& g,
                           const VarTable& vars, const EvalScope& scope);

/// Evaluates `expr` as a predicate under SQL three-valued logic; a binding
/// passes a filter only when the result is kTrue.
Result<TriBool> EvalPredicate(const Expr& expr, const PropertyGraph& g,
                              const VarTable& vars, const EvalScope& scope);

/// Renders an EvalValue for result tables: elements by name, paths in
/// path(...) notation.
Value ToOutputValue(const EvalValue& v, const PropertyGraph& g);

// ---------------------------------------------------------------------------
// Vectorizable predicate kernels (batch matcher fast path)
// ---------------------------------------------------------------------------

/// The compiled form of an inline WHERE the batch matcher can evaluate over
/// a dense candidate block (docs/vectorized.md): an AND-conjunction of
/// `var.prop <op> literal-or-$param` comparison terms, all over the one
/// element being bound. Compiled at plan-bind time next to the program's
/// CompiledLabelPreds and stored on the Program, so plan-cache hits reuse
/// the kernel like they reuse compiled label predicates. Property keys are
/// pre-resolved to column symbols; evaluation is a column read plus a SQL
/// comparison per term — no expression-tree walk, no EvalScope virtual
/// dispatch, and no per-candidate string hashing.
struct PredicateKernel {
  struct Term {
    /// Column of the pending element's property; kInvalidSymbol when the
    /// graph never interned the key (the column read is then NULL, so the
    /// comparison is UNKNOWN and the term rejects every candidate — the
    /// same verdict the scalar evaluator reaches).
    Symbol prop = kInvalidSymbol;
    BinaryOp op = BinaryOp::kEq;  // Comparison subset only.
    const Value* literal = nullptr;  // Borrowed from the plan's AST.
    std::string param;  // $name when literal == nullptr.
  };
  std::vector<Term> terms;

  /// Compiles `where` over the pending variable `var` (the node/edge being
  /// bound). Returns false when the predicate falls outside the kernel
  /// shape — references to other variables, OR/NOT, arithmetic, aggregates,
  /// `e.*` accesses, element comparisons — in which case the caller must
  /// stay on the scalar evaluator.
  static bool Compile(const Expr& where, int var, const VarTable& vars,
                      const SymbolTable& property_symbols,
                      PredicateKernel* out);
};

/// A kernel with its $parameters resolved for one execution: plain
/// (column, op, value) triples, every value a view of an AST literal or a
/// Params slot (both outlive the run).
struct BoundPredicateKernel {
  struct Term {
    Symbol prop = kInvalidSymbol;
    BinaryOp op = BinaryOp::kEq;
    ValueView rhs;
  };
  std::vector<Term> terms;
};

/// Resolves `kernel`'s parameters against `params`. Returns false when a
/// referenced $param is unbound — the caller falls back to the scalar path,
/// which reproduces the unbound-parameter error exactly. A NULL-bound
/// parameter binds fine (and rejects every candidate, as `= NULL` should).
bool BindPredicateKernel(const PredicateKernel& kernel, const Params* params,
                         BoundPredicateKernel* out);

/// Evaluates a bound kernel against one element (node when `is_node`, edge
/// otherwise): passes iff every term compares kTrue under the engine's SQL
/// three-valued comparison — exactly EvalPredicate's verdict on the same
/// conjunction.
bool EvalKernel(const BoundPredicateKernel& kernel, const PropertyGraph& g,
                bool is_node, uint32_t id);

}  // namespace gpml

#endif  // GPML_EVAL_EXPR_EVAL_H_
