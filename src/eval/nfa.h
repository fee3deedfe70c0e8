#ifndef GPML_EVAL_NFA_H_
#define GPML_EVAL_NFA_H_

#include <memory>
#include <vector>

#include "ast/ast.h"
#include "common/result.h"
#include "eval/binding.h"
#include "eval/expr_eval.h"

namespace gpml {

/// Sentinel for Instr::edge_label_sym: no single CSR partition covers this
/// edge step; expansion scans the full adjacency list.
inline constexpr Symbol kNoLabelPartition = 0xfffffffeu;

/// One instruction of the compiled pattern program. The matcher interprets
/// these over the graph: kEdgeStep is the only instruction that consumes a
/// graph edge; everything else is "epsilon" work (checks, bookkeeping,
/// forks). Quantifiers compile into copies plus a guarded loop, which keeps
/// the runtime a plain NFA — the execution-model expansion of §6.3 made
/// lazy.
struct Instr {
  enum class Op {
    kNodeCheck,   // Match current node against `node`; bind var.
    kEdgeStep,    // Traverse one admissible edge; bind var.
    kSplit,       // Fork: continue at next and at alt.
    kJump,        // Continue at next.
    kFrameBegin,  // Push an aggregation frame; quantifier frames also bump
                  // the iteration serial at `depth` (§6 superscripts).
    kWhereCheck,  // Evaluate `where` against the innermost frame.
    kFrameEnd,    // Pop frame; guarded loop frames require edge progress.
    kScopeBegin,  // Open restrictor scope `scope_id`.
    kScopeEnd,    // Close restrictor scope (SIMPLE finalization).
    kTag,         // Record multiset-alternation provenance (§4.5).
    kAccept,      // Pattern complete.
  };

  Op op = Op::kAccept;
  int next = -1;
  int alt = -1;                      // kSplit only.
  const NodePattern* node = nullptr;
  const EdgePattern* edge = nullptr;
  int var = -1;                      // Interned variable id.
  /// Graph-bound slots, filled by BindProgramToGraph (the matcher runs
  /// only bound programs):
  int lpred = -1;                    // kNodeCheck/kEdgeStep: index into
                                     // Program::label_preds; -1 = no label
                                     // constraint.
  Symbol edge_label_sym = kNoLabelPartition;  // kEdgeStep: CSR partition to
                                     // scan; kNoLabelPartition = full
                                     // adjacency scan, kInvalidSymbol = the
                                     // label is unknown to the graph (empty
                                     // expansion).
  bool edge_prefiltered = false;     // kEdgeStep: bucket membership already
                                     // implies the label expression (plain
                                     // single-name labels), skip the check.
  int depth = 0;                     // Quantifier depth of this position.
  bool quant_frame = false;          // kFrameBegin: iteration frame.
  bool guard_progress = false;       // kFrameEnd: fail on zero-edge loop.
  ExprPtr where;                     // kWhereCheck.
  int scope_id = -1;                 // kScopeBegin/kScopeEnd.
  Restrictor restrictor = Restrictor::kNone;  // kScopeBegin.
  int32_t tag = 0;                   // kTag.
};

/// The block-at-a-time execution plan of a program (docs/vectorized.md).
/// Built by BindProgramToGraph for programs of the linear fixed-length shape
/// `NodeCheck (EdgeStep NodeCheck)* Accept` — no selector, splits, frames,
/// restrictor scopes, or provenance tags — whose inline WHEREs all compile
/// into PredicateKernels. Anything else leaves `eligible` false and the
/// matcher runs the scalar interpreter. The interpreter is also the batch
/// route's differential oracle: a copy of the bound program with `batch`
/// reset runs scalar, with byte-identical rows (only the step accounting
/// differs: the batch route charges per adjacency candidate).
struct BatchPlan {
  /// One kNodeCheck position. `nodes[i]` binds the node reached after i
  /// edge hops.
  struct NodeStep {
    int pc = -1;   // Program position of the kNodeCheck.
    int var = -1;  // Interned variable id.
    /// Implicit equi-join (§4.2): the variable already bound at
    /// nodes[eq_pos]; a candidate must be that exact node. -1 for first
    /// occurrences and anonymous variables.
    int eq_pos = -1;
    /// The label predicate is subsumed by the equi-join: this position's
    /// label expression is absent or textually identical to the one at
    /// eq_pos, which the joined-to node already passed — so the batch path
    /// skips re-evaluating it on cyclic re-visits (the scalar interpreter
    /// re-checks redundantly; see the Figure 4 regression test).
    bool label_implied = false;
    bool has_kernel = false;  // Inline WHERE present (compiled below).
    PredicateKernel kernel;
  };
  /// One kEdgeStep position; `edges[i]` is hop i.
  struct EdgeStep {
    int pc = -1;
    int var = -1;
    int eq_pos = -1;  // Into `edges`, same discipline as NodeStep::eq_pos.
    bool has_kernel = false;
    PredicateKernel kernel;
  };
  std::vector<NodeStep> nodes;  // hops + 1 entries.
  std::vector<EdgeStep> edges;  // One per hop.
  bool eligible = false;
};

/// The witness route's plan of an exact-key program (Program::
/// exact_visit_key; docs/planner.md, "Selector route"). Built by
/// BindProgramToGraph next to the BatchPlan and reused by plan-cache hits
/// the same way. The route runs the program's instructions on compact
/// (pc, node) entries with no environment and no frame stack; this plan
/// holds the little it needs instead.
struct WitnessPlan {
  /// Indexed by pc: into `kernels` for a kNodeCheck / kEdgeStep whose
  /// inline WHERE compiled into a PredicateKernel; -1 otherwise (no WHERE,
  /// or one outside the kernel shape, which the scalar evaluator runs).
  std::vector<int> kernel_of;
  std::vector<PredicateKernel> kernels;
  /// The kNodeCheck binding the start node (the program's first
  /// instruction when it is a node check), else -1.
  int start_pc = -1;
};

/// A compiled top-level path pattern.
struct Program {
  std::vector<Instr> code;
  int start = 0;
  int max_depth = 0;   // Deepest quantifier nesting (serial array size).
  int num_scopes = 0;
  Selector selector;
  int path_var = -1;   // Interned id of the path variable, -1 if none.
  bool has_unbounded = false;  // Any {m,} quantifier in the pattern.
  /// The selector search may key visits on exactly (pc, node, start): an
  /// ANY / ANY SHORTEST program with no restrictor scope, no kTag, no
  /// kWhereCheck and no named node or edge variable other than the two
  /// endpoint nodes (a path variable is fine). Nothing else in such a state
  /// can change what the search does next, so a state whose position was
  /// already reached cannot yield a row the first one does not (see the
  /// "Selector route" section of docs/planner.md). Such programs run on the
  /// matcher's witness route. Set by CompilePattern, so plan-cache hits
  /// reuse it.
  bool exact_visit_key = false;
  PathPatternPtr root; // Keeps the normalized AST alive (instrs borrow).

  /// Label expressions compiled against one graph's symbol table (see
  /// BindProgramToGraph); indexed by Instr::lpred.
  std::vector<CompiledLabelPred> label_preds;

  /// PropertyGraph::identity_token() of the graph the program is bound to;
  /// 0 = unbound. RunPattern refuses a program whose token is not its
  /// graph's — the same token the plan cache keys its entries on.
  uint64_t graph_token = 0;

  /// Block-at-a-time plan, built when BindProgramToGraph is given the
  /// variable table; nullptr (or !eligible) routes to the scalar
  /// interpreter, which is how tests run the batch route's oracle. Stored
  /// on the program so plan-cache hits reuse the compiled kernels exactly
  /// like they reuse label_preds.
  std::shared_ptr<const BatchPlan> batch;

  /// Witness-route plan; set by BindProgramToGraph exactly for
  /// exact_visit_key programs, which the matcher runs on the witness route.
  std::shared_ptr<const WitnessPlan> witness;

  std::string ToString() const;  // Disassembly for tests/debugging.
};

/// Compiles one normalized path declaration. The declaration-level
/// restrictor becomes scope 0 around the whole pattern; the selector is
/// carried as metadata for the matcher.
Result<Program> CompilePattern(const PathPatternDecl& decl,
                               const VarTable& vars);

/// Binds `program` to `g`'s interned storage layer: every node/edge label
/// expression compiles once into a symbol-id predicate, and every edge step
/// resolves the CSR partition it can scan — the most selective required
/// label conjunct, or the exact partition (no per-edge label re-check) when
/// the expression is a single plain name. The program records the graph's
/// identity token: RunPattern runs it over that graph only, and never runs
/// an unbound program.
///
/// When `vars` is non-null the batch plan is built too (Program::batch):
/// shape eligibility, per-position equi-join targets, bind-time label
/// hoisting, and the inline-WHERE predicate kernels — all derived data, so
/// both the batch and scalar routes can run the same bound program. An
/// exact_visit_key program gets its WitnessPlan (its kernels only when
/// `vars` is non-null).
void BindProgramToGraph(Program* program, const PropertyGraph& g,
                        const VarTable* vars = nullptr);

}  // namespace gpml

#endif  // GPML_EVAL_NFA_H_
