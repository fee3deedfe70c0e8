#include "eval/nfa.h"

#include <cassert>
#include <optional>
#include <sstream>

#include "parser/parser.h"

namespace gpml {

namespace {

/// The instruction count the Compiler below emits for `p`, mirroring its
/// emission rules one for one, saturated at kMaxProgramInstructions + 1 so
/// that no bound can overflow it. `*offset` receives the offset of the
/// first quantifier whose expansion passes the cap.
uint64_t ProgramSize(const PathPattern& p, std::optional<size_t>* offset) {
  constexpr uint64_t kSaturated = kMaxProgramInstructions + 1;
  auto sat = [](uint64_t n) { return n < kSaturated ? n : kSaturated; };
  uint64_t n = 0;
  if (p.kind != PathPattern::Kind::kConcat) {
    // A split and a jump between alternatives; a tag per multiset branch.
    const uint64_t k = p.alternatives.size();
    n = (k > 0 ? 2 * (k - 1) : 0) +
        (p.kind == PathPattern::Kind::kAlternation ? k : 0);
    for (const PathPatternPtr& alt : p.alternatives) {
      n = sat(n + ProgramSize(*alt, offset));
    }
    return n;
  }
  for (const PathElement& e : p.elements) {
    if (e.kind == PathElement::Kind::kNode ||
        e.kind == PathElement::Kind::kEdge) {
      n = sat(n + 1);
      continue;
    }
    // One segment: scope, frame and WHERE check around the body, plus the
    // split of `?`.
    const bool iteration = e.kind == PathElement::Kind::kQuantified;
    uint64_t size = ProgramSize(*e.sub, offset) +
                    (e.restrictor != Restrictor::kNone ? 2 : 0) +
                    (iteration || e.where != nullptr ? 2 : 0) +
                    (e.where != nullptr ? 1 : 0) +
                    (e.kind == PathElement::Kind::kOptional ? 1 : 0);
    if (iteration) {
      // min copies, then a split per optional copy or a guarded loop
      // (split, body, jump).
      uint64_t extra = 0;
      if (!e.max.has_value()) {
        extra = size + 2;
      } else if (*e.max > e.min) {
        extra = sat(*e.max - e.min) * (size + 1);
      }
      size = sat(sat(e.min) * size + extra);
      if (size == kSaturated && !offset->has_value()) {
        *offset = e.quantifier_span.begin;
      }
    }
    n = sat(n + size);
  }
  return n;
}

class Compiler {
 public:
  explicit Compiler(const VarTable& vars) : vars_(vars) {}

  Result<Program> Compile(const PathPatternDecl& decl) {
    std::optional<size_t> offset;
    const uint64_t size = ProgramSize(*decl.pattern, &offset) +
                          (decl.restrictor != Restrictor::kNone ? 3 : 1);
    if (size > kMaxProgramInstructions) {
      return Status::ResourceExhausted(
          (offset.has_value()
               ? "quantifier (offset=" + std::to_string(*offset) + ")"
               : std::string("path pattern")) +
          " compiles to more than " +
          std::to_string(kMaxProgramInstructions) +
          " instructions; lower its bounds");
    }
    program_.code.reserve(static_cast<size_t>(size));
    program_.selector = decl.selector;
    program_.root = decl.pattern;
    if (!decl.path_var.empty()) {
      program_.path_var = vars_.Find(decl.path_var);
    }

    int scope_id = -1;
    if (decl.restrictor != Restrictor::kNone) {
      scope_id = program_.num_scopes++;
      EmitScopeBegin(scope_id, decl.restrictor);
    }
    GPML_RETURN_IF_ERROR(CompilePath(*decl.pattern));
    if (scope_id >= 0) EmitScopeEnd(scope_id);
    Emit(Instr::Op::kAccept);

    program_.start = 0;
    program_.exact_visit_key = PositionIsState(*decl.pattern);
    assert(program_.code.size() == size);  // ProgramSize mirrors emission.
    return std::move(program_);
  }

 private:
  /// Program::exact_visit_key's rule over the compiled code. The endpoint
  /// nodes are the top-level first and last elements: the first binds the
  /// start node, the last is checked only on the way to kAccept, so neither
  /// varies between states at one (pc, node, start).
  bool PositionIsState(const PathPattern& pattern) const {
    if (program_.selector.kind != Selector::Kind::kAny &&
        program_.selector.kind != Selector::Kind::kAnyShortest) {
      return false;
    }
    if (program_.num_scopes > 0) return false;
    const NodePattern* first = nullptr;
    const NodePattern* last = nullptr;
    if (pattern.kind == PathPattern::Kind::kConcat &&
        !pattern.elements.empty()) {
      const PathElement& front = pattern.elements.front();
      const PathElement& back = pattern.elements.back();
      if (front.kind == PathElement::Kind::kNode) first = &front.node;
      if (back.kind == PathElement::Kind::kNode) last = &back.node;
    }
    for (const Instr& in : program_.code) {
      if (in.op == Instr::Op::kTag || in.op == Instr::Op::kWhereCheck) {
        return false;
      }
      if (in.op != Instr::Op::kNodeCheck && in.op != Instr::Op::kEdgeStep) {
        continue;
      }
      if (vars_.info(in.var).anonymous) continue;
      if (in.op == Instr::Op::kEdgeStep) return false;
      if (in.node != first && in.node != last) return false;
    }
    return true;
  }

  int Emit(Instr::Op op) {
    Instr i;
    i.op = op;
    i.depth = depth_;
    i.next = static_cast<int>(program_.code.size()) + 1;
    program_.code.push_back(std::move(i));
    return static_cast<int>(program_.code.size()) - 1;
  }
  Instr& At(int pc) { return program_.code[static_cast<size_t>(pc)]; }
  int Here() const { return static_cast<int>(program_.code.size()); }

  void EmitScopeBegin(int id, Restrictor r) {
    int pc = Emit(Instr::Op::kScopeBegin);
    At(pc).scope_id = id;
    At(pc).restrictor = r;
  }
  void EmitScopeEnd(int id) {
    int pc = Emit(Instr::Op::kScopeEnd);
    At(pc).scope_id = id;
  }

  Status CompilePath(const PathPattern& p) {
    switch (p.kind) {
      case PathPattern::Kind::kConcat:
        for (const PathElement& e : p.elements) {
          GPML_RETURN_IF_ERROR(CompileElement(e));
        }
        return Status::OK();
      case PathPattern::Kind::kUnion:
      case PathPattern::Kind::kAlternation:
        return CompileAlternatives(p);
    }
    return Status::Internal("unknown path pattern kind");
  }

  Status CompileAlternatives(const PathPattern& p) {
    // Chain of splits; each alternative jumps to the common end. Multiset
    // alternation additionally tags each branch for provenance.
    bool tagged = p.kind == PathPattern::Kind::kAlternation;
    std::vector<int> jumps_to_end;
    std::vector<int> pending_split = {};
    for (size_t i = 0; i < p.alternatives.size(); ++i) {
      bool last = i + 1 == p.alternatives.size();
      int split_pc = -1;
      if (!last) split_pc = Emit(Instr::Op::kSplit);
      if (tagged) {
        int t = Emit(Instr::Op::kTag);
        At(t).tag = next_tag_++;
      }
      GPML_RETURN_IF_ERROR(CompilePath(*p.alternatives[i]));
      if (!last) {
        jumps_to_end.push_back(Emit(Instr::Op::kJump));
        At(split_pc).alt = Here();
      }
    }
    for (int pc : jumps_to_end) At(pc).next = Here();
    (void)pending_split;
    return Status::OK();
  }

  Status CompileElement(const PathElement& e) {
    switch (e.kind) {
      case PathElement::Kind::kNode: {
        int id = vars_.Find(e.node.var);
        if (id < 0) return Status::Internal("unresolved node variable");
        int pc = Emit(Instr::Op::kNodeCheck);
        At(pc).node = &e.node;
        At(pc).var = id;
        return Status::OK();
      }
      case PathElement::Kind::kEdge: {
        int id = vars_.Find(e.edge.var);
        if (id < 0) return Status::Internal("unresolved edge variable");
        int pc = Emit(Instr::Op::kEdgeStep);
        At(pc).edge = &e.edge;
        At(pc).var = id;
        return Status::OK();
      }
      case PathElement::Kind::kParen:
        return CompileSegment(*e.sub, e.restrictor, e.where,
                              /*iteration=*/false, /*guard=*/false);
      case PathElement::Kind::kOptional: {
        // `?`: fork around the body. Conditional-variable semantics are a
        // static property (analysis); operationally this is {0,1}.
        int split_pc = Emit(Instr::Op::kSplit);
        GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                            /*iteration=*/false,
                                            /*guard=*/false));
        At(split_pc).alt = Here();
        return Status::OK();
      }
      case PathElement::Kind::kQuantified:
        return CompileQuantified(e);
    }
    return Status::Internal("unknown path element kind");
  }

  /// Compiles one body occurrence: [scope [frame body where-check]] with
  /// iteration frames bumping serials and guarded frames requiring edge
  /// progress (prevents zero-width loops from spinning, see DESIGN.md).
  Status CompileSegment(const PathPattern& sub, Restrictor r, ExprPtr where,
                        bool iteration, bool guard) {
    int scope_id = -1;
    if (r != Restrictor::kNone) {
      scope_id = program_.num_scopes++;
      EmitScopeBegin(scope_id, r);
    }
    bool need_frame = iteration || where != nullptr;
    if (need_frame) {
      int pc = Emit(Instr::Op::kFrameBegin);
      At(pc).quant_frame = iteration;
    }
    if (iteration) {
      ++depth_;
      program_.max_depth = std::max(program_.max_depth, depth_);
    }
    GPML_RETURN_IF_ERROR(CompilePath(sub));
    if (where != nullptr) {
      int pc = Emit(Instr::Op::kWhereCheck);
      At(pc).where = where;
    }
    if (iteration) --depth_;
    if (need_frame) {
      int pc = Emit(Instr::Op::kFrameEnd);
      At(pc).guard_progress = guard;
    }
    if (scope_id >= 0) EmitScopeEnd(scope_id);
    return Status::OK();
  }

  Status CompileQuantified(const PathElement& e) {
    // min mandatory copies.
    for (uint64_t i = 0; i < e.min; ++i) {
      GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                          /*iteration=*/true,
                                          /*guard=*/false));
    }
    if (e.max.has_value()) {
      // (max - min) optional copies, each skippable to the end.
      std::vector<int> skip_splits;
      for (uint64_t i = e.min; i < *e.max; ++i) {
        skip_splits.push_back(Emit(Instr::Op::kSplit));
        GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                            /*iteration=*/true,
                                            /*guard=*/false));
      }
      for (int pc : skip_splits) At(pc).alt = Here();
      return Status::OK();
    }
    // Unbounded tail: guarded loop.
    program_.has_unbounded = true;
    int loop_head = Emit(Instr::Op::kSplit);  // next: body, alt: exit.
    GPML_RETURN_IF_ERROR(CompileSegment(*e.sub, e.restrictor, e.where,
                                        /*iteration=*/true, /*guard=*/true));
    int back = Emit(Instr::Op::kJump);
    At(back).next = loop_head;
    At(loop_head).alt = Here();
    return Status::OK();
  }

  const VarTable& vars_;
  Program program_;
  int depth_ = 0;
  int32_t next_tag_ = 1;
};

const char* OpName(Instr::Op op) {
  switch (op) {
    case Instr::Op::kNodeCheck: return "node";
    case Instr::Op::kEdgeStep: return "edge";
    case Instr::Op::kSplit: return "split";
    case Instr::Op::kJump: return "jump";
    case Instr::Op::kFrameBegin: return "frame+";
    case Instr::Op::kWhereCheck: return "where?";
    case Instr::Op::kFrameEnd: return "frame-";
    case Instr::Op::kScopeBegin: return "scope+";
    case Instr::Op::kScopeEnd: return "scope-";
    case Instr::Op::kTag: return "tag";
    case Instr::Op::kAccept: return "accept";
  }
  return "?";
}

}  // namespace

std::string Program::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& in = code[i];
    os << i << ": " << OpName(in.op);
    if (in.op == Instr::Op::kSplit) os << " -> " << in.next << "|" << in.alt;
    else if (in.op == Instr::Op::kJump) os << " -> " << in.next;
    if (in.var >= 0) os << " var=" << in.var;
    if (in.scope_id >= 0) os << " scope=" << in.scope_id;
    if (in.where != nullptr) os << " [" << in.where->ToString() << "]";
    os << "\n";
  }
  return os.str();
}

Result<Program> CompilePattern(const PathPatternDecl& decl,
                               const VarTable& vars) {
  Compiler c(vars);
  return c.Compile(decl);
}

namespace {

/// Builds the block-at-a-time plan (see BatchPlan in nfa.h): verifies the
/// linear `NodeCheck (EdgeStep NodeCheck)* Accept` shape, compiles every
/// inline WHERE into a PredicateKernel, resolves implicit equi-join targets
/// to their first binding occurrence, and hoists label checks that the
/// equi-join already implies. Any program outside the shape (or with a
/// non-kernel WHERE) yields an ineligible plan and the scalar interpreter
/// runs instead.
std::shared_ptr<const BatchPlan> BuildBatchPlan(const Program& program,
                                                const PropertyGraph& g,
                                                const VarTable& vars) {
  auto plan = std::make_shared<BatchPlan>();
  if (!program.selector.IsNone()) return plan;

  size_t pc = static_cast<size_t>(program.start);
  bool expect_node = true;
  while (true) {
    if (pc >= program.code.size()) return plan;
    const Instr& in = program.code[pc];
    if (expect_node) {
      if (in.op != Instr::Op::kNodeCheck) return plan;
      BatchPlan::NodeStep ns;
      ns.pc = static_cast<int>(pc);
      ns.var = in.var;
      if (in.node->where != nullptr) {
        ns.has_kernel = true;
        if (!PredicateKernel::Compile(*in.node->where, in.var, vars,
                                      g.property_symbols(), &ns.kernel)) {
          return plan;
        }
      }
      plan->nodes.push_back(std::move(ns));
      expect_node = false;
    } else {
      if (in.op == Instr::Op::kAccept) break;
      if (in.op != Instr::Op::kEdgeStep) return plan;
      BatchPlan::EdgeStep es;
      es.pc = static_cast<int>(pc);
      es.var = in.var;
      if (in.edge->where != nullptr) {
        es.has_kernel = true;
        if (!PredicateKernel::Compile(*in.edge->where, in.var, vars,
                                      g.property_symbols(), &es.kernel)) {
          return plan;
        }
      }
      plan->edges.push_back(std::move(es));
      expect_node = true;
    }
    if (in.next != static_cast<int>(pc) + 1) return plan;  // Linear only.
    ++pc;
  }

  // Equi-join targets: the first occurrence of each named variable is the
  // one the scalar environment binds; later occurrences compare against it
  // (serials are all 0 in frame-free programs). Anonymous variables never
  // join (the scalar path skips the environment for them too).
  for (size_t i = 0; i < plan->nodes.size(); ++i) {
    BatchPlan::NodeStep& ns = plan->nodes[i];
    if (vars.info(ns.var).anonymous) continue;
    for (size_t j = 0; j < i; ++j) {
      if (plan->nodes[j].var == ns.var) {
        ns.eq_pos = static_cast<int>(j);
        break;
      }
    }
    if (ns.eq_pos < 0) continue;
    const LabelExprPtr& mine =
        program.code[static_cast<size_t>(ns.pc)].node->labels;
    const LabelExprPtr& theirs =
        program.code[static_cast<size_t>(
                         plan->nodes[static_cast<size_t>(ns.eq_pos)].pc)]
            .node->labels;
    // Bind-time label hoist: a re-visit joined to an identical-label
    // occurrence already passed this label check when it was first bound.
    ns.label_implied =
        mine == nullptr ||
        (theirs != nullptr && mine->ToString() == theirs->ToString());
  }
  for (size_t i = 0; i < plan->edges.size(); ++i) {
    BatchPlan::EdgeStep& es = plan->edges[i];
    if (vars.info(es.var).anonymous) continue;
    for (size_t j = 0; j < i; ++j) {
      if (plan->edges[j].var == es.var) {
        es.eq_pos = static_cast<int>(j);
        break;
      }
    }
  }

  // A variable shared across kinds (node and edge) runs the scalar
  // element-equality join (which always fails on mixed kinds); keep such
  // degenerate patterns off the batch path rather than modelling them.
  for (const BatchPlan::NodeStep& ns : plan->nodes) {
    if (vars.info(ns.var).anonymous) continue;
    for (const BatchPlan::EdgeStep& es : plan->edges) {
      if (es.var == ns.var) return plan;  // `eligible` stays false.
    }
  }

  plan->eligible = !plan->nodes.empty();
  return plan;
}

/// Builds the witness route's plan (see WitnessPlan in nfa.h): the start
/// check and the inline WHEREs that compile into PredicateKernels.
std::shared_ptr<const WitnessPlan> BuildWitnessPlan(const Program& program,
                                                    const PropertyGraph& g,
                                                    const VarTable* vars) {
  auto plan = std::make_shared<WitnessPlan>();
  const size_t n = program.code.size();
  plan->kernel_of.assign(n, -1);
  if (program.code[static_cast<size_t>(program.start)].op ==
      Instr::Op::kNodeCheck) {
    plan->start_pc = program.start;
  }
  if (vars == nullptr) return plan;
  for (size_t pc = 0; pc < n; ++pc) {
    const Instr& in = program.code[pc];
    const Expr* where = in.op == Instr::Op::kNodeCheck ? in.node->where.get()
                        : in.op == Instr::Op::kEdgeStep
                            ? in.edge->where.get()
                            : nullptr;
    if (where == nullptr) continue;
    PredicateKernel kernel;
    if (!PredicateKernel::Compile(*where, in.var, *vars, g.property_symbols(),
                                  &kernel)) {
      continue;
    }
    plan->kernel_of[pc] = static_cast<int>(plan->kernels.size());
    plan->kernels.push_back(std::move(kernel));
  }
  return plan;
}

}  // namespace

void BindProgramToGraph(Program* program, const PropertyGraph& g,
                        const VarTable* vars) {
  const SymbolTable& labels = g.label_symbols();
  const bool use_bits = g.label_bits_usable();
  program->label_preds.clear();
  program->graph_token = g.identity_token();

  auto add_pred = [&](const LabelExprPtr& expr) {
    program->label_preds.push_back(
        CompiledLabelPred::Compile(expr, labels, use_bits));
    return static_cast<int>(program->label_preds.size()) - 1;
  };

  for (Instr& in : program->code) {
    in.lpred = -1;
    in.edge_label_sym = kNoLabelPartition;
    in.edge_prefiltered = false;
    if (in.op == Instr::Op::kNodeCheck && in.node->labels != nullptr) {
      in.lpred = add_pred(in.node->labels);
    }
    if (in.op != Instr::Op::kEdgeStep || in.edge->labels == nullptr) continue;
    in.lpred = add_pred(in.edge->labels);

    // Partition choice: a plain name scans exactly its bucket (membership
    // implies the match, no per-edge re-check); any other expression with
    // required conjuncts scans the globally rarest conjunct's bucket and
    // re-checks the compiled predicate per record.
    const LabelExpr& expr = *in.edge->labels;
    if (expr.kind == LabelExpr::Kind::kName) {
      in.edge_label_sym = labels.Find(expr.name);  // kInvalidSymbol = empty.
      in.edge_prefiltered = true;
      continue;
    }
    std::vector<const std::string*> required;
    expr.CollectRequiredNames(&required);
    if (required.empty()) continue;
    Symbol best = kNoLabelPartition;
    size_t best_count = 0;
    for (const std::string* name : required) {
      Symbol s = labels.Find(*name);
      if (s == kInvalidSymbol) {
        // A required label the graph never uses: nothing can match.
        best = kInvalidSymbol;
        break;
      }
      size_t count = g.EdgesWithLabel(*name).size();
      if (best == kNoLabelPartition || count < best_count) {
        best = s;
        best_count = count;
      }
    }
    in.edge_label_sym = best;
  }

  // Batch eligibility + kernel compilation. Derived data only — both the
  // scalar and the vectorized matcher run the same bound program; without a
  // variable table (tests binding raw programs) the batch path stays off.
  program->batch =
      vars != nullptr ? BuildBatchPlan(*program, g, *vars) : nullptr;
  program->witness = program->exact_visit_key
                         ? BuildWitnessPlan(*program, g, vars)
                         : nullptr;
}

}  // namespace gpml
