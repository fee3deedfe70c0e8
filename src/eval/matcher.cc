#include "eval/matcher.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <optional>
#include <thread>
#include <unordered_set>

#include "eval/expr_eval.h"
#include "eval/selector.h"
#include "obs/clock.h"

namespace gpml {

namespace {

// ---------------------------------------------------------------------------
// Search entries and their record arena
// ---------------------------------------------------------------------------
//
// The DFS and BFS routes search over plain-data entries. What a path has
// bound lives in one arena of records per matcher (one seed slice), each
// linked to older records by index: the path's bindings (WitnessLinks), its
// named-variable environment, its open frames, its restrictor scopes and
// its multiset-alternation tags. A record never changes once written, so
// entries that share a prefix share its records: forking an entry copies
// 40 bytes, and extending it appends a record.

/// A named-variable binding of the environment (§4.2's implicit
/// equi-join). `serial` is the quantifier iteration it was made in (§6's
/// superscript): the frame record that opened the iteration, or kNoLink
/// outside every quantifier.
struct EnvRecord {
  int var;
  ElementRef element;
  uint32_t serial;
  uint32_t prev;
};

/// An open frame and where the path stood when it opened: the group
/// boundary of §4.4's per-iteration predicates and the zero-progress
/// guard. A quantifier-iteration frame is also the serial of the iteration
/// it opens at depth + 1, and links to the path's previous iteration frame
/// (`serial_prev`).
struct FrameRecord {
  uint32_t outer;  // Enclosing open frame.
  uint32_t link_at_begin;
  uint32_t edges_at_begin;
  int depth;
  uint32_t serial_prev;
};

/// An open restrictor scope. Its memory is the path since it opened: the
/// edges bound after `link_at_begin` (TRAIL), and `start_node` plus the
/// nodes those edges reached (ACYCLIC, SIMPLE).
struct ScopeRecord {
  uint32_t outer;  // Enclosing open scope.
  Restrictor restrictor;
  NodeId start_node;
  uint32_t link_at_begin;
};

/// A multiset-alternation tag (§4.5).
struct TagRecord {
  int32_t tag;
  uint32_t prev;
};

/// One arena slot. Which member it holds follows from the link that
/// reaches it.
union Record {
  Record() : link() {}
  WitnessLink link;
  EnvRecord env;
  FrameRecord frame;
  ScopeRecord scope;
  TagRecord tag;
};

/// A search position: program counter `pc` at `node`, on a path of
/// `edges` edges from `start`, with the heads of its record chains.
struct Entry {
  int pc = 0;
  NodeId node = kInvalidId;
  NodeId start = kInvalidId;
  uint32_t edges = 0;
  uint32_t link = kNoLink;    // Last binding.
  uint32_t env = kNoLink;     // Last named-variable binding.
  uint32_t frame = kNoLink;   // Innermost open frame.
  uint32_t serial = kNoLink;  // Last quantifier-iteration frame.
  uint32_t scope = kNoLink;   // Innermost open restrictor scope.
  uint32_t tag = kNoLink;     // Last tag.
};

/// An exact (tagged pc, node, start) visit key of the witness route,
/// compared field by field, never by hash alone.
struct VisitKey {
  uint64_t nodes = 0;  // start << 32 | node.
  uint32_t pc = 0;
  uint64_t Hash() const {
    return nodes ^ (static_cast<uint64_t>(pc) * 0x9e3779b97f4a7c15ULL);
  }
};

/// A binding kept by one shard (or by the merge's cross-slice dedupe):
/// its ReducedHash and its index in the kept list.
struct KeptBinding {
  uint64_t hash = 0;
  uint32_t index = 0;
  uint64_t Hash() const { return hash; }
};

// ---------------------------------------------------------------------------
// Expression scope over an in-flight entry
// ---------------------------------------------------------------------------

/// `pending_var` (-1: none) is being bound to `pending`; the entry's
/// environment holds the named variables bound before. Witness-route
/// entries carry no environment: there the only other variable an inline
/// predicate can see is `start_var` (-1: not bound yet), the start node.
class SearchScope : public EvalScope {
 public:
  SearchScope(const std::vector<Record>& arena, const Entry& entry,
              int pending_var, ElementRef pending, const Params* params,
              int start_var = -1)
      : arena_(arena),
        entry_(entry),
        pending_var_(pending_var),
        pending_(pending),
        params_(params),
        start_var_(start_var) {}

  std::optional<ElementRef> LookupSingleton(int var) const override {
    if (var == pending_var_) return pending_;
    for (uint32_t i = entry_.env; i != kNoLink; i = arena_[i].env.prev) {
      if (arena_[i].env.var == var) return arena_[i].env.element;
    }
    if (var == start_var_) return ElementRef::Node(entry_.start);
    return std::nullopt;
  }

  std::vector<ElementRef> CollectGroup(int var) const override {
    // Innermost frame delimits the group (§4.4 per-iteration predicates and
    // §5.3 prefilters); without a frame, the whole binding so far.
    const uint32_t floor = entry_.frame == kNoLink
                               ? kNoLink
                               : arena_[entry_.frame].frame.link_at_begin;
    std::vector<ElementRef> out;
    for (uint32_t i = entry_.link; i != floor; i = arena_[i].link.prev) {
      const WitnessLink& l = arena_[i].link;
      if (l.binding.var == var) out.push_back(l.binding.element);
    }
    std::reverse(out.begin(), out.end());
    if (var == pending_var_) out.push_back(pending_);
    return out;
  }

  const Value* LookupParam(const std::string& name) const override {
    return FindParam(params_, name);
  }

 private:
  const std::vector<Record>& arena_;
  const Entry& entry_;
  int pending_var_;
  ElementRef pending_;
  const Params* params_;
  int start_var_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Seed computation (shared by all shards; computed once per RunPattern)
// ---------------------------------------------------------------------------

/// Seeds: start nodes. An explicit seed filter (planner-restricted start
/// list) takes precedence; otherwise, when the first check constrains the
/// node's labels with required conjuncts (a plain name, or any conjunction
/// containing names), only nodes carrying every conjunct can match, so seed
/// from the most selective conjunct's label index — a superset of the
/// matches in the same ascending-id order the full scan would visit them.
std::vector<NodeId> ComputeSeeds(const PropertyGraph& g,
                                 const Program& program,
                                 const std::vector<NodeId>* seed_filter) {
  if (seed_filter != nullptr) return *seed_filter;
  int pc = program.start;
  while (true) {
    const Instr& in = program.code[static_cast<size_t>(pc)];
    if (in.op == Instr::Op::kScopeBegin || in.op == Instr::Op::kJump ||
        in.op == Instr::Op::kFrameBegin || in.op == Instr::Op::kTag) {
      pc = in.next;
      continue;
    }
    if (in.op == Instr::Op::kNodeCheck && in.node->labels != nullptr) {
      std::vector<const std::string*> required;
      in.node->labels->CollectRequiredNames(&required);
      const std::vector<NodeId>* best = nullptr;
      for (const std::string* name : required) {
        const std::vector<NodeId>& candidates = g.NodesWithLabel(*name);
        if (best == nullptr || candidates.size() < best->size()) {
          best = &candidates;
        }
      }
      if (best != nullptr) return *best;
    }
    break;
  }
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) all[i] = i;
  return all;
}

namespace {

// ---------------------------------------------------------------------------
// The matcher: one shard's search over a contiguous block of the seed list
// ---------------------------------------------------------------------------

class Matcher {
 public:
  /// `budget` == nullptr (single-shard runs) keeps the limits in plain
  /// local counters — the exact historical per-step check, no atomics in
  /// the interpreter loop. With a shared budget (parallel shards), steps
  /// are charged in batches of `charge_stride` to keep the hot loop off the
  /// shared cache line (overshoot bounded by one batch per shard).
  /// `targets`, when non-null, is the sorted list of end nodes an accept
  /// may have (RunPattern's target_filter).
  Matcher(const PropertyGraph& g, const Program& program, const VarTable& vars,
          const MatcherOptions& options, const NodeId* seeds,
          size_t num_seeds, const std::vector<NodeId>* targets,
          SharedBudget* budget, size_t charge_stride, const Params* params)
      : g_(g),
        program_(program),
        vars_(vars),
        options_(options),
        seeds_(seeds),
        num_seeds_(num_seeds),
        targets_(targets),
        budget_(budget),
        charge_stride_(charge_stride),
        params_(params),
        witness_(program.witness.get()) {}

  Status Run() {
    GPML_RETURN_IF_ERROR(RunRoute());
    // A shard that finishes charges its last partial stride too, so a
    // sharded run is refused whenever its steps exceed max_steps.
    if (budget_ == nullptr || pending_steps_ == 0) return Status::OK();
    return budget_->ChargeSteps(pending_steps_);
  }

  /// Raw accepted bindings in discovery order, deduplicated within this
  /// shard (DFS: seed order; BFS: level order). Sorting, cross-shard
  /// deduplication, and the selector are applied by the caller's merge.
  std::vector<PathBinding> TakeResults() { return std::move(results_); }

  size_t steps() const { return steps_; }
  MatchRoute route() const { return route_; }
  size_t batch_blocks() const { return batch_blocks_; }
  size_t batch_candidates() const { return batch_candidates_; }
  size_t batch_survivors() const { return batch_survivors_; }
  /// The most arena records held at once (MatchStats::arena_records).
  size_t arena_records() const { return std::max(arena_peak_, arena_.size()); }

 private:
  // --- shared helpers ------------------------------------------------------

  Status RunRoute() {
    if (program_.exact_visit_key) {
      route_ = MatchRoute::kWitness;
      return RunWitness();
    }
    if (!program_.selector.IsNone()) {
      route_ = MatchRoute::kBfs;
      return RunBfs();
    }
    // Block-at-a-time route (docs/vectorized.md): eligible linear programs
    // with all predicate kernels bindable. Anything else — and a program
    // whose batch plan was cleared, the batch route's differential oracle —
    // runs the tuple-at-a-time interpreter.
    if (TryBindBatch()) {
      route_ = MatchRoute::kBatch;
      return RunBatch();
    }
    route_ = MatchRoute::kDfs;
    return RunDfs();
  }

  /// Charges one executed instruction or adjacency candidate.
  Status Budget() {
    // A charged step adds at most two arena records, so refusing here keeps
    // every record index below kNoLink.
    if (arena_.size() >= kNoLink - 2) {
      return Status::ResourceExhausted(
          "match search exceeded its record arena; tighten the pattern");
    }
    return ChargeSteps(1);
  }

  /// Charges `n` steps: with no shared budget against the local max_steps,
  /// per call (so a sequential run stops at exactly the step over the
  /// limit); else in strides of charge_stride_ against the shared budget.
  /// The batch route charges a block's gathered candidates in one call.
  Status ChargeSteps(size_t n) {
    steps_ += n;
    if (budget_ == nullptr) {
      if (steps_ > options_.max_steps) {
        return Status::ResourceExhausted(
            "match search exceeded max_steps; tighten the pattern or raise "
            "MatcherOptions::max_steps");
      }
      return Status::OK();
    }
    pending_steps_ += n;
    if (pending_steps_ >= charge_stride_) {
      size_t m = pending_steps_;
      pending_steps_ = 0;
      return budget_->ChargeSteps(m);
    }
    return Status::OK();
  }

  Entry MakeStart(NodeId s) const {
    Entry e;
    e.pc = program_.start;
    e.node = s;
    e.start = s;
    return e;
  }

  // --- the record arena -----------------------------------------------------

  /// Appends a record holding `value` as its `member`; its index.
  template <typename T>
  uint32_t Add(T Record::*member, const T& value) {
    arena_.emplace_back();
    new (&(arena_.back().*member)) T(value);  // Makes `member` active.
    return static_cast<uint32_t>(arena_.size() - 1);
  }

  uint32_t ArenaSize() const { return static_cast<uint32_t>(arena_.size()); }

  /// Drops the records from `size` on, noting the peak first.
  void CutArena(uint32_t size) {
    arena_peak_ = std::max(arena_peak_, arena_.size());
    arena_.resize(size);
  }

  /// serials[depth] of `e`'s path: the frame record that opened its current
  /// iteration at `depth`; kNoLink at depth 0 and before the first.
  uint32_t SerialAt(const Entry& e, int depth) const {
    for (uint32_t i = e.serial; i != kNoLink; i = arena_[i].frame.serial_prev) {
      if (arena_[i].frame.depth + 1 == depth) return i;
    }
    return kNoLink;
  }

  /// The implicit equi-join (§4.2) of binding `var` to `ref` on `e`'s
  /// path: false when the same variable is bound to another element in the
  /// same iteration instance. Otherwise `*extend` tells whether the binding
  /// is new to the environment, made in iteration `*serial`.
  bool JoinAdmits(const Entry& e, int var, ElementRef ref, bool* extend,
                  uint32_t* serial) const {
    *extend = false;
    const VarInfo& vi = vars_.info(var);
    if (vi.anonymous) return true;
    *serial = SerialAt(e, vi.depth);
    for (uint32_t i = e.env; i != kNoLink; i = arena_[i].env.prev) {
      const EnvRecord& prev = arena_[i].env;
      if (prev.var != var) continue;
      if (prev.serial == *serial) return prev.element == ref;
      break;
    }
    *extend = true;
    return true;
  }

  /// Label admissibility of a node check through the program's compiled
  /// symbol predicate (bit tests, no strings).
  bool NodeLabelsMatch(const Instr& in, NodeId node) const {
    if (in.node->labels == nullptr) return true;
    SymSpan syms = g_.node_label_syms(node);
    return program_.label_preds[static_cast<size_t>(in.lpred)].Matches(
        g_.node_label_bits(node), syms.data, syms.count);
  }

  /// Same for an edge step's label expression.
  bool EdgeLabelsMatch(const Instr& in, EdgeId edge) const {
    if (in.edge->labels == nullptr) return true;
    SymSpan syms = g_.edge_label_syms(edge);
    return program_.label_preds[static_cast<size_t>(in.lpred)].Matches(
        g_.edge_label_bits(edge), syms.data, syms.count);
  }

  /// The adjacency records an edge step must consider from `node`: the
  /// contiguous CSR bucket of the step's (most selective) label symbol when
  /// a partition applies, otherwise the full list.
  AdjSpan ExpansionRange(const Instr& in, NodeId node) const {
    if (in.edge_label_sym == kNoLabelPartition) return g_.AdjacencySpan(node);
    if (in.edge_label_sym == kInvalidSymbol) return {};  // Unknown label.
    return g_.csr().Range(node, in.edge_label_sym);
  }

  /// Checks a node pattern against `e`'s node and environment; returns
  /// false to prune. On success appends the binding.
  Result<bool> ApplyNodeCheck(const Instr& in, Entry* e) {
    const NodePattern& np = *in.node;
    if (!NodeLabelsMatch(in, e->node)) return false;
    const ElementRef ref = ElementRef::Node(e->node);
    bool extend_env = false;
    uint32_t serial = kNoLink;
    if (!JoinAdmits(*e, in.var, ref, &extend_env, &serial)) return false;
    if (np.where != nullptr) {
      SearchScope scope(arena_, *e, in.var, ref, params_);
      GPML_ASSIGN_OR_RETURN(TriBool ok,
                            EvalPredicate(*np.where, g_, vars_, scope));
      if (ok != TriBool::kTrue) return false;
    }
    if (extend_env) {
      e->env = Add(&Record::env, EnvRecord{in.var, ref, serial, e->env});
    }
    e->link = Add(&Record::link, WitnessLink{{in.var, ref},
                                             Traversal::kForward, e->node,
                                             e->link});
    return true;
  }

  /// Orientation admissibility (Figure 5).
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

  /// Orientation and label admissibility of the edge step `in` over `adj`.
  /// A prefiltered step's CSR bucket already guarantees the label.
  bool EdgeAdmits(const Instr& in, const Adjacency& adj) const {
    return Admits(in.edge->orientation, adj.traversal) &&
           (in.edge_prefiltered || EdgeLabelsMatch(in, adj.edge));
  }

  /// Restrictor admission of the edge step (eid, next) from `e`: every open
  /// scope walks the edges bound since it opened. TRAIL forbids edge
  /// repeats, ACYCLIC node repeats, SIMPLE allows one repeat of the scope's
  /// first node as the final position.
  bool CheckRestrictors(const Entry& e, EdgeId eid, NodeId next) const {
    for (uint32_t s = e.scope; s != kNoLink; s = arena_[s].scope.outer) {
      const ScopeRecord& sc = arena_[s].scope;
      if (sc.restrictor == Restrictor::kAcyclic && next == sc.start_node) {
        return false;
      }
      for (uint32_t i = e.link; i != sc.link_at_begin;
           i = arena_[i].link.prev) {
        const WitnessLink& l = arena_[i].link;
        if (!l.binding.element.is_edge()) continue;
        switch (sc.restrictor) {
          case Restrictor::kTrail:
            if (l.binding.element.id == eid) return false;
            break;
          case Restrictor::kSimple:
            if (l.node == sc.start_node) return false;  // Already closed.
            [[fallthrough]];
          case Restrictor::kAcyclic:
            if (l.node == next) return false;
            break;
          case Restrictor::kNone:
            break;
        }
      }
    }
    return true;
  }

  /// Attempts the edge step `in` from `cur` over adjacency `adj` (drawn from
  /// ExpansionRange); on success writes the successor to `next`. Every
  /// rejection test reads `cur` only, so a refused step adds no record.
  Result<bool> TryEdge(const Instr& in, const Entry& cur, const Adjacency& adj,
                       Entry* next) {
    if (!EdgeAdmits(in, adj)) return false;
    const EdgePattern& ep = *in.edge;
    const ElementRef ref = ElementRef::Edge(adj.edge);
    bool extend_env = false;
    uint32_t serial = kNoLink;
    if (!JoinAdmits(cur, in.var, ref, &extend_env, &serial)) return false;
    if (ep.where != nullptr) {
      SearchScope scope(arena_, cur, in.var, ref, params_);
      GPML_ASSIGN_OR_RETURN(TriBool ok,
                            EvalPredicate(*ep.where, g_, vars_, scope));
      if (ok != TriBool::kTrue) return false;
    }
    if (!CheckRestrictors(cur, adj.edge, adj.neighbor)) return false;

    *next = cur;
    if (extend_env) {
      next->env = Add(&Record::env, EnvRecord{in.var, ref, serial, cur.env});
    }
    next->link = Add(&Record::link, WitnessLink{{in.var, ref}, adj.traversal,
                                                adj.neighbor, cur.link});
    next->node = adj.neighbor;
    next->edges = cur.edges + 1;
    next->pc = in.next;
    return true;
  }

  /// Runs epsilon work from `entry` until edge steps (appended to `parked`)
  /// or accepts (recorded). Forks are handled with an explicit worklist —
  /// a member scratch so its capacity persists across the (very frequent)
  /// calls. Not reentrant; no callee reaches AdvanceEpsilon again.
  Status AdvanceEpsilon(Entry entry, std::vector<Entry>* parked) {
    std::vector<Entry>& work = epsilon_work_;
    work.clear();
    work.push_back(entry);
    while (!work.empty()) {
      Entry cur = work.back();
      work.pop_back();
      bool dead = false;
      while (!dead) {
        GPML_RETURN_IF_ERROR(Budget());
        const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
        switch (in.op) {
          case Instr::Op::kAccept: {
            if (TargetAdmits(cur.node)) {
              GPML_RETURN_IF_ERROR(RecordAccept(cur));
            }
            dead = true;
            break;
          }
          case Instr::Op::kEdgeStep:
            parked->push_back(cur);
            dead = true;
            break;
          case Instr::Op::kNodeCheck: {
            GPML_ASSIGN_OR_RETURN(bool ok, ApplyNodeCheck(in, &cur));
            if (!ok) {
              dead = true;
            } else {
              cur.pc = in.next;
            }
            break;
          }
          case Instr::Op::kSplit: {
            Entry fork = cur;
            fork.pc = in.alt;
            work.push_back(fork);
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kJump:
            cur.pc = in.next;
            break;
          case Instr::Op::kFrameBegin: {
            const uint32_t f =
                Add(&Record::frame, FrameRecord{cur.frame, cur.link, cur.edges,
                                                in.depth, cur.serial});
            cur.frame = f;
            if (in.quant_frame) cur.serial = f;
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kWhereCheck: {
            SearchScope scope(arena_, cur, -1, ElementRef(), params_);
            GPML_ASSIGN_OR_RETURN(TriBool ok,
                                  EvalPredicate(*in.where, g_, vars_, scope));
            if (ok != TriBool::kTrue) {
              dead = true;
            } else {
              cur.pc = in.next;
            }
            break;
          }
          case Instr::Op::kFrameEnd: {
            const FrameRecord& f = arena_[cur.frame].frame;
            if (in.guard_progress && cur.edges == f.edges_at_begin) {
              dead = true;  // Zero-width loop iteration: cut.
              break;
            }
            cur.frame = f.outer;
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kScopeBegin:
            cur.scope = Add(&Record::scope, ScopeRecord{cur.scope,
                                                        in.restrictor,
                                                        cur.node, cur.link});
            cur.pc = in.next;
            break;
          case Instr::Op::kScopeEnd:
            cur.scope = arena_[cur.scope].scope.outer;
            cur.pc = in.next;
            break;
          case Instr::Op::kTag:
            cur.tag = Add(&Record::tag, TagRecord{in.tag, cur.tag});
            cur.pc = in.next;
            break;
        }
      }
    }
    return Status::OK();
  }

  /// May an accept ending at `end` reach a row? Only end nodes in the
  /// target filter can pass the join that follows (RunPattern), so the
  /// others are dropped before their binding is built.
  bool TargetAdmits(NodeId end) const {
    return targets_ == nullptr ||
           std::binary_search(targets_->begin(), targets_->end(), end);
  }

  /// Records the accept of `e` (shared by the DFS, BFS and witness routes;
  /// the batch drain accepts in the same order, so the shard-local
  /// keep-first dedup is route-independent). The selector's keep rule
  /// gates it per endpoint partition before the binding is read: accepts
  /// arrive in nondecreasing length on the selector route, so a binding the
  /// rule refuses here is one ApplySelector would drop. max_matches counts
  /// only the bindings kept.
  Status RecordAccept(const Entry& e) {
    SelectorPartition* part = nullptr;
    if (!program_.selector.IsNone()) {
      part = SelectorGate(e.start, e.node, e.edges);
      if (part == nullptr) return Status::OK();
    }
    ReadLinks(e.link);
    tags_.clear();
    for (uint32_t i = e.tag; i != kNoLink; i = arena_[i].tag.prev) {
      tags_.push_back(arena_[i].tag.tag);
    }
    std::reverse(tags_.begin(), tags_.end());
    ReduceBindings(path_, vars_, tags_, &binding_);
    // The witness route's keep rule admits one binding per endpoint
    // partition, and equal bindings share their endpoints, so a binding
    // it admits never repeats a kept one: no dedupe lookup.
    return route_ == MatchRoute::kWitness ? CommitBinding(part, e.edges)
                                          : KeepBinding(part, e.edges);
  }

  /// Reads the bindings of the path whose last binding is `link` into
  /// path_, front-to-back.
  void ReadLinks(uint32_t link) {
    size_t n = 0;
    for (uint32_t i = link; i != kNoLink; i = arena_[i].link.prev) ++n;
    path_.resize(n);
    for (uint32_t i = link; i != kNoLink; i = arena_[i].link.prev) {
      path_[--n] = arena_[i].link;
    }
  }

  /// The selector's keep rule for an accept of `length` from `start` to
  /// `end`: its endpoint partition when the rule still admits it, else
  /// nullptr (the accept adds no row, so its binding is never built).
  SelectorPartition* SelectorGate(NodeId start, NodeId end, uint32_t length) {
    SelectorPartition& part = partitions_.Of(start, end);
    return SelectorKeeps(program_.selector, part, length) ? &part : nullptr;
  }

  /// Keeps binding_ unless this shard already kept an equal binding; `part`
  /// (nullptr without a selector) records it. Charges max_matches. A
  /// binding the charge refuses leaves its seen_ slot behind, which no
  /// lookup reaches: the search stops at the refusal.
  Status KeepBinding(SelectorPartition* part, uint32_t length) {
    const uint64_t hash = binding_.ReducedHash();
    auto [kept, fresh] =
        seen_.FindOrInsert(hash, [&](const KeptBinding& k) {
          return k.hash == hash && results_[k.index].SameReduced(binding_);
        });
    if (!fresh) return Status::OK();  // Duplicate.
    *kept = {hash, static_cast<uint32_t>(results_.size())};
    return CommitBinding(part, length);
  }

  /// Keeps a copy of binding_, which repeats no binding this shard kept —
  /// the only allocation of an accept — and charges it against
  /// max_matches.
  Status CommitBinding(SelectorPartition* part, uint32_t length) {
    if (part != nullptr) SelectorRecordKept(part, length);
    results_.push_back(binding_);
    Status charge;
    if (budget_ == nullptr) {
      if (results_.size() > options_.max_matches) {
        charge = Status::ResourceExhausted(
            "match set exceeded max_matches; add restrictors/selectors or "
            "raise MatcherOptions::max_matches");
      }
    } else {
      charge = budget_->ChargeMatch();
    }
    // Keep partial deliveries within the configured limit: the binding
    // that tripped max_matches is dropped (the search stops on the error).
    if (!charge.ok()) results_.pop_back();
    return charge;
  }

  // --- DFS route (no selector) --------------------------------------------

  Status RunDfs() {
    for (size_t i = 0; i < num_seeds_; ++i) {
      GPML_RETURN_IF_ERROR(RunDfsSeed(seeds_[i]));
    }
    return Status::OK();
  }

  /// One seed's depth-first search — also the batch route's per-seed
  /// fallback when a frontier level overflows the in-memory cap. Each
  /// parked entry keeps the arena size its epsilon closure left (`marks`):
  /// when it is popped, the records above that mark belonged to entries
  /// already expanded, so the arena is cut back to it, and a candidate
  /// that parks nothing is cut back at once. The arena thus holds only the
  /// paths of the entries on the stack.
  Status RunDfsSeed(NodeId seed) {
    std::vector<Entry>& stack = dfs_stack_;
    std::vector<uint32_t>& marks = dfs_marks_;
    stack.clear();
    marks.clear();
    CutArena(0);
    GPML_RETURN_IF_ERROR(AdvanceEpsilon(MakeStart(seed), &stack));
    marks.resize(stack.size(), ArenaSize());
    while (!stack.empty()) {
      const Entry cur = stack.back();
      stack.pop_back();
      CutArena(marks.back());
      marks.pop_back();
      const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
      for (const Adjacency& adj : ExpansionRange(in, cur.node)) {
        GPML_RETURN_IF_ERROR(Budget());
        const uint32_t before = ArenaSize();
        Entry next;
        GPML_ASSIGN_OR_RETURN(bool admitted, TryEdge(in, cur, adj, &next));
        if (!admitted) continue;
        GPML_RETURN_IF_ERROR(AdvanceEpsilon(next, &stack));
        if (stack.size() == marks.size()) {
          CutArena(before);
        } else {
          marks.resize(stack.size(), ArenaSize());
        }
      }
    }
    return Status::OK();
  }

  // --- Batch route (docs/vectorized.md) -----------------------------------
  //
  // Linear fixed-length patterns expand level by level: levels_[l] holds
  // every partial binding of length l as a 16-byte FrontierEntry (no
  // environment, frame or binding records — the binding is the
  // parent-pointer path itself). Each level is expanded in blocks of
  // kBatchBlockTarget entries: the block's adjacency candidates are gathered
  // into dense arrays, the filter cascade runs as selection-vector passes
  // over those arrays, and only final-hop survivors are ever read out as a
  // binding. Rows come out byte-identical to the scalar DFS because the
  // drain replays its accept order: the DFS pops parked entries in reverse of
  // their push order at every level, so the level-(L-1) entries are visited
  // in exact reverse of the forward build order, each emitting its surviving
  // final-hop children in forward adjacency order.

  /// One partial binding on a frontier level: the node reached, the edge
  /// that reached it (kInvalidId on level 0), and the parent entry on the
  /// previous level.
  struct FrontierEntry {
    NodeId node = kInvalidId;
    EdgeId edge = kInvalidId;
    uint32_t parent = 0;
    Traversal traversal = Traversal::kForward;
  };

  /// Struct-of-arrays candidate block: the gathered adjacency records of one
  /// frontier block (a prefix of each array; the arrays only grow), plus
  /// the two selection vectors the filter passes ping-pong between.
  struct CandidateBlock {
    std::vector<uint32_t> parent;  // Absolute index into the source level.
    std::vector<EdgeId> edge;
    std::vector<NodeId> neighbor;
    std::vector<Traversal> traversal;
    std::vector<uint32_t> sel;
    std::vector<uint32_t> sel2;
    std::vector<AdjSpan> ranges;  // Per frontier entry of the block.

    /// Room for `n` candidates.
    void Reserve(size_t n) {
      if (parent.size() >= n) return;
      parent.resize(n);
      edge.resize(n);
      neighbor.resize(n);
      traversal.resize(n);
    }
  };

  /// Per-seed frontier size cap: a level growing past this falls the seed
  /// back to the scalar DFS (bounded memory; the DFS recomputes from
  /// scratch, which is safe because the batch route emits no accepts until
  /// the final drain).
  static constexpr size_t kMaxLevelEntries = 1u << 22;

  /// Binds the program's compiled predicate kernels to this run's $params.
  /// False routes the run to the scalar interpreter: the program is not
  /// batch-eligible, or a kernel references an unbound parameter (the scalar
  /// evaluator then reproduces the unbound-parameter error exactly).
  bool TryBindBatch() {
    const BatchPlan* bp = program_.batch.get();
    if (bp == nullptr || !bp->eligible) return false;
    auto bind = [this](const auto& steps,
                       std::vector<BoundPredicateKernel>* kernels) {
      kernels->assign(steps.size(), BoundPredicateKernel());
      for (size_t i = 0; i < steps.size(); ++i) {
        if (steps[i].has_kernel &&
            !BindPredicateKernel(steps[i].kernel, params_, &(*kernels)[i])) {
          return false;
        }
      }
      return true;
    };
    return bind(bp->nodes, &node_kernels_) && bind(bp->edges, &edge_kernels_);
  }

  /// The ancestor of `levels_[level][idx]` at `target_level`, by walking
  /// parent pointers — how equi-join passes reach the joined-to binding
  /// without any environment structure.
  const FrontierEntry& Ancestor(size_t level, uint32_t idx,
                                size_t target_level) const {
    const FrontierEntry* e = &levels_[level][idx];
    while (level > target_level) {
      idx = e->parent;
      --level;
      e = &levels_[level][idx];
    }
    return *e;
  }

  /// Expands levels_[h] into levels_[h+1] block-at-a-time. Returns true on
  /// overflow (the caller falls back to the scalar DFS for this seed).
  Result<bool> ExpandLevel(size_t h) {
    const BatchPlan& bp = *program_.batch;
    const BatchPlan::EdgeStep& es = bp.edges[h];
    const BatchPlan::NodeStep& ns = bp.nodes[h + 1];
    const Instr& edge_in = program_.code[static_cast<size_t>(es.pc)];
    const Instr& node_in = program_.code[static_cast<size_t>(ns.pc)];
    const EdgeOrientation orientation = edge_in.edge->orientation;
    const bool check_edge_label =
        !edge_in.edge_prefiltered && edge_in.edge->labels != nullptr;
    const bool check_node_label =
        node_in.node->labels != nullptr && !ns.label_implied;
    unsigned admitted = 0;  // Bit t: orientation admits Traversal t.
    for (Traversal t : {Traversal::kForward, Traversal::kBackward,
                        Traversal::kUndirected}) {
      if (Admits(orientation, t)) admitted |= 1u << static_cast<unsigned>(t);
    }

    const std::vector<FrontierEntry>& frontier = levels_[h];
    std::vector<FrontierEntry>& next = levels_[h + 1];
    CandidateBlock& blk = block_;

    for (size_t base = 0; base < frontier.size();
         base += kBatchBlockTarget) {
      const size_t limit =
          std::min(base + kBatchBlockTarget, frontier.size());

      // Gather: every adjacency candidate of the block's frontier entries,
      // straight out of the contiguous CSR label bucket (or the full
      // adjacency list when no partition applies). The structural
      // conjuncts — orientation and the equi-joins, whose joined-to
      // element is fixed per frontier entry — run in the gather: every
      // candidate is written, and only one they admit advances the count,
      // so the loop has no data-dependent branch.
      blk.ranges.clear();
      size_t n = 0;
      for (size_t f = base; f < limit; ++f) {
        blk.ranges.push_back(ExpansionRange(edge_in, frontier[f].node));
        n += blk.ranges.back().count;
      }
      GPML_RETURN_IF_ERROR(ChargeSteps(n));
      ++batch_blocks_;
      batch_candidates_ += n;
      blk.Reserve(n);
      size_t m = 0;
      for (size_t f = base; f < limit; ++f) {
        const uint32_t parent = static_cast<uint32_t>(f);
        // Edge equi-join: hop q's edge lives on the level-(q+1) entry.
        const EdgeId want_edge =
            es.eq_pos < 0
                ? kInvalidId
                : Ancestor(h, parent, static_cast<size_t>(es.eq_pos) + 1).edge;
        const NodeId want_node =
            ns.eq_pos < 0
                ? kInvalidId
                : Ancestor(h, parent, static_cast<size_t>(ns.eq_pos)).node;
        for (const Adjacency& adj : blk.ranges[f - base]) {
          blk.parent[m] = parent;
          blk.edge[m] = adj.edge;
          blk.neighbor[m] = adj.neighbor;
          blk.traversal[m] = adj.traversal;
          m += ((admitted >> static_cast<unsigned>(adj.traversal)) & 1u) &
               static_cast<unsigned>(es.eq_pos < 0 || adj.edge == want_edge) &
               static_cast<unsigned>(ns.eq_pos < 0 ||
                                     adj.neighbor == want_node);
        }
      }
      if (m == 0) continue;

      // Filter cascade over selection vectors: each pass scans the current
      // survivor list and compacts it. Pass order is free to differ from
      // the interpreter's check order because every pass is a pure
      // conjunct — the surviving set is the same either way.
      blk.sel.resize(m);
      for (size_t i = 0; i < m; ++i) blk.sel[i] = static_cast<uint32_t>(i);
      auto filter = [&blk](auto&& keep) {
        blk.sel2.clear();
        for (uint32_t i : blk.sel) {
          if (keep(i)) blk.sel2.push_back(i);
        }
        blk.sel.swap(blk.sel2);
      };

      if (check_edge_label) {
        filter([&](uint32_t i) {
          return EdgeLabelsMatch(edge_in, blk.edge[i]);
        });
      }
      if (!edge_kernels_[h].terms.empty()) {
        const BoundPredicateKernel& kernel = edge_kernels_[h];
        filter([&](uint32_t i) {
          return EvalKernel(kernel, g_, /*is_node=*/false, blk.edge[i]);
        });
      }
      if (check_node_label) {
        filter([&](uint32_t i) {
          return NodeLabelsMatch(node_in, blk.neighbor[i]);
        });
      }
      if (!node_kernels_[h + 1].terms.empty()) {
        const BoundPredicateKernel& kernel = node_kernels_[h + 1];
        filter([&](uint32_t i) {
          return EvalKernel(kernel, g_, /*is_node=*/true, blk.neighbor[i]);
        });
      }

      batch_survivors_ += blk.sel.size();
      for (uint32_t i : blk.sel) {
        next.push_back({blk.neighbor[i], blk.edge[i], blk.parent[i],
                        blk.traversal[i]});
      }
      if (next.size() > kMaxLevelEntries) return true;  // Overflow.
    }
    return false;
  }

  /// Records the accept of the path ending at levels_[level][idx], its
  /// bindings read off the parent links exactly as the interpreter binds
  /// them: node, then (edge, node) per hop.
  Status AcceptFrontier(size_t level, uint32_t idx) {
    const BatchPlan& bp = *program_.batch;
    path_.resize(2 * level + 1);
    const FrontierEntry* e = &levels_[level][idx];
    for (size_t l = level;; --l) {
      path_[2 * l] = {{bp.nodes[l].var, ElementRef::Node(e->node)},
                      Traversal::kForward, e->node, kNoLink};
      if (l == 0) break;
      path_[2 * l - 1] = {{bp.edges[l - 1].var, ElementRef::Edge(e->edge)},
                          e->traversal, e->node, kNoLink};
      e = &levels_[l - 1][e->parent];
    }
    ReduceBindings(path_, vars_, tags_, &binding_);
    return KeepBinding(nullptr, static_cast<uint32_t>(level));
  }

  Status RunBatch() {
    const BatchPlan& bp = *program_.batch;
    const size_t hops = bp.edges.size();
    levels_.resize(hops + 1);
    tags_.clear();  // Eligible programs emit no kTag.

    for (size_t s = 0; s < num_seeds_; ++s) {
      const NodeId seed = seeds_[s];
      // Level 0: the seed must pass the first node check (seeding may have
      // come from a label-index superset, exactly like the scalar route).
      GPML_RETURN_IF_ERROR(ChargeSteps(1));
      const Instr& first = program_.code[static_cast<size_t>(bp.nodes[0].pc)];
      if (!NodeLabelsMatch(first, seed)) continue;
      if (!node_kernels_[0].terms.empty() &&
          !EvalKernel(node_kernels_[0], g_, /*is_node=*/true, seed)) {
        continue;
      }
      for (std::vector<FrontierEntry>& level : levels_) level.clear();
      levels_[0].push_back({seed, kInvalidId, 0, Traversal::kForward});
      if (hops == 0) {
        if (TargetAdmits(seed)) GPML_RETURN_IF_ERROR(AcceptFrontier(0, 0));
        continue;
      }

      bool overflow = false;
      for (size_t h = 0; h < hops && !overflow; ++h) {
        GPML_ASSIGN_OR_RETURN(overflow, ExpandLevel(h));
        if (!overflow && levels_[h + 1].empty()) break;
      }
      if (overflow) {
        // Bounded-memory fallback: redo this seed tuple-at-a-time. No
        // accepts have been emitted for it yet, so the replay keeps the
        // result stream identical (the already-charged batch steps stay
        // charged — deterministic overshoot).
        GPML_RETURN_IF_ERROR(RunDfsSeed(seed));
        continue;
      }
      if (levels_[hops].empty()) continue;

      // Drain in scalar-DFS accept order: level-(hops-1) entries in reverse
      // of forward build order, each emitting its surviving final-hop
      // children in forward adjacency order. Children of one parent are
      // contiguous in levels_[hops] because the gather walks parents in
      // order — so a per-parent offset table suffices.
      const std::vector<FrontierEntry>& parents = levels_[hops - 1];
      const std::vector<FrontierEntry>& finals = levels_[hops];
      drain_offsets_.assign(parents.size() + 1, 0);
      for (const FrontierEntry& e : finals) {
        ++drain_offsets_[e.parent + 1];
      }
      for (size_t p = 1; p <= parents.size(); ++p) {
        drain_offsets_[p] += drain_offsets_[p - 1];
      }
      for (size_t p = parents.size(); p-- > 0;) {
        for (size_t i = drain_offsets_[p]; i < drain_offsets_[p + 1]; ++i) {
          if (!TargetAdmits(finals[i].node)) continue;
          GPML_RETURN_IF_ERROR(
              AcceptFrontier(hops, static_cast<uint32_t>(i)));
        }
      }
    }
    return Status::OK();
  }

  // --- BFS route (selector present) ---------------------------------------

  /// Writes the pruning key of `e`, parked at an edge step, into key_: the
  /// product state plus everything that influences future admissibility or
  /// result identity — the latest binding of each named variable and
  /// whether it was made in the current iteration instance at its depth,
  /// the bindings since the outermost open frame began and the number of
  /// open frames, each open scope's restrictor memory (as a sorted set),
  /// and the tags. Each part of variable length is preceded by its length,
  /// and a variable's kind fixes its element's, so equal words are equal
  /// keys. The key holds the start node, so visit budgets are per start
  /// node and seed-partitioned shards prune exactly like the sequential
  /// frontier. Serves only programs outside Program::exact_visit_key (those
  /// run on the witness route).
  void BuildStateKey(const Entry& e) {
    std::vector<uint32_t>& w = key_;
    w.clear();
    w.push_back(static_cast<uint32_t>(e.pc));
    w.push_back(e.node);
    w.push_back(e.start);
    auto close = [&w](size_t at) {
      w[at] = static_cast<uint32_t>(w.size() - at - 1);
    };

    size_t at = w.size();
    w.push_back(0);
    if (var_seen_.size() != static_cast<size_t>(vars_.size())) {
      var_seen_.assign(static_cast<size_t>(vars_.size()), 0);
    }
    var_seen_list_.clear();
    for (uint32_t i = e.env; i != kNoLink; i = arena_[i].env.prev) {
      const EnvRecord& r = arena_[i].env;
      uint8_t& seen = var_seen_[static_cast<size_t>(r.var)];
      if (seen != 0) continue;
      seen = 1;
      var_seen_list_.push_back(r.var);
      w.push_back(static_cast<uint32_t>(r.var));
      w.push_back(r.element.id);
      w.push_back(r.serial == SerialAt(e, vars_.info(r.var).depth) ? 1 : 0);
    }
    for (int var : var_seen_list_) var_seen_[static_cast<size_t>(var)] = 0;
    close(at);

    at = w.size();
    w.push_back(0);
    if (e.frame != kNoLink) {
      uint32_t outermost = e.frame;
      uint32_t frames = 1;
      for (; arena_[outermost].frame.outer != kNoLink; ++frames) {
        outermost = arena_[outermost].frame.outer;
      }
      const uint32_t floor = arena_[outermost].frame.link_at_begin;
      for (uint32_t i = e.link; i != floor; i = arena_[i].link.prev) {
        w.push_back(static_cast<uint32_t>(arena_[i].link.binding.var));
        w.push_back(arena_[i].link.binding.element.id);
      }
      w.push_back(frames);
    }
    close(at);

    at = w.size();
    w.push_back(0);
    for (uint32_t s = e.scope; s != kNoLink; s = arena_[s].scope.outer) {
      const ScopeRecord& sc = arena_[s].scope;
      ids_.clear();
      bool revisited = false;  // SIMPLE: the start node was reached again.
      for (uint32_t i = e.link; i != sc.link_at_begin;
           i = arena_[i].link.prev) {
        const WitnessLink& l = arena_[i].link;
        if (!l.binding.element.is_edge()) continue;
        if (sc.restrictor == Restrictor::kTrail) {
          ids_.push_back(l.binding.element.id);
        } else if (l.node == sc.start_node) {
          revisited = true;
        } else {
          ids_.push_back(l.node);
        }
      }
      std::sort(ids_.begin(), ids_.end());
      w.push_back(static_cast<uint32_t>(sc.restrictor));
      w.push_back(sc.start_node);
      w.push_back(revisited ? 1 : 0);
      w.push_back(static_cast<uint32_t>(ids_.size()));
      w.insert(w.end(), ids_.begin(), ids_.end());
    }
    close(at);

    for (uint32_t i = e.tag; i != kNoLink; i = arena_[i].tag.prev) {
      w.push_back(static_cast<uint32_t>(arena_[i].tag.tag));
    }
  }

  /// May `e` (parked at an edge step, at BFS level e.edges) expand? Keys
  /// are looked up by hash and compared word by word, so two states are
  /// pruned together only when their keys are equal.
  bool AdmitExpansion(const Entry& e) {
    BuildStateKey(e);
    uint64_t h = 0x9ddfea08eb382d69ULL;
    for (uint32_t word : key_) h = HashCombine(h, word);
    auto [slot, fresh] = visits_.FindOrInsert(h, [&](const VisitSlot& v) {
      return v.hash == h && v.len == key_.size() &&
             std::equal(key_.begin(), key_.end(),
                        key_words_.begin() + static_cast<long>(v.offset));
    });
    if (fresh) {
      slot->hash = h;
      slot->offset = key_words_.size();
      slot->len = static_cast<uint32_t>(key_.size());
      key_words_.insert(key_words_.end(), key_.begin(), key_.end());
    }
    VisitSlot& v = *slot;
    const uint32_t level = e.edges;
    const size_t k = static_cast<size_t>(program_.selector.k);
    switch (program_.selector.kind) {
      case Selector::Kind::kAny:
      case Selector::Kind::kAnyShortest:
        if (v.count >= 1) return false;
        v.count = 1;
        return true;
      case Selector::Kind::kAllShortest:
        if (v.count == 0) {
          v.count = 1;
          v.level = level;
          return true;
        }
        return level <= v.level;
      case Selector::Kind::kAnyK:
      case Selector::Kind::kShortestK:
        if (v.count >= k) return false;
        ++v.count;
        return true;
      case Selector::Kind::kShortestKGroup:
        // Levels arrive in increasing order, so a level admitted before is
        // the last one admitted.
        if (v.count > 0 && v.level == level) return true;
        if (v.count >= k) return false;
        ++v.count;
        v.level = level;
        return true;
      case Selector::Kind::kNone:
        return true;
    }
    return true;
  }

  Status RunBfs() {
    std::vector<Entry> frontier;
    std::vector<Entry> next;
    for (size_t i = 0; i < num_seeds_; ++i) {
      GPML_RETURN_IF_ERROR(AdvanceEpsilon(MakeStart(seeds_[i]), &frontier));
    }
    while (!frontier.empty()) {
      next.clear();
      for (const Entry& cur : frontier) {
        if (!AdmitExpansion(cur)) continue;
        const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
        for (const Adjacency& adj : ExpansionRange(in, cur.node)) {
          GPML_RETURN_IF_ERROR(Budget());
          Entry successor;
          GPML_ASSIGN_OR_RETURN(bool admitted,
                                TryEdge(in, cur, adj, &successor));
          if (admitted) {
            GPML_RETURN_IF_ERROR(AdvanceEpsilon(successor, &next));
          }
        }
      }
      frontier.swap(next);
    }
    // Results were recorded in nondecreasing path length because accepts at
    // level L are recorded while processing level L; keep stable order.
    return Status::OK();
  }

  // --- Witness route (Program::exact_visit_key) ---------------------------
  //
  // An exact-key ANY / ANY SHORTEST program searches the (pc, node, start)
  // product graph: nothing else in a state can change what the search does
  // next (docs/planner.md, "Selector route"). So a frontier entry is 16
  // bytes, (pc, node, start, link), and its closure keeps no environment
  // (the named variables are the start node, bound once, and the end node,
  // bound just before kAccept), serials, scopes, tags (none) or frame
  // stack: a frame opened in an earlier closure has seen an edge since, so
  // a counter of the frames opened in this closure is the whole frame
  // state guard_progress needs. The closure runs AdvanceEpsilon's
  // instructions in the same order and charges Budget() the same way, so
  // step counts, max_steps cut-offs, kTruncate prefixes, accept order and
  // witnesses stay pinned (bench_csr, selector_test). Rows are the general
  // selector search's: the same program with exact_visit_key cleared is
  // the differential oracle (tests/witness_test.cc).

  /// A frontier entry: parked at the edge step `pc` on `node`.
  struct WitnessEntry {
    uint32_t pc;
    NodeId node;
    NodeId start;
    uint32_t link;  // Last binding of the path in arena_.
  };

  /// A pending branch of one epsilon closure (kSplit's alternative).
  struct WitnessFork {
    int pc;
    uint32_t link;
    uint32_t fresh_frames;  // Frames opened in this closure, still open.
  };

  /// The visit-key pc: a parked entry (at an edge step) and a fresh
  /// successor (just past one) live in separate halves, since an edge step
  /// can directly follow another.
  static uint32_t VisitPc(int pc, bool parked) {
    return static_cast<uint32_t>(pc) * 2 + (parked ? 1 : 0);
  }

  /// Records the visit key (pc, node, start); false when it was already
  /// present.
  bool Visit(uint32_t pc, NodeId node, NodeId start) {
    const VisitKey key{(static_cast<uint64_t>(start) << 32) | node, pc};
    auto [slot, fresh] = visited_.FindOrInsert(
        key.Hash(),
        [&](const VisitKey& k) { return k.pc == pc && k.nodes == key.nodes; });
    if (fresh) *slot = key;
    return fresh;
  }

  /// Evaluates the inline WHERE of the check at `pc` on the element being
  /// bound: through its bound kernel when it has one, else the scalar
  /// evaluator, which sees that element and the start node.
  Result<bool> WitnessWhere(int pc, const Expr& where, int var,
                            ElementRef pending, NodeId start) {
    const int k = witness_->kernel_of[static_cast<size_t>(pc)];
    if (k >= 0 && witness_kernel_bound_[static_cast<size_t>(k)]) {
      return EvalKernel(witness_kernels_[static_cast<size_t>(k)], g_,
                        pending.is_node(), pending.id);
    }
    Entry at;
    at.start = start;
    SearchScope scope(arena_, at, var, pending, params_,
                      pc != witness_->start_pc ? witness_start_var_ : -1);
    GPML_ASSIGN_OR_RETURN(TriBool ok, EvalPredicate(where, g_, vars_, scope));
    return ok == TriBool::kTrue;
  }

  /// ApplyNodeCheck without an environment: the start variable met again
  /// must be the start node (§4.2's implicit equi-join); every other named
  /// check binds for the first time.
  Result<bool> WitnessNodeCheck(const Instr& in, int pc, NodeId node,
                                NodeId start) {
    if (!NodeLabelsMatch(in, node)) return false;
    if (in.var == witness_start_var_ && pc != witness_->start_pc &&
        node != start) {
      return false;
    }
    if (in.node->where == nullptr) return true;
    return WitnessWhere(pc, *in.node->where, in.var, ElementRef::Node(node),
                        start);
  }

  /// AdvanceEpsilon for one witness entry reached at `level` edges: parks
  /// edge steps in `parked` and records accepts.
  Status WitnessClosure(int pc, NodeId node, NodeId start, uint32_t link,
                        uint32_t level, std::vector<WitnessEntry>* parked) {
    std::vector<WitnessFork>& work = witness_work_;
    work.clear();
    work.push_back({pc, link, 0});
    while (!work.empty()) {
      WitnessFork cur = work.back();
      work.pop_back();
      bool dead = false;
      while (!dead) {
        GPML_RETURN_IF_ERROR(Budget());
        const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
        switch (in.op) {
          case Instr::Op::kAccept:
            if (TargetAdmits(node)) {
              Entry done = MakeStart(start);
              done.node = node;
              done.edges = level;
              done.link = cur.link;
              GPML_RETURN_IF_ERROR(RecordAccept(done));
            }
            dead = true;
            break;
          case Instr::Op::kEdgeStep:
            parked->push_back(
                {static_cast<uint32_t>(cur.pc), node, start, cur.link});
            dead = true;
            break;
          case Instr::Op::kNodeCheck: {
            GPML_ASSIGN_OR_RETURN(bool ok,
                                  WitnessNodeCheck(in, cur.pc, node, start));
            if (!ok) {
              dead = true;
              break;
            }
            cur.link = Add(&Record::link,
                           WitnessLink{{in.var, ElementRef::Node(node)},
                                       Traversal::kForward, node, cur.link});
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kSplit:
            work.push_back({in.alt, cur.link, cur.fresh_frames});
            cur.pc = in.next;
            break;
          case Instr::Op::kJump:
            cur.pc = in.next;
            break;
          case Instr::Op::kFrameBegin:
            ++cur.fresh_frames;
            cur.pc = in.next;
            break;
          case Instr::Op::kFrameEnd:
            if (cur.fresh_frames > 0) {
              if (in.guard_progress) {
                dead = true;  // Zero-width loop iteration: cut.
                break;
              }
              --cur.fresh_frames;
            }
            cur.pc = in.next;
            break;
          case Instr::Op::kWhereCheck:
          case Instr::Op::kScopeBegin:
          case Instr::Op::kScopeEnd:
          case Instr::Op::kTag:
            return Status::Internal(
                "witness route: instruction outside an exact-key program");
        }
      }
    }
    return Status::OK();
  }

  /// RunBfs on witness entries: the same level order, the same Budget()
  /// charge per adjacency candidate, the same TryEdge checks in the same
  /// order, and the exact (pc, node, start) visit keys.
  Status RunWitness() {
    if (witness_->start_pc >= 0) {
      const int var =
          program_.code[static_cast<size_t>(witness_->start_pc)].var;
      if (!vars_.info(var).anonymous) witness_start_var_ = var;
    }
    witness_kernels_.resize(witness_->kernels.size());
    witness_kernel_bound_.assign(witness_->kernels.size(), false);
    for (size_t k = 0; k < witness_->kernels.size(); ++k) {
      // An unbound $param leaves the kernel unbound: the scalar evaluator
      // then reports the error exactly as the general search does.
      witness_kernel_bound_[k] = BindPredicateKernel(
          witness_->kernels[k], params_, &witness_kernels_[k]);
    }

    std::vector<WitnessEntry> frontier;
    std::vector<WitnessEntry> next;
    for (size_t i = 0; i < num_seeds_; ++i) {
      GPML_RETURN_IF_ERROR(WitnessClosure(program_.start, seeds_[i],
                                          seeds_[i], kNoLink, 0, &frontier));
    }
    for (uint32_t level = 0; !frontier.empty(); ++level) {
      next.clear();
      for (const WitnessEntry& cur : frontier) {
        if (!Visit(VisitPc(static_cast<int>(cur.pc), true), cur.node,
                   cur.start)) {
          continue;
        }
        const Instr& in = program_.code[cur.pc];
        const EdgePattern& ep = *in.edge;
        for (const Adjacency& adj : ExpansionRange(in, cur.node)) {
          GPML_RETURN_IF_ERROR(Budget());
          if (!EdgeAdmits(in, adj)) continue;
          const ElementRef ref = ElementRef::Edge(adj.edge);
          if (ep.where != nullptr) {
            GPML_ASSIGN_OR_RETURN(
                bool ok, WitnessWhere(static_cast<int>(cur.pc), *ep.where,
                                      in.var, ref, cur.start));
            if (!ok) continue;
          }
          // A successor whose position was already reached adds nothing.
          if (!Visit(VisitPc(in.next, false), adj.neighbor, cur.start)) {
            continue;
          }
          const uint32_t link =
              Add(&Record::link, WitnessLink{{in.var, ref}, adj.traversal,
                                             adj.neighbor, cur.link});
          GPML_RETURN_IF_ERROR(WitnessClosure(in.next, adj.neighbor,
                                              cur.start, link, level + 1,
                                              &next));
        }
      }
      frontier.swap(next);
    }
    return Status::OK();
  }

  /// One BFS pruning key (key_words_[offset, offset + len)) and its
  /// visits: `count` expansions admitted (SHORTEST k GROUP: distinct
  /// levels), at `level` (ALL SHORTEST: the first; GROUP: the last).
  struct VisitSlot {
    uint64_t hash = 0;
    size_t offset = 0;
    uint32_t len = 0;
    uint32_t level = 0;
    size_t count = 0;
    uint64_t Hash() const { return hash; }
  };

  const PropertyGraph& g_;
  const Program& program_;
  const VarTable& vars_;
  const MatcherOptions& options_;
  const NodeId* seeds_;
  size_t num_seeds_;
  const std::vector<NodeId>* targets_;  // Sorted; nullptr: any end node.
  SharedBudget* budget_;  // nullptr: local exact limits (single shard).
  const size_t charge_stride_;
  const Params* params_;  // $name bindings for inline predicates; may be null.
  const WitnessPlan* witness_;  // Set exactly for exact_visit_key programs.

  size_t steps_ = 0;
  size_t pending_steps_ = 0;
  std::vector<Record> arena_;  // Every route but the batch matcher's.
  size_t arena_peak_ = 0;      // Largest arena_.size() before a cut.
  std::vector<Entry> epsilon_work_;  // AdvanceEpsilon scratch.
  std::vector<Entry> dfs_stack_;     // RunDfsSeed's parked entries and
  std::vector<uint32_t> dfs_marks_;  // the arena size each left.
  // Accept scratch, reused by every accept of every route:
  std::vector<WitnessLink> path_;  // The path's bindings, front-to-back.
  std::vector<int32_t> tags_;
  PathBinding binding_;            // Reduced; copied only when kept.
  // Batch-route state (sized once, reused across seeds and levels):
  std::vector<BoundPredicateKernel> node_kernels_;  // Indexed like
  std::vector<BoundPredicateKernel> edge_kernels_;  // BatchPlan::nodes/edges.
  std::vector<std::vector<FrontierEntry>> levels_;
  CandidateBlock block_;
  std::vector<size_t> drain_offsets_;
  size_t batch_blocks_ = 0;
  size_t batch_candidates_ = 0;
  size_t batch_survivors_ = 0;
  std::vector<PathBinding> results_;
  FlatTable<KeptBinding> seen_;  // results_ by ReducedHash.
  SelectorPartitions partitions_;  // Selector route: kept per endpoint pair.
  // BFS-route state:
  FlatTable<VisitSlot> visits_;
  std::vector<uint32_t> key_words_;  // Every VisitSlot's key.
  std::vector<uint32_t> key_;        // BuildStateKey scratch.
  std::vector<uint32_t> ids_;        // One scope's memory, sorted.
  std::vector<uint8_t> var_seen_;    // Indexed by var id; all zero
  std::vector<int> var_seen_list_;   // between BuildStateKey calls.
  // Witness-route state (see RunWitness):
  int witness_start_var_ = -1;  // Named start variable, else -1.
  std::vector<BoundPredicateKernel> witness_kernels_;  // Indexed like
  std::vector<bool> witness_kernel_bound_;             // WitnessPlan::kernels.
  std::vector<WitnessFork> witness_work_;  // WitnessClosure scratch.
  FlatTable<VisitKey> visited_;            // Exact (pc, node, start) keys.
  MatchRoute route_ = MatchRoute::kDfs;
};

// ---------------------------------------------------------------------------
// Shard orchestration and deterministic merge
// ---------------------------------------------------------------------------

struct SliceOutcome {
  Status status = Status::OK();
  std::vector<PathBinding> results;
  size_t steps = 0;
  MatchRoute route = MatchRoute::kDfs;
  size_t batch_blocks = 0;
  size_t batch_candidates = 0;
  size_t batch_survivors = 0;
  size_t arena_records = 0;
  double ms = 0;  // Slice wall clock, measured inside the worker.
};

/// Steps charged per shared-budget access in parallel shards. The budget can
/// overshoot by at most `kParallelChargeStride * shards` steps (a shard runs
/// one slice at a time, and a finished slice charges its remainder), traded
/// for keeping the interpreter loop off the contended atomic.
constexpr size_t kParallelChargeStride = 256;

/// Seed slices per worker shard in a parallel run: enough that the shards
/// which run while a sibling waits for a CPU take over its slices, few
/// enough that each slice still amortizes its matcher's setup.
constexpr size_t kSlicesPerShard = 4;

void RunSlice(const PropertyGraph& g, const Program& program,
              const VarTable& vars, const MatcherOptions& options,
              const NodeId* seeds, size_t num_seeds,
              const std::vector<NodeId>* targets, SharedBudget* budget,
              size_t charge_stride, const Params* params, bool keep_partial,
              SliceOutcome* out) {
  obs::Stopwatch slice_clock;
  Matcher m(g, program, vars, options, seeds, num_seeds, targets, budget,
            charge_stride, params);
  out->status = m.Run();
  out->steps = m.steps();
  out->route = m.route();
  out->batch_blocks = m.batch_blocks();
  out->batch_candidates = m.batch_candidates();
  out->batch_survivors = m.batch_survivors();
  out->arena_records = m.arena_records();
  if (out->status.ok()) {
    out->results = m.TakeResults();
    out->ms = slice_clock.ElapsedMs();
    return;
  }
  // Partial-delivery mode (streaming cursors): budget exhaustion keeps the
  // bindings found so far instead of discarding them; the caller reports
  // the truncation through a flag rather than an error.
  if (keep_partial && out->status.code() == StatusCode::kResourceExhausted) {
    out->results = m.TakeResults();
  }
  if (budget != nullptr &&
      out->status.message() != SharedBudget::kAbortedBySibling) {
    // A genuine failure: tell sibling shards to stop at their next budget
    // check instead of finishing doomed work.
    budget->Abort();
  }
  out->ms = slice_clock.ElapsedMs();
}

/// The status RunPattern reports for a sharded run: the first genuine error
/// in slice (= seed) order; slices that merely stopped because a sibling
/// exhausted the shared budget are skipped in favor of the real cause.
Status MergeStatuses(const std::vector<SliceOutcome>& outcomes) {
  const Status* first_error = nullptr;
  for (const SliceOutcome& o : outcomes) {
    if (o.status.ok()) continue;
    if (first_error == nullptr) first_error = &o.status;
    if (o.status.message() != SharedBudget::kAbortedBySibling) {
      return o.status;
    }
  }
  return first_error == nullptr ? Status::OK() : *first_error;
}

/// Concatenates slice results in slice order (= seed-index order), removes
/// cross-slice duplicates keeping the first occurrence, stable-sorts by path
/// length, and applies the selector — exactly the sequential pipeline:
/// sequential discovery order equals the slice-order concatenation because
/// slices are contiguous seed blocks (DFS emits per seed, BFS per level with
/// seeds in order within each level, and equal bindings always have equal
/// path length, so the keep-first choice is order-independent too).
///
/// Without `cross_slice_dedup` (one slice, or distinct seeds) no binding
/// and no endpoint partition spans two slices, so the per-partition accept
/// gate already kept exactly what ApplySelector would: it applied the same
/// rule to each partition's bindings in the same (length) order. Then the
/// merge skips both passes.
MatchSet MergeSlices(std::vector<SliceOutcome> outcomes,
                     const Program& program, bool cross_slice_dedup) {
  MatchSet out;
  std::vector<PathBinding>& all = out.bindings;
  if (outcomes.size() == 1) {
    all = std::move(outcomes[0].results);
  } else {
    size_t total = 0;
    for (const SliceOutcome& o : outcomes) total += o.results.size();
    all.reserve(total);
    for (SliceOutcome& o : outcomes) {
      std::move(o.results.begin(), o.results.end(), std::back_inserter(all));
    }
  }

  if (cross_slice_dedup) {
    std::vector<PathBinding> uniq;
    uniq.reserve(all.size());
    FlatTable<KeptBinding> seen;
    for (PathBinding& pb : all) {
      const uint64_t hash = pb.ReducedHash();
      auto [kept, fresh] = seen.FindOrInsert(hash, [&](const KeptBinding& k) {
        return k.hash == hash && uniq[k.index].SameReduced(pb);
      });
      if (!fresh) continue;
      *kept = {hash, static_cast<uint32_t>(uniq.size())};
      uniq.push_back(std::move(pb));
    }
    all = std::move(uniq);
  }

  // DFS results sort by length here; BFS results are already level-ordered.
  // Either way ApplySelector's nondecreasing-length precondition holds.
  auto shorter = [](const PathBinding& a, const PathBinding& b) {
    return a.path.Length() < b.path.Length();
  };
  if (!std::is_sorted(all.begin(), all.end(), shorter)) {
    std::stable_sort(all.begin(), all.end(), shorter);
  }
  if (cross_slice_dedup) ApplySelector(program.selector, &all);
  return out;
}

}  // namespace

const char* MatchRouteName(MatchRoute route) {
  switch (route) {
    case MatchRoute::kDfs: return "dfs";
    case MatchRoute::kBatch: return "batch";
    case MatchRoute::kBfs: return "bfs";
    case MatchRoute::kWitness: return "witness";
  }
  return "?";
}

Result<MatchSet> RunPattern(const PropertyGraph& g, const Program& program,
                            const VarTable& vars,
                            const MatcherOptions& options,
                            const std::vector<NodeId>* seed_filter,
                            const std::vector<NodeId>* target_filter,
                            MatchStats* stats, const Params* params,
                            SharedBudget* shared_budget,
                            bool* budget_exhausted) {
  // Binding sets the graph token and, for exact-key programs, the plan of
  // the witness route they run on.
  const bool bound = program.graph_token != 0 &&
                     (!program.exact_visit_key || program.witness != nullptr);
  if (!bound || program.graph_token != g.identity_token()) {
    return Status::InvalidArgument(
        !bound
            ? "RunPattern: program is not bound to a graph "
              "(call BindProgramToGraph)"
            : "RunPattern: program is bound to a different graph");
  }
  obs::Stopwatch run_clock;
  std::vector<NodeId> seeds = ComputeSeeds(g, program, seed_filter);
  const double seed_ms = run_clock.ElapsedMs();
  if (budget_exhausted != nullptr) *budget_exhausted = false;
  const bool keep_partial = budget_exhausted != nullptr;

  // Fan out only when every worker gets a meaningful block: thread
  // spawn/join costs tens of microseconds, which would dominate small
  // queries (the shard count never changes results, only latency).
  // Partial delivery never fans out: it must cut where the sequential run
  // stops, and sibling shards sharing a budget would each stop wherever
  // their timing left them — a later shard can spend max_matches before
  // the first shard accepts a binding.
  const size_t threads =
      keep_partial ? 1 : std::max<size_t>(1, options.num_threads);
  const size_t per_shard = std::max<size_t>(1, options.min_seeds_per_shard);
  const size_t shards =
      std::max<size_t>(1, std::min(threads, seeds.size() / per_shard));

  SharedBudget local_budget(options.max_steps, options.max_matches);
  std::vector<SliceOutcome> outcomes;  // One per seed slice, in seed order.
  std::vector<double> shard_ms(shards);
  bool seeds_distinct = true;

  if (shards == 1) {
    // Single shard: with no external budget, plain local counters — no
    // atomics, RecordAccept's dedup already global: exactly the historical
    // sequential engine. An external budget (streaming cursor chunks) is
    // charged per step (stride 1), so the cumulative limit fires at the
    // same instruction a single materializing call would have stopped at.
    outcomes.resize(1);
    RunSlice(g, program, vars, options, seeds.data(), seeds.size(),
             target_filter, /*budget=*/shared_budget, /*charge_stride=*/1,
             params, keep_partial, &outcomes[0]);
    shard_ms[0] = outcomes[0].ms;
  } else {
    SharedBudget* budget =
        shared_budget != nullptr ? shared_budget : &local_budget;
    // Equal bindings always share their start node (reduction keeps the
    // first node binding), so cross-slice duplicates exist only if the
    // seed list itself repeats a node — possible only through an external
    // seed_filter; the label index, full scan, and the planner's bound
    // lists are distinct by construction.
    std::unordered_set<NodeId> distinct(seeds.begin(), seeds.end());
    seeds_distinct = distinct.size() == seeds.size();

    // The seed list is cut into contiguous slices, several per worker,
    // which the workers claim in seed order from a shared counter: a
    // worker that starts late or is descheduled leaves its share to the
    // others instead of holding up the join. Merging slice results in
    // slice order preserves seed-index order whoever ran them. The calling
    // thread works as shard 0 instead of idling in join().
    const size_t slices = std::min(seeds.size(), shards * kSlicesPerShard);
    const size_t base = seeds.size() / slices;
    const size_t extra = seeds.size() % slices;
    auto slice_begin = [&](size_t i) { return i * base + std::min(i, extra); };
    outcomes.resize(slices);
    std::atomic<size_t> next_slice{0};
    auto work = [&](size_t shard) {
      obs::Stopwatch shard_clock;
      for (size_t i = next_slice.fetch_add(1, std::memory_order_relaxed);
           i < slices;
           i = next_slice.fetch_add(1, std::memory_order_relaxed)) {
        const size_t begin = slice_begin(i);
        RunSlice(g, program, vars, options, seeds.data() + begin,
                 slice_begin(i + 1) - begin, target_filter, budget,
                 kParallelChargeStride, params, /*keep_partial=*/false,
                 &outcomes[i]);
      }
      shard_ms[shard] = shard_clock.ElapsedMs();
    };
    std::vector<std::thread> workers;
    workers.reserve(shards - 1);
    for (size_t i = 1; i < shards; ++i) workers.emplace_back(work, i);
    work(0);
    for (std::thread& t : workers) t.join();
  }

  if (stats != nullptr) {
    stats->seeds = seeds.size();
    stats->shards = shards;
    stats->steps = 0;
    stats->batch_blocks = 0;
    stats->batch_candidates = 0;
    stats->batch_survivors = 0;
    stats->arena_records = 0;
    stats->seed_ms = seed_ms;
    stats->route = outcomes[0].route;  // Every slice takes the same route.
    for (const SliceOutcome& o : outcomes) {
      stats->steps += o.steps;
      stats->batch_blocks += o.batch_blocks;
      stats->batch_candidates += o.batch_candidates;
      stats->batch_survivors += o.batch_survivors;
      stats->arena_records = std::max(stats->arena_records, o.arena_records);
    }
    stats->shard_ms = std::move(shard_ms);
  }
  Status merged = MergeStatuses(outcomes);
  if (!merged.ok()) {
    if (!keep_partial || merged.code() != StatusCode::kResourceExhausted) {
      if (stats != nullptr) stats->match_ms = run_clock.ElapsedMs();
      return merged;
    }
    *budget_exhausted = true;  // Deliver the partial set below.
  }
  MatchSet result =
      MergeSlices(std::move(outcomes), program,
                  /*cross_slice_dedup=*/!seeds_distinct);
  if (stats != nullptr) stats->match_ms = run_clock.ElapsedMs();
  return result;
}

}  // namespace gpml
