#include "eval/matcher.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "eval/expr_eval.h"
#include "eval/selector.h"
#include "obs/clock.h"

namespace gpml {

namespace {

// ---------------------------------------------------------------------------
// Persistent id set (restrictor memory): linked additions, O(depth) lookup.
// ---------------------------------------------------------------------------

struct IdSetNode {
  uint32_t id;
  std::shared_ptr<const IdSetNode> prev;
};
using IdSet = std::shared_ptr<const IdSetNode>;

bool IdSetContains(const IdSet& set, uint32_t id) {
  for (const IdSetNode* cur = set.get(); cur != nullptr;
       cur = cur->prev.get()) {
    if (cur->id == id) return true;
  }
  return false;
}

IdSet IdSetAdd(const IdSet& set, uint32_t id) {
  auto node = std::make_shared<IdSetNode>();
  node->id = id;
  node->prev = set;
  return node;
}

size_t IdSetHash(const IdSet& set) {
  // Order-insensitive: XOR of element hashes (sets, not sequences).
  size_t h = 0;
  for (const IdSetNode* cur = set.get(); cur != nullptr;
       cur = cur->prev.get()) {
    h ^= (cur->id + 0x9e3779b9u) * 0x85ebca6bu;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Exact visit keys (the witness route of Program::exact_visit_key programs)
// ---------------------------------------------------------------------------

/// An open-addressing set of exact (tagged pc, node, start) visit keys.
/// Compared field by field, never by hash alone, and sized by the keys
/// inserted — the states one shard actually visits. The slot array is
/// reused across the searches one thread runs (a fresh set per RunPattern
/// call would allocate and zero it every time): a slot is occupied only
/// when it carries this set's epoch, so taking the array over clears it.
class VisitKeySet {
 public:
  VisitKeySet() = default;
  ~VisitKeySet() {
    Pool& pool = ThreadPool();
    if (slots_.size() <= kMaxPooledSlots &&
        slots_.size() > pool.slots.size()) {
      pool.slots = std::move(slots_);
    }
  }
  VisitKeySet(const VisitKeySet&) = delete;
  VisitKeySet& operator=(const VisitKeySet&) = delete;

  /// Inserts the key; false when it was already present.
  bool Insert(uint32_t pc, NodeId node, NodeId start) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const uint64_t nodes = (static_cast<uint64_t>(start) << 32) | node;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(pc, nodes) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s = {nodes, pc, epoch_};
        ++size_;
        return true;
      }
      if (s.pc == pc && s.nodes == nodes) return false;
    }
  }

 private:
  struct Slot {
    uint64_t nodes = 0;  // start << 32 | node.
    uint32_t pc = 0;
    uint32_t epoch = 0;  // Occupied iff equal to the owning set's epoch_.
  };
  /// One thread's spare slot array, and the epochs handed out on it.
  struct Pool {
    std::vector<Slot> slots;
    uint32_t epoch = 0;
  };
  /// Arrays above this many slots (1 MiB) are freed, not kept: a search
  /// that large costs far more than the allocation.
  static constexpr size_t kMaxPooledSlots = size_t{1} << 16;

  static Pool& ThreadPool() {
    thread_local Pool pool;
    return pool;
  }

  static size_t Hash(uint32_t pc, uint64_t nodes) {
    uint64_t h = nodes ^ (static_cast<uint64_t>(pc) * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  void Grow() {
    if (slots_.empty()) {
      // First insert: take over the thread's spare array under a new epoch.
      Pool& pool = ThreadPool();
      slots_ = std::move(pool.slots);
      epoch_ = ++pool.epoch;
      if (epoch_ == 0) {  // Wrapped: no stale slot may look occupied.
        std::fill(slots_.begin(), slots_.end(), Slot());
        epoch_ = ++pool.epoch;
      }
      if (!slots_.empty()) return;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot());
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.epoch != epoch_) continue;
      size_t i = Hash(s.pc, s.nodes) & mask;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t epoch_ = 0;
};

// ---------------------------------------------------------------------------
// Search state
// ---------------------------------------------------------------------------

struct ScopeState {
  int scope_id = -1;
  Restrictor restrictor = Restrictor::kNone;
  NodeId start_node = kInvalidId;
  bool start_revisited = false;  // SIMPLE: the one allowed repeat happened.
  IdSet edges;                   // TRAIL memory.
  IdSet nodes;                   // ACYCLIC / SIMPLE memory.
};

struct FrameState {
  uint32_t chain_size_at_begin = 0;
  uint32_t edges_at_begin = 0;
};

/// serials[depth] with inline storage: states are copied on every accepted
/// edge step, and quantifier nesting deeper than the inline capacity is
/// rare, so the common copy is a memcpy instead of a vector allocation.
class Serials {
 public:
  void assign(size_t n, uint64_t v) {
    if (n > kInline) {
      big_.assign(n, v);
    } else {
      big_.clear();
      for (size_t i = 0; i < kInline; ++i) small_[i] = v;
    }
  }
  uint64_t& operator[](size_t i) {
    return big_.empty() ? small_[i] : big_[i];
  }
  uint64_t operator[](size_t i) const {
    return big_.empty() ? small_[i] : big_[i];
  }

 private:
  static constexpr size_t kInline = 4;
  uint64_t small_[kInline] = {0, 0, 0, 0};
  std::vector<uint64_t> big_;
};

struct State {
  int pc = 0;
  NodeId node = kInvalidId;
  NodeId start = kInvalidId;
  uint32_t edges = 0;
  BindingChain chain;
  EnvChain env;
  Serials serials;  // Index = quantifier depth; [0] == 0.
  std::vector<FrameState> frames;
  std::vector<ScopeState> scopes;
  std::vector<int32_t> tags;
};

// ---------------------------------------------------------------------------
// Expression scope over an in-flight state
// ---------------------------------------------------------------------------

class SearchScope : public EvalScope {
 public:
  SearchScope(const State& state, int pending_var, ElementRef pending_el,
              bool has_pending, const Params* params)
      : state_(state),
        pending_var_(pending_var),
        pending_el_(pending_el),
        has_pending_(has_pending),
        params_(params) {}

  std::optional<ElementRef> LookupSingleton(int var) const override {
    if (has_pending_ && var == pending_var_) return pending_el_;
    const EnvLink* e = LookupEnv(state_.env, var);
    if (e == nullptr) return std::nullopt;
    return e->element;
  }

  std::vector<ElementRef> CollectGroup(int var) const override {
    // Innermost frame delimits the group (§4.4 per-iteration predicates and
    // §5.3 prefilters); without a frame, the whole binding so far.
    uint32_t floor = state_.frames.empty()
                         ? 0
                         : state_.frames.back().chain_size_at_begin;
    std::vector<ElementRef> out;
    for (const BindingLink* cur = state_.chain.get();
         cur != nullptr && cur->size > floor; cur = cur->prev.get()) {
      if (cur->binding.var == var) out.push_back(cur->binding.element);
    }
    std::reverse(out.begin(), out.end());
    if (has_pending_ && var == pending_var_) out.push_back(pending_el_);
    return out;
  }

  const Value* LookupParam(const std::string& name) const override {
    return FindParam(params_, name);
  }

 private:
  const State& state_;
  int pending_var_;
  ElementRef pending_el_;
  bool has_pending_;
  const Params* params_;
};

/// The expression scope of the witness route (exact-key programs): the
/// only named variables are the two endpoints, so an inline predicate sees
/// the start node (once its check has bound it) and the element being
/// bound — what SearchScope's environment holds at the same point.
class WitnessScope : public EvalScope {
 public:
  WitnessScope(int start_var, ElementRef start, int pending_var,
               ElementRef pending, const Params* params)
      : start_var_(start_var),
        start_(start),
        pending_var_(pending_var),
        pending_(pending),
        params_(params) {}

  std::optional<ElementRef> LookupSingleton(int var) const override {
    if (var == pending_var_) return pending_;
    if (var == start_var_) return start_;
    return std::nullopt;
  }

  /// Unreached: the analyzer refuses aggregates in inline predicates, and
  /// exact-key programs have no parenthesized WHERE.
  std::vector<ElementRef> CollectGroup(int var) const override {
    std::vector<ElementRef> out;
    if (var == start_var_) out.push_back(start_);
    if (var == pending_var_) out.push_back(pending_);
    return out;
  }

  const Value* LookupParam(const std::string& name) const override {
    return FindParam(params_, name);
  }

 private:
  int start_var_;  // -1 when no named start node is bound yet.
  ElementRef start_;
  int pending_var_;
  ElementRef pending_;
  const Params* params_;
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

  Status Budget() {
    ++steps_;
    if (budget_ == nullptr) {
      if (steps_ > options_.max_steps) {
        return Status::ResourceExhausted(
            "match search exceeded max_steps; tighten the pattern or raise "
            "MatcherOptions::max_steps");
      }
      return Status::OK();
    }
    if (++pending_steps_ >= charge_stride_) {
      size_t n = pending_steps_;
      pending_steps_ = 0;
      return budget_->ChargeSteps(n);
    }
    return Status::OK();
  }

  State MakeStart(NodeId s) const {
    State st;
    st.pc = program_.start;
    st.node = s;
    st.start = s;
    st.serials.assign(static_cast<size_t>(program_.max_depth) + 1, 0);
    return st;
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

  /// Checks a node pattern against `node` with `state`'s environment;
  /// returns false to prune. On success appends the binding (out).
  Result<bool> ApplyNodeCheck(const Instr& in, State* state) {
    const NodePattern& np = *in.node;
    if (!NodeLabelsMatch(in, state->node)) return false;
    ElementRef ref = ElementRef::Node(state->node);

    // Implicit equi-join (§4.2): a previous binding of the same variable in
    // the same iteration instance must be the same node.
    const VarInfo& vi = vars_.info(in.var);
    if (!vi.anonymous) {
      const EnvLink* prev = LookupEnv(state->env, in.var);
      uint64_t serial = state->serials[static_cast<size_t>(vi.depth)];
      if (prev != nullptr && prev->serial == serial) {
        if (!(prev->element == ref)) return false;
      } else {
        state->env = ExtendEnv(state->env, in.var, ref, serial);
      }
    }
    if (np.where != nullptr) {
      SearchScope scope(*state, in.var, ref, /*has_pending=*/true, params_);
      GPML_ASSIGN_OR_RETURN(TriBool ok,
                            EvalPredicate(*np.where, g_, vars_, scope));
      if (ok != TriBool::kTrue) return false;
    }
    state->chain = Extend(state->chain, {in.var, ref});
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

  /// Restrictor admission of the edge step (eid, next), split into a
  /// side-effect-free check on the source state and a mutation applied to
  /// the successor copy — so rejected steps never pay the State copy.
  /// Together they implement exactly the historical per-scope semantics:
  /// TRAIL forbids edge repeats, ACYCLIC node repeats, SIMPLE allows one
  /// repeat of the scope's first node as the final position.
  static bool CheckRestrictors(const State& state, EdgeId eid, NodeId next) {
    for (const ScopeState& sc : state.scopes) {
      switch (sc.restrictor) {
        case Restrictor::kTrail:
          if (IdSetContains(sc.edges, eid)) return false;
          break;
        case Restrictor::kAcyclic:
          if (IdSetContains(sc.nodes, next)) return false;
          break;
        case Restrictor::kSimple:
          if (sc.start_revisited) return false;
          if (IdSetContains(sc.nodes, next) && next != sc.start_node) {
            return false;
          }
          break;
        case Restrictor::kNone:
          break;
      }
    }
    return true;
  }

  /// Applies the step to the successor's scope memories. Pre-condition:
  /// CheckRestrictors passed on the source state (which shares the same
  /// persistent id sets), so a SIMPLE repeat here can only be the start
  /// node closing the path.
  static void ApplyRestrictors(State* state, EdgeId eid, NodeId next) {
    for (ScopeState& sc : state->scopes) {
      switch (sc.restrictor) {
        case Restrictor::kTrail:
          sc.edges = IdSetAdd(sc.edges, eid);
          break;
        case Restrictor::kAcyclic:
          sc.nodes = IdSetAdd(sc.nodes, next);
          break;
        case Restrictor::kSimple:
          if (IdSetContains(sc.nodes, next)) {
            sc.start_revisited = true;
          } else {
            sc.nodes = IdSetAdd(sc.nodes, next);
          }
          break;
        case Restrictor::kNone:
          break;
      }
    }
  }

  /// Attempts the edge step `in` from `state` over adjacency `adj` (drawn
  /// from ExpansionRange); on success returns the successor state. A
  /// prefiltered step's CSR bucket already guarantees the label expression.
  Result<std::optional<State>> TryEdge(const Instr& in, const State& state,
                                       const Adjacency& adj) {
    const EdgePattern& ep = *in.edge;
    if (!Admits(ep.orientation, adj.traversal)) return std::optional<State>();
    if (!in.edge_prefiltered && !EdgeLabelsMatch(in, adj.edge)) {
      return std::optional<State>();
    }
    ElementRef ref = ElementRef::Edge(adj.edge);

    // Every rejection test runs against the source state first; the State
    // copy (persistent-chain refcounts, scope/frame vectors) is paid only
    // by admitted steps.
    const VarInfo& vi = vars_.info(in.var);
    bool extend_env = false;
    uint64_t serial = 0;
    if (!vi.anonymous) {
      const EnvLink* prev = LookupEnv(state.env, in.var);
      serial = state.serials[static_cast<size_t>(vi.depth)];
      if (prev != nullptr && prev->serial == serial) {
        if (!(prev->element == ref)) return std::optional<State>();
      } else {
        extend_env = true;
      }
    }
    if (ep.where != nullptr) {
      SearchScope scope(state, in.var, ref, /*has_pending=*/true, params_);
      GPML_ASSIGN_OR_RETURN(TriBool ok,
                            EvalPredicate(*ep.where, g_, vars_, scope));
      if (ok != TriBool::kTrue) return std::optional<State>();
    }
    if (!CheckRestrictors(state, adj.edge, adj.neighbor)) {
      return std::optional<State>();
    }

    State next = state;
    if (extend_env) next.env = ExtendEnv(next.env, in.var, ref, serial);
    ApplyRestrictors(&next, adj.edge, adj.neighbor);
    next.chain = Extend(next.chain, {in.var, ref}, adj.traversal);
    next.node = adj.neighbor;
    next.edges = state.edges + 1;
    next.pc = in.next;
    return std::optional<State>(std::move(next));
  }

  /// Runs epsilon work from `state` until edge steps (appended to `parked`)
  /// or accepts (recorded). Forks are handled with an explicit worklist —
  /// a member scratch so its capacity persists across the (very frequent)
  /// calls instead of reallocating per admitted edge. Not reentrant; no
  /// callee reaches AdvanceEpsilon again.
  Status AdvanceEpsilon(State state, std::vector<State>* parked) {
    std::vector<State>& work = epsilon_work_;
    work.clear();
    work.push_back(std::move(state));
    while (!work.empty()) {
      State cur = std::move(work.back());
      work.pop_back();
      bool dead = false;
      while (!dead) {
        GPML_RETURN_IF_ERROR(Budget());
        const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
        switch (in.op) {
          case Instr::Op::kAccept: {
            if (TargetAdmits(cur.node)) {
              GPML_RETURN_IF_ERROR(RecordAccept(cur.chain, cur.tags,
                                                cur.start, cur.node,
                                                cur.edges));
            }
            dead = true;
            break;
          }
          case Instr::Op::kEdgeStep:
            parked->push_back(std::move(cur));
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
            State fork = cur;
            fork.pc = in.alt;
            work.push_back(std::move(fork));
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kJump:
            cur.pc = in.next;
            break;
          case Instr::Op::kFrameBegin: {
            FrameState f;
            f.chain_size_at_begin = cur.chain ? cur.chain->size : 0;
            f.edges_at_begin = cur.edges;
            cur.frames.push_back(f);
            if (in.quant_frame) {
              cur.serials[static_cast<size_t>(in.depth + 1)] = ++serial_gen_;
            }
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kWhereCheck: {
            SearchScope scope(cur, -1, ElementRef(), /*has_pending=*/false,
                              params_);
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
            const FrameState& f = cur.frames.back();
            if (in.guard_progress && cur.edges == f.edges_at_begin) {
              dead = true;  // Zero-width loop iteration: cut.
              break;
            }
            cur.frames.pop_back();
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kScopeBegin: {
            ScopeState sc;
            sc.scope_id = in.scope_id;
            sc.restrictor = in.restrictor;
            sc.start_node = cur.node;
            if (sc.restrictor == Restrictor::kAcyclic ||
                sc.restrictor == Restrictor::kSimple) {
              sc.nodes = IdSetAdd(nullptr, cur.node);
            }
            cur.scopes.push_back(std::move(sc));
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kScopeEnd: {
            cur.scopes.pop_back();
            cur.pc = in.next;
            break;
          }
          case Instr::Op::kTag: {
            cur.tags.push_back(in.tag);
            cur.pc = in.next;
            break;
          }
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

  /// Records one accepted binding of the path from `start` to `end` with
  /// `length` edges (shared by the interpreter's kAccept and the batch
  /// drain, which accepts in the same order — so the shard-local keep-first
  /// dedup is route-independent). The selector's keep rule gates it per
  /// endpoint partition before the binding is reduced: accepts arrive in
  /// nondecreasing length on the selector route, so a binding the rule
  /// refuses here is one ApplySelector would drop. max_matches counts only
  /// the bindings kept.
  Status RecordAccept(const BindingChain& chain,
                      const std::vector<int32_t>& tags, NodeId start,
                      NodeId end, uint32_t length) {
    SelectorPartition* part = nullptr;
    if (!program_.selector.IsNone()) {
      part = SelectorGate(start, end, length);
      if (part == nullptr) return Status::OK();
    }
    return KeepBinding(ReduceChain(chain, vars_, tags), part, length);
  }

  /// The selector's keep rule for an accept of `length` from `start` to
  /// `end`: its endpoint partition when the rule still admits it, else
  /// nullptr (the accept adds no row, so its binding is never built).
  SelectorPartition* SelectorGate(NodeId start, NodeId end, uint32_t length) {
    SelectorPartition* part =
        &partitions_[(static_cast<uint64_t>(start) << 32) | end];
    return SelectorKeeps(program_.selector, *part, length) ? part : nullptr;
  }

  /// Keeps `pb` unless this shard already kept an equal binding; `part`
  /// (nullptr without a selector) records it. Charges max_matches.
  Status KeepBinding(PathBinding pb, SelectorPartition* part,
                     uint32_t length) {
    size_t h = pb.ReducedHash();
    auto [it, inserted] = seen_.emplace(h, std::vector<size_t>());
    for (size_t idx : it->second) {
      if (results_[idx].SameReduced(pb)) return Status::OK();  // Duplicate.
    }
    it->second.push_back(results_.size());
    Status charge = CommitBinding(std::move(pb), part, length);
    if (!charge.ok()) it->second.pop_back();
    return charge;
  }

  /// Keeps `pb`, which repeats no binding this shard kept, and charges it
  /// against max_matches.
  Status CommitBinding(PathBinding pb, SelectorPartition* part,
                       uint32_t length) {
    if (part != nullptr) SelectorRecordKept(program_.selector, part, length);
    results_.push_back(std::move(pb));
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
  /// fallback when a frontier level overflows the in-memory cap.
  Status RunDfsSeed(NodeId seed) {
    std::vector<State> stack;
    GPML_RETURN_IF_ERROR(AdvanceEpsilon(MakeStart(seed), &stack));
    while (!stack.empty()) {
      State cur = std::move(stack.back());
      stack.pop_back();
      const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
      for (const Adjacency& adj : ExpansionRange(in, cur.node)) {
        GPML_RETURN_IF_ERROR(Budget());
        GPML_ASSIGN_OR_RETURN(std::optional<State> next,
                              TryEdge(in, cur, adj));
        if (next.has_value()) {
          GPML_RETURN_IF_ERROR(AdvanceEpsilon(std::move(*next), &stack));
        }
      }
    }
    return Status::OK();
  }

  // --- Batch route (docs/vectorized.md) -----------------------------------
  //
  // Linear fixed-length patterns expand level by level: levels_[l] holds
  // every partial binding of length l as a 16-byte FrontierEntry instead of
  // a State (no environment links, no chain refcounts — the binding is the
  // parent-pointer path itself). Each level is expanded in blocks of
  // kBatchBlockTarget entries: the block's adjacency candidates are gathered
  // into dense arrays, the filter cascade runs as selection-vector passes
  // over those arrays, and only final-hop survivors ever materialize a
  // BindingChain. Rows come out byte-identical to the scalar DFS because the
  // drain replays its accept order: the DFS pops parked states in reverse of
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
  /// frontier block, plus the two selection vectors the filter passes
  /// ping-pong between.
  struct CandidateBlock {
    std::vector<uint32_t> parent;  // Absolute index into the source level.
    std::vector<EdgeId> edge;
    std::vector<NodeId> neighbor;
    std::vector<Traversal> traversal;
    std::vector<uint32_t> sel;
    std::vector<uint32_t> sel2;

    void Clear() {
      parent.clear();
      edge.clear();
      neighbor.clear();
      traversal.clear();
    }
    size_t size() const { return parent.size(); }
  };

  /// Per-seed frontier size cap: a level growing past this falls the seed
  /// back to the scalar DFS (bounded memory; the DFS recomputes from
  /// scratch, which is safe because the batch route emits no accepts until
  /// the final drain).
  static constexpr size_t kMaxLevelEntries = 1u << 22;

  /// Charges `n` batch-gathered candidates against the step budget in one
  /// call. Equivalent to n Budget() calls (same stride flushing), so shared
  /// budgets see the same charge cadence; only the per-route step totals
  /// differ (the batch path charges per adjacency candidate, the interpreter
  /// additionally per epsilon instruction).
  Status ChargeBatchSteps(size_t n) {
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

  /// Binds the program's compiled predicate kernels to this run's $params.
  /// False routes the run to the scalar interpreter: the program is not
  /// batch-eligible, or a kernel references an unbound parameter (the scalar
  /// evaluator then reproduces the unbound-parameter error exactly).
  bool TryBindBatch() {
    const BatchPlan* bp = program_.batch.get();
    if (bp == nullptr || !bp->eligible) return false;
    node_kernels_.assign(bp->nodes.size(), BoundPredicateKernel());
    edge_kernels_.assign(bp->edges.size(), BoundPredicateKernel());
    for (size_t i = 0; i < bp->nodes.size(); ++i) {
      if (bp->nodes[i].has_kernel &&
          !BindPredicateKernel(bp->nodes[i].kernel, params_,
                               &node_kernels_[i])) {
        return false;
      }
    }
    for (size_t i = 0; i < bp->edges.size(); ++i) {
      if (bp->edges[i].has_kernel &&
          !BindPredicateKernel(bp->edges[i].kernel, params_,
                               &edge_kernels_[i])) {
        return false;
      }
    }
    return true;
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

    const std::vector<FrontierEntry>& frontier = levels_[h];
    std::vector<FrontierEntry>& next = levels_[h + 1];
    CandidateBlock& blk = block_;

    for (size_t base = 0; base < frontier.size();
         base += kBatchBlockTarget) {
      const size_t limit =
          std::min(base + kBatchBlockTarget, frontier.size());
      blk.Clear();

      // Gather: every adjacency candidate of the block's frontier entries,
      // straight out of the contiguous CSR label bucket (or the full
      // adjacency list when no partition applies).
      for (size_t f = base; f < limit; ++f) {
        AdjSpan range = ExpansionRange(edge_in, frontier[f].node);
        for (size_t k = 0; k < range.count; ++k) {
          const Adjacency& adj = range[k];
          blk.parent.push_back(static_cast<uint32_t>(f));
          blk.edge.push_back(adj.edge);
          blk.neighbor.push_back(adj.neighbor);
          blk.traversal.push_back(adj.traversal);
        }
      }
      const size_t n = blk.size();
      GPML_RETURN_IF_ERROR(ChargeBatchSteps(n));
      ++batch_blocks_;
      batch_candidates_ += n;
      if (n == 0) continue;

      // Filter cascade over selection vectors: each pass scans the current
      // survivor list and compacts it. Pass order is free to differ from
      // the interpreter's check order because every pass is a pure
      // conjunct — the surviving set is the same either way.
      blk.sel.resize(n);
      for (size_t i = 0; i < n; ++i) {
        blk.sel[i] = static_cast<uint32_t>(i);
      }
      auto filter = [&blk](auto&& keep) {
        blk.sel2.clear();
        for (uint32_t i : blk.sel) {
          if (keep(i)) blk.sel2.push_back(i);
        }
        blk.sel.swap(blk.sel2);
      };

      if (orientation != EdgeOrientation::kAny) {
        filter([&](uint32_t i) {
          return Admits(orientation, blk.traversal[i]);
        });
      }
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
      if (es.eq_pos >= 0) {
        // Edge equi-join: hop q's edge lives on the level-(q+1) entry.
        const size_t target = static_cast<size_t>(es.eq_pos) + 1;
        filter([&](uint32_t i) {
          return Ancestor(h, blk.parent[i], target).edge == blk.edge[i];
        });
      }
      if (ns.eq_pos >= 0) {
        const size_t target = static_cast<size_t>(ns.eq_pos);
        filter([&](uint32_t i) {
          return Ancestor(h, blk.parent[i], target).node == blk.neighbor[i];
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

  /// Materializes the binding chain of a final-level entry, exactly as the
  /// interpreter would have built it: node, then (edge, node) per hop, with
  /// the edge link carrying the traversal direction.
  BindingChain BuildChain(size_t level, uint32_t idx) {
    const BatchPlan& bp = *program_.batch;
    // Collect the entry's ancestor path root-first.
    chain_scratch_.resize(level + 1);
    {
      const FrontierEntry* e = &levels_[level][idx];
      size_t l = level;
      while (true) {
        chain_scratch_[l] = e;
        if (l == 0) break;
        e = &levels_[l - 1][e->parent];
        --l;
      }
    }
    BindingChain chain = Extend(
        nullptr, {bp.nodes[0].var, ElementRef::Node(chain_scratch_[0]->node)});
    for (size_t l = 1; l <= level; ++l) {
      const FrontierEntry& e = *chain_scratch_[l];
      chain = Extend(chain, {bp.edges[l - 1].var, ElementRef::Edge(e.edge)},
                     e.traversal);
      chain = Extend(chain, {bp.nodes[l].var, ElementRef::Node(e.node)});
    }
    return chain;
  }

  Status RunBatch() {
    const BatchPlan& bp = *program_.batch;
    const size_t hops = bp.edges.size();
    levels_.resize(hops + 1);
    const std::vector<int32_t> no_tags;  // Eligible programs emit no kTag.

    for (size_t s = 0; s < num_seeds_; ++s) {
      const NodeId seed = seeds_[s];
      // Level 0: the seed must pass the first node check (seeding may have
      // come from a label-index superset, exactly like the scalar route).
      GPML_RETURN_IF_ERROR(ChargeBatchSteps(1));
      const Instr& first = program_.code[static_cast<size_t>(bp.nodes[0].pc)];
      if (!NodeLabelsMatch(first, seed)) continue;
      if (!node_kernels_[0].terms.empty() &&
          !EvalKernel(node_kernels_[0], g_, /*is_node=*/true, seed)) {
        continue;
      }
      if (hops == 0) {
        if (TargetAdmits(seed)) {
          GPML_RETURN_IF_ERROR(RecordAccept(
              Extend(nullptr, {bp.nodes[0].var, ElementRef::Node(seed)}),
              no_tags, seed, seed, 0));
        }
        continue;
      }

      for (std::vector<FrontierEntry>& level : levels_) level.clear();
      levels_[0].push_back({seed, kInvalidId, 0, Traversal::kForward});
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
          GPML_RETURN_IF_ERROR(RecordAccept(
              BuildChain(hops, static_cast<uint32_t>(i)), no_tags, seed,
              finals[i].node, static_cast<uint32_t>(hops)));
        }
      }
    }
    return Status::OK();
  }

  // --- BFS route (selector present) ---------------------------------------

  /// Pruning key: product state plus everything that influences future
  /// admissibility or result identity (named environment with iteration
  /// currency, open-frame contents, restrictor memories, provenance tags).
  /// The key hashes the start node, so visit budgets are per start node and
  /// seed-partitioned shards prune exactly like the sequential frontier.
  /// Serves only programs outside Program::exact_visit_key (those run on
  /// the witness route).
  size_t StateKey(const State& state) {
    size_t h = 0x9ddfea08eb382d69ULL;
    h = HashCombine(h, static_cast<size_t>(state.pc));
    h = HashCombine(h, state.node);
    h = HashCombine(h, state.start);
    // Latest binding per named var, with "bound in the current iteration
    // instance at its depth" as part of the key instead of the raw serial.
    if (var_seen_.size() != static_cast<size_t>(vars_.size())) {
      var_seen_.assign(static_cast<size_t>(vars_.size()), 0);
    }
    var_seen_list_.clear();
    for (const EnvLink* e = state.env.get(); e != nullptr;
         e = e->prev.get()) {
      uint8_t& seen = var_seen_[static_cast<size_t>(e->var)];
      if (seen != 0) continue;
      seen = 1;
      var_seen_list_.push_back(e->var);
      const VarInfo& vi = vars_.info(e->var);
      bool current =
          e->serial == state.serials[static_cast<size_t>(vi.depth)];
      h = HashCombine(h, static_cast<size_t>(e->var) * 2654435761u);
      h = HashCombine(h, ElementRefHash()(e->element));
      h = HashCombine(h, current ? 0x51u : 0x7fu);
    }
    for (int var : var_seen_list_) var_seen_[static_cast<size_t>(var)] = 0;
    if (!state.frames.empty()) {
      uint32_t floor = state.frames.front().chain_size_at_begin;
      for (const BindingLink* b = state.chain.get();
           b != nullptr && b->size > floor; b = b->prev.get()) {
        h = HashCombine(h, static_cast<size_t>(b->binding.var));
        h = HashCombine(h, ElementRefHash()(b->binding.element));
      }
      h = HashCombine(h, state.frames.size());
    }
    for (const ScopeState& sc : state.scopes) {
      h = HashCombine(h, static_cast<size_t>(sc.restrictor));
      h = HashCombine(h, sc.start_node);
      h = HashCombine(h, sc.start_revisited ? 1u : 2u);
      h = HashCombine(h, IdSetHash(sc.edges));
      h = HashCombine(h, IdSetHash(sc.nodes));
    }
    for (int32_t t : state.tags) h = HashCombine(h, 0xabcd + static_cast<size_t>(t));
    return h;
  }

  /// May `state` (parked at an edge step, at BFS level `level`) expand?
  bool AdmitExpansion(const State& state, uint32_t level) {
    size_t key = StateKey(state);
    Visits& v = visits_[key];
    switch (program_.selector.kind) {
      case Selector::Kind::kAny:
      case Selector::Kind::kAnyShortest:
        if (v.count >= 1) return false;
        v.count = 1;
        return true;
      case Selector::Kind::kAllShortest:
        if (v.count == 0) {
          v.count = 1;
          v.min_level = level;
          return true;
        }
        return level <= v.min_level;
      case Selector::Kind::kAnyK:
      case Selector::Kind::kShortestK: {
        size_t k = static_cast<size_t>(program_.selector.k);
        if (v.count >= k) return false;
        ++v.count;
        return true;
      }
      case Selector::Kind::kShortestKGroup: {
        size_t k = static_cast<size_t>(program_.selector.k);
        for (uint32_t l : v.levels) {
          if (l == level) return true;
        }
        if (v.levels.size() < k) {
          v.levels.push_back(level);
          return true;
        }
        return false;
      }
      case Selector::Kind::kNone:
        return true;
    }
    return true;
  }

  Status RunBfs() {
    std::vector<State> frontier;
    for (size_t i = 0; i < num_seeds_; ++i) {
      GPML_RETURN_IF_ERROR(AdvanceEpsilon(MakeStart(seeds_[i]), &frontier));
    }
    while (!frontier.empty()) {
      std::vector<State> next_frontier;
      for (const State& cur : frontier) {
        if (!AdmitExpansion(cur, cur.edges)) continue;
        const Instr& in = program_.code[static_cast<size_t>(cur.pc)];
        for (const Adjacency& adj : ExpansionRange(in, cur.node)) {
          GPML_RETURN_IF_ERROR(Budget());
          GPML_ASSIGN_OR_RETURN(std::optional<State> nxt,
                                TryEdge(in, cur, adj));
          if (nxt.has_value()) {
            GPML_RETURN_IF_ERROR(
                AdvanceEpsilon(std::move(*nxt), &next_frontier));
          }
        }
      }
      frontier = std::move(next_frontier);
    }
    // Results were recorded in nondecreasing path length because accepts at
    // level L are recorded while processing level L; keep stable order.
    return Status::OK();
  }

  // --- Witness route (Program::exact_visit_key) ---------------------------
  //
  // An exact-key ANY / ANY SHORTEST program searches the (pc, node, start)
  // product graph: nothing else in a state can change what the search does
  // next (docs/planner.md, "Selector route"). So this route carries no
  // State. A frontier entry is a 16-byte (pc, node, start, link) record;
  // the bindings of its path live in a per-shard arena of index-linked
  // WitnessLinks and are read out only for an accept the selector keeps.
  // The epsilon closure runs the same instructions in the same order as
  // AdvanceEpsilon, charging Budget() the same way, so step counts,
  // max_steps cut-offs, kTruncate prefixes, accept order and witnesses
  // are those the State search gave these programs (bench_csr and
  // selector_test pin the steps). Rows are the general selector search's:
  // the same program with exact_visit_key cleared is the differential
  // oracle (tests/witness_test.cc).
  //
  // What the closure leaves out is what exact-key programs cannot use: an
  // environment (the named variables are the start node, bound once, and
  // the end node, bound just before kAccept), serials (no named variable
  // inside a quantifier), restrictor scopes and tags (none), and the frame
  // stack. A frame opened in an earlier closure has seen an edge since, so
  // only the frames opened in this closure can fail guard_progress — a
  // counter of those is the whole frame state.

  static constexpr uint32_t kNoLink = 0xffffffffu;

  /// One binding on a witness path: `prev` links toward the start node.
  struct WitnessLink {
    ElementaryBinding binding;
    Traversal traversal = Traversal::kForward;
    uint32_t prev = kNoLink;
  };

  /// A frontier entry: parked at the edge step `pc` on `node`.
  struct WitnessEntry {
    uint32_t pc;
    NodeId node;
    NodeId start;
    uint32_t link;  // Last binding of the path in witness_links_.
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

  Result<uint32_t> AddWitnessLink(uint32_t prev, int var, ElementRef element,
                                  Traversal traversal) {
    if (witness_links_.size() >= kNoLink) {
      return Status::ResourceExhausted(
          "witness search exceeded its binding arena; tighten the pattern");
    }
    witness_links_.push_back({{var, element}, traversal, prev});
    return static_cast<uint32_t>(witness_links_.size() - 1);
  }

  /// Evaluates the inline WHERE of the check at `pc` on the element being
  /// bound: through its bound kernel when it has one, else the scalar
  /// evaluator over a WitnessScope.
  Result<bool> WitnessWhere(int pc, const Expr& where, int var,
                            ElementRef pending, NodeId start) {
    const int k = witness_->kernel_of[static_cast<size_t>(pc)];
    if (k >= 0 && witness_kernel_bound_[static_cast<size_t>(k)]) {
      return EvalKernel(witness_kernels_[static_cast<size_t>(k)], g_,
                        pending.is_node(), pending.id);
    }
    const bool start_bound = pc != witness_->start_pc;
    WitnessScope scope(start_bound ? witness_start_var_ : -1,
                       ElementRef::Node(start), var, pending, params_);
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
              GPML_RETURN_IF_ERROR(
                  RecordWitness(start, node, level, cur.link));
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
            GPML_ASSIGN_OR_RETURN(
                cur.link, AddWitnessLink(cur.link, in.var,
                                         ElementRef::Node(node),
                                         Traversal::kForward));
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

  /// kAccept on the witness route: the selector gate first, then the
  /// path's bindings, read front-to-back off its parent links — the links a
  /// BindingChain of the general search would hold — and reduced.
  Status RecordWitness(NodeId start, NodeId end, uint32_t length,
                       uint32_t link) {
    SelectorPartition* part = SelectorGate(start, end, length);
    if (part == nullptr) return Status::OK();
    size_t n = 0;
    for (uint32_t i = link; i != kNoLink; i = witness_links_[i].prev) ++n;
    witness_path_.resize(n);
    for (uint32_t i = link; i != kNoLink; i = witness_links_[i].prev) {
      BindingLink& out = witness_path_[--n];
      out.binding = witness_links_[i].binding;
      out.traversal = witness_links_[i].traversal;
    }
    // No dedupe lookup: ANY and ANY SHORTEST keep one binding per endpoint
    // partition, and equal bindings share their endpoints, so a binding
    // the gate admits never repeats a kept one.
    return CommitBinding(ReduceBindings(witness_path_, vars_, {}), part,
                         length);
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
        if (!visited_.Insert(VisitPc(static_cast<int>(cur.pc), true),
                             cur.node, cur.start)) {
          continue;
        }
        const Instr& in = program_.code[cur.pc];
        const EdgePattern& ep = *in.edge;
        for (const Adjacency& adj : ExpansionRange(in, cur.node)) {
          GPML_RETURN_IF_ERROR(Budget());
          if (!Admits(ep.orientation, adj.traversal)) continue;
          if (!in.edge_prefiltered && !EdgeLabelsMatch(in, adj.edge)) {
            continue;
          }
          const ElementRef ref = ElementRef::Edge(adj.edge);
          if (ep.where != nullptr) {
            GPML_ASSIGN_OR_RETURN(
                bool ok, WitnessWhere(static_cast<int>(cur.pc), *ep.where,
                                      in.var, ref, cur.start));
            if (!ok) continue;
          }
          // A successor whose position was already reached adds nothing.
          if (!visited_.Insert(VisitPc(in.next, false), adj.neighbor,
                               cur.start)) {
            continue;
          }
          GPML_ASSIGN_OR_RETURN(
              uint32_t link,
              AddWitnessLink(cur.link, in.var, ref, adj.traversal));
          GPML_RETURN_IF_ERROR(WitnessClosure(in.next, adj.neighbor,
                                              cur.start, link, level + 1,
                                              &next));
        }
      }
      frontier.swap(next);
    }
    return Status::OK();
  }

  struct Visits {
    size_t count = 0;
    uint32_t min_level = 0;
    std::vector<uint32_t> levels;
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
  uint64_t serial_gen_ = 0;
  std::vector<State> epsilon_work_;  // AdvanceEpsilon scratch.
  // Batch-route state (sized once, reused across seeds and levels):
  std::vector<BoundPredicateKernel> node_kernels_;  // Indexed like
  std::vector<BoundPredicateKernel> edge_kernels_;  // BatchPlan::nodes/edges.
  std::vector<std::vector<FrontierEntry>> levels_;
  CandidateBlock block_;
  std::vector<const FrontierEntry*> chain_scratch_;  // BuildChain ancestors.
  std::vector<size_t> drain_offsets_;
  size_t batch_blocks_ = 0;
  size_t batch_candidates_ = 0;
  size_t batch_survivors_ = 0;
  std::vector<PathBinding> results_;
  std::unordered_map<size_t, std::vector<size_t>> seen_;
  // Selector route: kept bindings per (start << 32 | end) partition.
  std::unordered_map<uint64_t, SelectorPartition> partitions_;
  std::unordered_map<size_t, Visits> visits_;  // Hashed StateKey visits.
  // Witness-route state (see RunWitness):
  int witness_start_var_ = -1;  // Named start variable, else -1.
  std::vector<BoundPredicateKernel> witness_kernels_;  // Indexed like
  std::vector<bool> witness_kernel_bound_;             // WitnessPlan::kernels.
  std::vector<WitnessLink> witness_links_;
  std::vector<WitnessFork> witness_work_;  // WitnessClosure scratch.
  std::vector<BindingLink> witness_path_;  // RecordWitness scratch.
  VisitKeySet visited_;                    // Exact (pc, node, start) keys.
  MatchRoute route_ = MatchRoute::kDfs;
  std::vector<uint8_t> var_seen_;   // StateKey scratch, indexed by var id;
  std::vector<int> var_seen_list_;  // all zero between calls.
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
MatchSet MergeSlices(std::vector<SliceOutcome> outcomes,
                     const Program& program, bool cross_slice_dedup) {
  std::vector<PathBinding> all;
  size_t total = 0;
  for (const SliceOutcome& o : outcomes) total += o.results.size();
  all.reserve(total);
  for (SliceOutcome& o : outcomes) {
    std::move(o.results.begin(), o.results.end(), std::back_inserter(all));
  }

  if (cross_slice_dedup) {
    std::vector<PathBinding> uniq;
    uniq.reserve(all.size());
    std::unordered_map<size_t, std::vector<size_t>> seen;
    for (PathBinding& pb : all) {
      size_t h = pb.ReducedHash();
      auto [it, inserted] = seen.emplace(h, std::vector<size_t>());
      bool duplicate = false;
      for (size_t idx : it->second) {
        if (uniq[idx].SameReduced(pb)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      it->second.push_back(uniq.size());
      uniq.push_back(std::move(pb));
    }
    all = std::move(uniq);
  }

  // DFS results sort by length here (historically SortResults); BFS results
  // are already level-ordered, so the stable sort is the identity — either
  // way ApplySelector's nondecreasing-length precondition holds.
  std::stable_sort(all.begin(), all.end(),
                   [](const PathBinding& a, const PathBinding& b) {
                     return a.path.Length() < b.path.Length();
                   });

  MatchSet out;
  out.bindings = std::move(all);
  ApplySelector(program.selector, &out.bindings);
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
    stats->seed_ms = seed_ms;
    stats->route = outcomes[0].route;  // Every slice takes the same route.
    for (const SliceOutcome& o : outcomes) {
      stats->steps += o.steps;
      stats->batch_blocks += o.batch_blocks;
      stats->batch_candidates += o.batch_candidates;
      stats->batch_survivors += o.batch_survivors;
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
