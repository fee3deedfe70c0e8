#ifndef GPML_GRAPH_PROPERTY_GRAPH_H_
#define GPML_GRAPH_PROPERTY_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "graph/adjacency.h"
#include "graph/csr_index.h"
#include "graph/element_store.h"
#include "graph/symbol_table.h"

namespace gpml {

namespace planner {
struct GraphStats;  // planner/stats.h; cached on the graph, see below.
struct PlanCache;   // planner/plan_cache.h; cached on the graph, see below.
}  // namespace planner

namespace obs {
class MetricsRegistry;  // obs/metrics.h; per-graph registry, see below.
}  // namespace obs

/// A reference to a graph element (node or edge) — the codomain of variable
/// bindings in the execution model of §6.
struct ElementRef {
  enum class Kind : uint8_t { kNode, kEdge };
  Kind kind = Kind::kNode;
  uint32_t id = kInvalidId;

  static ElementRef Node(NodeId n) { return {Kind::kNode, n}; }
  static ElementRef Edge(EdgeId e) { return {Kind::kEdge, e}; }
  bool is_node() const { return kind == Kind::kNode; }
  bool is_edge() const { return kind == Kind::kEdge; }

  friend bool operator==(const ElementRef& a, const ElementRef& b) {
    return a.kind == b.kind && a.id == b.id;
  }
  friend bool operator<(const ElementRef& a, const ElementRef& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.id < b.id;
  }
};

struct ElementRefHash {
  size_t operator()(const ElementRef& r) const {
    // splitmix64 finalizer over (kind, id). Computed in uint64_t so the mix
    // is well-defined (and doesn't collapse) when size_t is 32 bits.
    uint64_t x = (static_cast<uint64_t>(r.kind) << 32) | r.id;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// An edge's endpoints and direction. For directed edges: source/target.
/// For undirected: the two endpoints in insertion order (self-loops allowed
/// in both cases, Def. 2.1). Names, labels and properties live in the
/// graph's element stores (name(), label_syms, property_keys, ColumnValue;
/// see docs/storage.md).
struct EdgeData {
  NodeId u = kInvalidId;
  NodeId v = kInvalidId;
  bool directed = true;
};

/// A property graph per Definition 2.1: finite node and edge sets, a total
/// endpoint function mapping each edge to an ordered pair (directed) or an
/// unordered pair (undirected) of nodes, a total label function and a partial
/// property function on elements. It is a multigraph and a pseudograph:
/// parallel edges and self-loops are allowed, on both directed and
/// undirected edges.
///
/// The class is an immutable-after-construction store: build through
/// GraphBuilder (or the pgq::GraphView materializer), then query. All engine
/// hot paths work on dense integer ids; external names are kept for result
/// rendering and tests.
class PropertyGraph {
 public:
  PropertyGraph();

  // Movable but not copyable: graphs can be large, copies should be explicit.
  PropertyGraph(PropertyGraph&&) = default;
  PropertyGraph& operator=(PropertyGraph&&) = default;
  PropertyGraph(const PropertyGraph&) = delete;
  PropertyGraph& operator=(const PropertyGraph&) = delete;

  size_t num_nodes() const { return nodes_store_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const EdgeData& edge(EdgeId id) const { return edges_[id]; }

  /// The element's external name ("a1", "t5"); empty when it has none.
  std::string_view name(const ElementRef& ref) const {
    return store(ref).Name(ref.id);
  }
  std::string_view node_name(NodeId n) const { return nodes_store_.Name(n); }
  std::string_view edge_name(EdgeId e) const { return edges_store_.Name(e); }

  /// All admissible single-step traversals leaving `n` (directed out-edges
  /// forward, directed in-edges backward, undirected incident edges), in
  /// edge order: one run of the graph's adjacency array. The matcher's
  /// uniform expansion-range type, like CsrIndex::Range.
  AdjSpan adjacencies(NodeId n) const {
    return AdjSpan(adjacency_.data() + adjacency_offsets_[n],
                   adjacency_offsets_[n + 1] - adjacency_offsets_[n]);
  }

  // --- interned element store (the only copy of labels and properties) ---

  /// Label and property-key strings interned to dense symbol ids. Label
  /// symbols are an id space of their own so label sets pack into 64-bit
  /// masks on graphs with <= 64 distinct labels.
  const SymbolTable& label_symbols() const { return label_symbols_; }
  const SymbolTable& property_symbols() const { return property_symbols_; }

  /// True when every label set fits the uint64 bitmask representation.
  bool label_bits_usable() const { return label_symbols_.size() <= 64; }

  /// Bitmask of `n`'s labels (bit i = label symbol i); meaningful only when
  /// label_bits_usable().
  uint64_t node_label_bits(NodeId n) const { return nodes_store_.bits[n]; }
  uint64_t edge_label_bits(EdgeId e) const { return edges_store_.bits[e]; }

  /// `n`'s labels as sorted symbol ids (valid at any universe size).
  SymSpan node_label_syms(NodeId n) const { return nodes_store_.Labels(n); }
  SymSpan edge_label_syms(EdgeId e) const { return edges_store_.Labels(e); }
  SymSpan label_syms(const ElementRef& ref) const {
    return store(ref).Labels(ref.id);
  }

  /// True when the element carries the label named `label`.
  bool HasLabel(const ElementRef& ref, std::string_view label) const;

  /// The element's label names in string order (the export order).
  std::vector<std::string> LabelNames(const ElementRef& ref) const;

  /// The property keys present on the element (an explicitly NULL value
  /// counts as present), sorted by key string: the export order.
  SymSpan property_keys(const ElementRef& ref) const {
    return store(ref).Keys(ref.id);
  }

  /// Label-partitioned adjacency (see graph/csr_index.h): expansion with a
  /// known edge label is a contiguous range scan.
  const CsrIndex& csr() const { return csr_; }

  /// Columnar property access: the value of property-key symbol `key` on an
  /// element, NULL when absent. An array index per access; the columns are
  /// the only copy of property values, and a read copies nothing.
  ValueView NodeColumnValue(Symbol key, NodeId n) const {
    return nodes_store_.ColumnValue(key, n);
  }
  ValueView EdgeColumnValue(Symbol key, EdgeId e) const {
    return edges_store_.ColumnValue(key, e);
  }
  ValueView ColumnValue(const ElementRef& ref, Symbol key) const {
    return store(ref).ColumnValue(key, ref.id);
  }

  /// Property lookup by name through the symbol table and columns: one hash
  /// of the key string (shared across all elements) plus an array index.
  /// Missing property -> NULL (the standard's semantics for x.prop).
  ValueView GetPropertyFast(const ElementRef& ref, std::string_view key) const {
    Symbol s = property_symbols_.Find(key);
    if (s == kInvalidSymbol) return {};
    return ColumnValue(ref, s);
  }

  /// Starts the cache misses an export of the element takes, one dependent
  /// level per `stage` (0: the name, label and key offsets, 1: the name
  /// bytes and the runs, 2: the column slots of its keys, 3: their string
  /// bytes), so a caller exporting several far-apart elements can overlap
  /// them.
  void PrefetchElement(const ElementRef& ref, int stage) const;

  /// Nodes carrying `label` whose `key` property equals `value` (ascending
  /// node id) — the equality seed index the planner's index-backed seeding
  /// consumes. Unknown labels/keys/values yield the empty span.
  IdSpan IndexedNodes(std::string_view label, std::string_view key,
                      ValueView value) const {
    Symbol ls = label_symbols_.Find(label);
    Symbol ks = property_symbols_.Find(key);
    if (ls == kInvalidSymbol || ks == kInvalidSymbol) return {};
    return seed_index_.Lookup(ls, ks, value, nodes_store_);
  }

  /// Lookup by external name; kInvalidId when absent (always for "").
  NodeId FindNode(std::string_view name) const {
    return nodes_store_.Find(name);
  }
  EdgeId FindEdge(std::string_view name) const {
    return edges_store_.Find(name);
  }

  /// Nodes carrying `label`; empty for unknown labels. The label index is
  /// keyed by label symbol, so this resolves the name once.
  IdSpan NodesWithLabel(std::string_view label) const {
    return nodes_store_.WithLabel(label_symbols_.Find(label));
  }
  IdSpan EdgesWithLabel(std::string_view label) const {
    return edges_store_.WithLabel(label_symbols_.Find(label));
  }

  /// The endpoint reached when crossing `e` from `from` with `t`;
  /// kInvalidId if the traversal is not admissible from that endpoint.
  NodeId Cross(EdgeId e, NodeId from, Traversal t) const;

  /// Human-readable one-line description ("6 nodes, 8 edges").
  std::string Summary() const;

  /// Process-unique identity of this graph's contents, assigned at
  /// construction and carried along by moves (identity follows the data).
  /// Derived-data caches (plan cache) key on it so an entry can never be
  /// served for a different graph, even across moved-into slots.
  uint64_t identity_token() const { return identity_token_; }

  /// Slot for the planner's graph statistics, computed lazily on first use
  /// (see planner::GetStats). The graph is immutable, so a cached derivation
  /// never goes stale. Accessors use atomic shared_ptr operations: concurrent
  /// read-only matching over one shared graph stays race-free even when two
  /// threads compute the stats at once (last store wins, both results are
  /// equivalent).
  std::shared_ptr<const planner::GraphStats> stats_cache() const {
    return std::atomic_load(&stats_cache_);
  }
  void set_stats_cache(std::shared_ptr<const planner::GraphStats> s) const {
    std::atomic_store(&stats_cache_, std::move(s));
  }

  /// Slot for compiled-plan reuse (see planner/plan_cache.h), with the same
  /// atomic-shared_ptr discipline as the stats slot: the cache object itself
  /// is an immutable snapshot, inserts publish a copied-and-extended
  /// snapshot, and racing inserts lose at worst an entry (last store wins),
  /// costing a future recompute, never a wrong plan.
  std::shared_ptr<const planner::PlanCache> plan_cache() const {
    return std::atomic_load(&plan_cache_);
  }
  void set_plan_cache(std::shared_ptr<const planner::PlanCache> c) const {
    std::atomic_store(&plan_cache_, std::move(c));
  }

  /// The graph's observability registry (docs/observability.md): counters
  /// and stage-latency histograms the engine publishes into on every
  /// execution over this graph, shared by every engine/host. Created with
  /// the graph and never replaced, so reading it needs no atomic load; a
  /// fresh registry holds no series until something is published.
  std::shared_ptr<obs::MetricsRegistry> metrics_registry() const {
    return metrics_registry_;
  }
  obs::MetricsRegistry& registry() const { return *metrics_registry_; }

 private:
  friend class GraphBuilder;

  const ElementStore& store(const ElementRef& ref) const {
    return ref.is_node() ? nodes_store_ : edges_store_;
  }

  void BuildIndexes();

  /// Monotonic process-wide counter backing identity_token().
  static uint64_t NextIdentityToken();

  // The element stores and the indexes over them (see docs/storage.md).
  SymbolTable label_symbols_;
  SymbolTable property_symbols_;
  ElementStore nodes_store_;
  ElementStore edges_store_;
  std::vector<EdgeData> edges_;
  std::vector<uint32_t> adjacency_offsets_ = {0};  // size nodes+1.
  std::vector<Adjacency> adjacency_;
  CsrIndex csr_;
  PropertySeedIndex seed_index_;
  mutable std::shared_ptr<const planner::GraphStats> stats_cache_;
  mutable std::shared_ptr<const planner::PlanCache> plan_cache_;
  std::shared_ptr<obs::MetricsRegistry> metrics_registry_;
  uint64_t identity_token_ = NextIdentityToken();
};

}  // namespace gpml

#endif  // GPML_GRAPH_PROPERTY_GRAPH_H_
