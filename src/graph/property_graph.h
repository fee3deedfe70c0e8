#ifndef GPML_GRAPH_PROPERTY_GRAPH_H_
#define GPML_GRAPH_PROPERTY_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "graph/adjacency.h"
#include "graph/csr_index.h"
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

/// Payload common to nodes and edges: external name, label set, properties.
/// Labels are kept sorted for deterministic printing and fast subset tests.
struct ElementData {
  std::string name;                       // External id, e.g. "a1", "t5".
  std::vector<std::string> labels;        // Sorted, unique.
  std::map<std::string, Value> properties;

  bool HasLabel(const std::string& label) const;
  /// Missing property -> NULL (the standard's semantics for x.prop).
  const Value& GetProperty(const std::string& name) const;
};

struct NodeData : ElementData {};

struct EdgeData : ElementData {
  bool directed = true;
  /// For directed edges: source/target. For undirected: the two endpoints in
  /// insertion order (self-loops allowed in both cases, Def. 2.1).
  NodeId u = kInvalidId;
  NodeId v = kInvalidId;
};

/// A view of one element's interned label set (sorted by symbol id).
struct SymSpan {
  const Symbol* data = nullptr;
  size_t count = 0;

  const Symbol* begin() const { return data; }
  const Symbol* end() const { return data + count; }
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

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const NodeData& node(NodeId id) const { return nodes_[id]; }
  const EdgeData& edge(EdgeId id) const { return edges_[id]; }
  const ElementData& element(const ElementRef& ref) const {
    return ref.is_node() ? static_cast<const ElementData&>(nodes_[ref.id])
                         : static_cast<const ElementData&>(edges_[ref.id]);
  }

  /// All admissible single-step traversals leaving `n` (directed out-edges
  /// forward, directed in-edges backward, undirected incident edges).
  const std::vector<Adjacency>& adjacencies(NodeId n) const {
    return adjacency_[n];
  }

  /// The same records as `adjacencies(n)` as a span (the matcher's uniform
  /// expansion-range type; see also CsrIndex::Range).
  AdjSpan AdjacencySpan(NodeId n) const {
    return {adjacency_[n].data(), adjacency_[n].size()};
  }

  // --- interned storage layer (built once in BuildIndexes) -----------------

  /// Label and property-key strings interned to dense symbol ids. Label
  /// symbols are an id space of their own so label sets pack into 64-bit
  /// masks on graphs with <= 64 distinct labels.
  const SymbolTable& label_symbols() const { return label_symbols_; }
  const SymbolTable& property_symbols() const { return property_symbols_; }

  /// True when every label set fits the uint64 bitmask representation.
  bool label_bits_usable() const { return label_symbols_.size() <= 64; }

  /// Bitmask of `n`'s labels (bit i = label symbol i); meaningful only when
  /// label_bits_usable().
  uint64_t node_label_bits(NodeId n) const { return node_label_bits_[n]; }
  uint64_t edge_label_bits(EdgeId e) const { return edge_label_bits_[e]; }

  /// `n`'s labels as sorted symbol ids (valid at any universe size).
  SymSpan node_label_syms(NodeId n) const {
    return {node_label_syms_.data() + node_label_offsets_[n],
            node_label_offsets_[n + 1] - node_label_offsets_[n]};
  }
  SymSpan edge_label_syms(EdgeId e) const {
    return {edge_label_syms_.data() + edge_label_offsets_[e],
            edge_label_offsets_[e + 1] - edge_label_offsets_[e]};
  }

  /// Label-partitioned adjacency (see graph/csr_index.h): expansion with a
  /// known edge label is a contiguous range scan.
  const CsrIndex& csr() const { return csr_; }

  /// Columnar property access: the value of property-key symbol `key` on an
  /// element, NULL when absent. An array index per access — the interned
  /// mirror of ElementData::properties (which stays the string-keyed oracle).
  const Value& NodeColumnValue(Symbol key, NodeId n) const {
    const std::vector<Value>& col = node_columns_[key];
    return col.empty() ? kNullValue() : col[n];
  }
  const Value& EdgeColumnValue(Symbol key, EdgeId e) const {
    const std::vector<Value>& col = edge_columns_[key];
    return col.empty() ? kNullValue() : col[e];
  }

  /// Property lookup by name through the symbol table and columns: one hash
  /// of the key string (shared across all elements) plus an array index,
  /// replacing the per-element std::map walk of ElementData::GetProperty.
  const Value& GetPropertyFast(const ElementRef& ref,
                               const std::string& key) const {
    Symbol s = property_symbols_.Find(key);
    if (s == kInvalidSymbol) return kNullValue();
    return ref.is_node() ? NodeColumnValue(s, ref.id)
                         : EdgeColumnValue(s, ref.id);
  }

  /// Nodes carrying `label` whose `key` property equals `value` (ascending
  /// node id) — the equality seed index the planner's index-backed seeding
  /// consumes. Unknown labels/keys/values yield the empty list.
  const std::vector<NodeId>& IndexedNodes(const std::string& label,
                                          const std::string& key,
                                          const Value& value) const {
    static const std::vector<NodeId> kEmpty;
    Symbol ls = label_symbols_.Find(label);
    Symbol ks = property_symbols_.Find(key);
    if (ls == kInvalidSymbol || ks == kInvalidSymbol) return kEmpty;
    return seed_index_.Lookup(ls, ks, value);
  }

  /// Lookup by external name; kInvalidId when absent.
  NodeId FindNode(const std::string& name) const;
  EdgeId FindEdge(const std::string& name) const;

  /// Nodes carrying `label`; empty vector for unknown labels.
  const std::vector<NodeId>& NodesWithLabel(const std::string& label) const;
  const std::vector<EdgeId>& EdgesWithLabel(const std::string& label) const;

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

  void BuildIndexes();
  void BuildInternedLayer();

  /// Shared NULL for missing-property results.
  static const Value& kNullValue() {
    static const Value kNull = Value::Null();
    return kNull;
  }

  /// Monotonic process-wide counter backing identity_token().
  static uint64_t NextIdentityToken();

  std::vector<NodeData> nodes_;
  std::vector<EdgeData> edges_;
  std::vector<std::vector<Adjacency>> adjacency_;
  std::unordered_map<std::string, NodeId> node_by_name_;
  std::unordered_map<std::string, EdgeId> edge_by_name_;
  std::unordered_map<std::string, std::vector<NodeId>> nodes_by_label_;
  std::unordered_map<std::string, std::vector<EdgeId>> edges_by_label_;

  // Interned storage layer (tentpole of the CSR PR; see docs/storage.md).
  SymbolTable label_symbols_;
  SymbolTable property_symbols_;
  std::vector<uint32_t> node_label_offsets_;  // size nodes+1.
  std::vector<Symbol> node_label_syms_;       // Sorted per element.
  std::vector<uint32_t> edge_label_offsets_;  // size edges+1.
  std::vector<Symbol> edge_label_syms_;
  std::vector<uint64_t> node_label_bits_;
  std::vector<uint64_t> edge_label_bits_;
  CsrIndex csr_;
  std::vector<std::vector<Value>> node_columns_;  // [key symbol][node id].
  std::vector<std::vector<Value>> edge_columns_;  // [key symbol][edge id].
  PropertySeedIndex seed_index_;
  mutable std::shared_ptr<const planner::GraphStats> stats_cache_;
  mutable std::shared_ptr<const planner::PlanCache> plan_cache_;
  std::shared_ptr<obs::MetricsRegistry> metrics_registry_;
  uint64_t identity_token_ = NextIdentityToken();
};

}  // namespace gpml

#endif  // GPML_GRAPH_PROPERTY_GRAPH_H_
