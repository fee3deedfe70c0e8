#ifndef GPML_GRAPH_PATH_H_
#define GPML_GRAPH_PATH_H_

#include <string>
#include <vector>

#include "graph/property_graph.h"

namespace gpml {

/// A path in the sense of §2 (a *walk* in graph-theory terms): an alternating
/// sequence of nodes and edges that starts and ends with a node, where
/// consecutive nodes are connected by the edge between them. Edges may be
/// traversed forward, backward, or as undirected edges; the traversal
/// direction is recorded because the textual form path(c1,li1,a1,...) of the
/// paper distinguishes, e.g., following li1 "in reverse direction".
///
/// Paths are value types: cheap to copy for the sizes that pattern matching
/// produces, hashable and comparable for deduplication and deterministic
/// output ordering.
class Path {
 public:
  Path() = default;
  /// A zero-length path sitting on `start`.
  explicit Path(NodeId start) : nodes_{start} {}

  /// Number of edges (the "length" used by SHORTEST selectors).
  size_t Length() const { return edges_.size(); }
  bool IsEmpty() const { return nodes_.empty(); }

  NodeId Start() const { return nodes_.front(); }
  NodeId End() const { return nodes_.back(); }

  const std::vector<NodeId>& nodes() const { return nodes_; }
  const std::vector<EdgeId>& edges() const { return edges_; }
  const std::vector<Traversal>& traversals() const { return traversals_; }

  /// Makes this the zero-length path on `start`, keeping its storage.
  void Reset(NodeId start) {
    nodes_.assign(1, start);
    edges_.clear();
    traversals_.clear();
  }

  /// Reserves room for a path of `length` edges.
  void Reserve(size_t length) {
    nodes_.reserve(length + 1);
    edges_.reserve(length);
    traversals_.reserve(length);
  }

  /// Appends a step crossing `e` to `next`. The caller guarantees the step is
  /// admissible in the underlying graph.
  void Append(EdgeId e, Traversal t, NodeId next) {
    edges_.push_back(e);
    traversals_.push_back(t);
    nodes_.push_back(next);
  }

  /// Concatenates `tail` whose Start() must equal this path's End().
  void Concatenate(const Path& tail);

  /// The mirror path: same nodes and edges walked End() -> Start(), with
  /// each traversal direction flipped (undirected stays undirected). Used by
  /// the planner to restore pattern order after matching a reversed pattern.
  Path Reversed() const;

  /// True if no edge appears twice (the TRAIL restrictor, Fig. 7).
  bool IsTrail() const;
  /// True if no node appears twice (the ACYCLIC restrictor, Fig. 7).
  bool IsAcyclic() const;
  /// True if no node repeats except that first == last is allowed
  /// (the SIMPLE restrictor, Fig. 7).
  bool IsSimple() const;

  /// Renders as the paper's notation: path(a6,t5,a3,t2,a2).
  std::string ToString(const PropertyGraph& g) const;

  friend bool operator==(const Path& a, const Path& b) {
    return a.nodes_ == b.nodes_ && a.edges_ == b.edges_;
  }
  friend bool operator<(const Path& a, const Path& b) {
    if (a.nodes_ != b.nodes_) return a.nodes_ < b.nodes_;
    return a.edges_ < b.edges_;
  }

  size_t Hash() const;

 private:
  std::vector<NodeId> nodes_;
  std::vector<EdgeId> edges_;
  std::vector<Traversal> traversals_;
};

struct PathHash {
  size_t operator()(const Path& p) const { return p.Hash(); }
};

}  // namespace gpml

#endif  // GPML_GRAPH_PATH_H_
