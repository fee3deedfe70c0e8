#ifndef GPML_GRAPH_GRAPH_BUILDER_H_
#define GPML_GRAPH_GRAPH_BUILDER_H_

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/property_graph.h"

namespace gpml {

/// Convenience alias for inline property lists in builder calls.
using PropertyList = std::vector<std::pair<std::string, Value>>;

/// Constructs PropertyGraph instances. Element names must be unique per kind
/// (they serve as external identifiers, like a1/t5 in the paper); edges refer
/// to endpoint nodes by name. Each element's labels and properties go
/// straight into the graph's interned store as it is added (labels
/// deduplicated; a repeated property key keeps its last value), so building
/// stages no per-element maps and indexes the names once.
///
/// Usage:
///   GraphBuilder b;
///   b.AddNode("a1", {"Account"}, {{"owner", Value::String("Scott")}});
///   b.AddDirectedEdge("t1", "a1", "a3", {"Transfer"},
///                     {{"amount", Value::Int(8'000'000)}});
///   GPML_ASSIGN_OR_RETURN(PropertyGraph g, std::move(b).Build());
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Adds a node; returns its dense id. Duplicate names surface at Build().
  NodeId AddNode(std::string name, std::vector<std::string> labels = {},
                 PropertyList properties = {});

  /// Adds a directed edge from `from` to `to` (by node name).
  void AddDirectedEdge(std::string name, const std::string& from,
                       const std::string& to,
                       std::vector<std::string> labels = {},
                       PropertyList properties = {});

  /// Adds an undirected edge between `a` and `b` (by node name).
  void AddUndirectedEdge(std::string name, const std::string& a,
                         const std::string& b,
                         std::vector<std::string> labels = {},
                         PropertyList properties = {});

  size_t num_nodes() const { return graph_.nodes_.size(); }
  size_t num_edges() const { return graph_.edges_.size(); }

  /// Validates names/endpoints and produces the immutable graph.
  Result<PropertyGraph> Build() &&;

 private:
  /// An edge naming an endpoint that was not yet added when it was; it
  /// resolves at Build().
  struct PendingEdge {
    EdgeId edge;
    std::string from;
    std::string to;
  };

  void AddEdge(std::string name, const std::string& from,
               const std::string& to, bool directed,
               std::vector<std::string> labels, PropertyList properties);
  void AddLabelsAndProperties(PropertyGraph::ElementStore* store, uint32_t id,
                              std::vector<std::string> labels,
                              PropertyList properties);

  PropertyGraph graph_;
  Status duplicate_node_;                 // The first repeated node name.
  EdgeId duplicate_edge_ = kInvalidId;    // The first repeated edge name.
  std::vector<PendingEdge> pending_;      // In edge order.
};

}  // namespace gpml

#endif  // GPML_GRAPH_GRAPH_BUILDER_H_
