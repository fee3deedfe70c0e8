#ifndef GPML_GRAPH_GRAPH_BUILDER_H_
#define GPML_GRAPH_GRAPH_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/property_graph.h"

namespace gpml {

/// One property of an element being added: a key and a value, both
/// borrowed for the duration of the call (the value may be a `Value`, which
/// converts to a view, or another graph's column slot).
struct PropertyArg {
  std::string_view key;
  ValueView value;
};

/// Constructs PropertyGraph instances. Element names must be unique per kind
/// (they serve as external identifiers, like a1/t5 in the paper); edges refer
/// to endpoint nodes by name. Every argument is borrowed: names, labels and
/// properties are copied straight into the graph's store as the element is
/// added (labels deduplicated; a repeated property key keeps its last
/// value), so adding an element allocates nothing outside the graph's own
/// arrays.
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
  NodeId AddNode(std::string_view name, Span<std::string_view> labels = {},
                 Span<PropertyArg> properties = {});

  /// Adds a directed edge from `from` to `to` (by node name).
  void AddDirectedEdge(std::string_view name, std::string_view from,
                       std::string_view to,
                       Span<std::string_view> labels = {},
                       Span<PropertyArg> properties = {});

  /// Adds an undirected edge between `a` and `b` (by node name).
  void AddUndirectedEdge(std::string_view name, std::string_view a,
                         std::string_view b,
                         Span<std::string_view> labels = {},
                         Span<PropertyArg> properties = {});

  size_t num_nodes() const { return graph_.num_nodes(); }
  size_t num_edges() const { return graph_.num_edges(); }

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

  void AddEdge(std::string_view name, std::string_view from,
               std::string_view to, bool directed,
               Span<std::string_view> labels, Span<PropertyArg> properties);
  void AddLabelsAndProperties(ElementStore* store, uint32_t id,
                              Span<std::string_view> labels,
                              Span<PropertyArg> properties);

  PropertyGraph graph_;
  Status duplicate_node_;                 // The first repeated node name.
  EdgeId duplicate_edge_ = kInvalidId;    // The first repeated edge name.
  std::vector<PendingEdge> pending_;      // In edge order.
  // Per-call scratch, kept so that adding an element does not allocate.
  std::vector<std::string_view> labels_;
  std::vector<const PropertyArg*> properties_;
};

}  // namespace gpml

#endif  // GPML_GRAPH_GRAPH_BUILDER_H_
