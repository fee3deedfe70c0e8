#include "gql/graph_projection.h"

#include <set>

#include "graph/graph_builder.h"

namespace gpml {

Result<PropertyGraph> ProjectGraph(const PropertyGraph& source,
                                   const MatchOutput& output) {
  std::set<NodeId> nodes;
  std::set<EdgeId> edges;
  for (const ResultRow& row : output.rows) {
    for (const auto& pb : row.bindings) {
      for (const ElementaryBinding& b : pb->reduced) {
        if (b.element.is_node()) {
          nodes.insert(b.element.id);
        } else {
          edges.insert(b.element.id);
        }
      }
    }
  }
  // Close over edge endpoints so the projection is a property graph.
  for (EdgeId e : edges) {
    nodes.insert(source.edge(e).u);
    nodes.insert(source.edge(e).v);
  }

  // The element's labels and properties as views of the source graph's
  // store, in scratch reused across elements.
  std::vector<std::string_view> labels;
  std::vector<PropertyArg> props;
  auto load = [&](const ElementRef& ref) {
    labels.clear();
    for (Symbol s : source.label_syms(ref)) {
      labels.push_back(source.label_symbols().name(s));
    }
    props.clear();
    for (Symbol key : source.property_keys(ref)) {
      props.push_back({source.property_symbols().name(key),
                       source.ColumnValue(ref, key)});
    }
  };
  GraphBuilder builder;
  for (NodeId n : nodes) {
    load(ElementRef::Node(n));
    builder.AddNode(source.node_name(n), labels, props);
  }
  for (EdgeId e : edges) {
    const EdgeData& ed = source.edge(e);
    load(ElementRef::Edge(e));
    if (ed.directed) {
      builder.AddDirectedEdge(source.edge_name(e), source.node_name(ed.u),
                              source.node_name(ed.v), labels, props);
    } else {
      builder.AddUndirectedEdge(source.edge_name(e), source.node_name(ed.u),
                                source.node_name(ed.v), labels, props);
    }
  }
  return std::move(builder).Build();
}

}  // namespace gpml
