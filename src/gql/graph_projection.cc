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

  auto properties = [&source](const ElementRef& ref) {
    PropertyList props;
    for (Symbol key : source.property_keys(ref)) {
      props.emplace_back(source.property_symbols().name(key),
                         source.ColumnValue(ref, key));
    }
    return props;
  };
  GraphBuilder builder;
  for (NodeId n : nodes) {
    ElementRef ref = ElementRef::Node(n);
    builder.AddNode(source.node(n).name, source.LabelNames(ref),
                    properties(ref));
  }
  for (EdgeId e : edges) {
    const EdgeData& ed = source.edge(e);
    ElementRef ref = ElementRef::Edge(e);
    if (ed.directed) {
      builder.AddDirectedEdge(ed.name, source.node(ed.u).name,
                              source.node(ed.v).name, source.LabelNames(ref),
                              properties(ref));
    } else {
      builder.AddUndirectedEdge(ed.name, source.node(ed.u).name,
                                source.node(ed.v).name,
                                source.LabelNames(ref), properties(ref));
    }
  }
  return std::move(builder).Build();
}

}  // namespace gpml
