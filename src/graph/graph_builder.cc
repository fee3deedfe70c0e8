#include "graph/graph_builder.h"

#include <algorithm>

namespace gpml {

void GraphBuilder::AddLabelsAndProperties(ElementStore* store, uint32_t id,
                                          Span<std::string_view> labels,
                                          Span<PropertyArg> properties) {
  // Labels intern in name order (symbol ids follow first appearance) and are
  // stored as a run sorted by symbol.
  labels_.assign(labels.begin(), labels.end());
  std::sort(labels_.begin(), labels_.end());
  labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  size_t begin = store->label_syms.size();
  for (std::string_view l : labels_) {
    store->label_syms.push_back(graph_.label_symbols_.Intern(l));
  }
  std::sort(store->label_syms.begin() + begin, store->label_syms.end());
  store->label_offsets.push_back(static_cast<uint32_t>(store->label_syms.size()));

  // Of a repeated key only the last value counts; the rest go in key order.
  properties_.clear();
  for (size_t i = 0; i < properties.size(); ++i) {
    bool repeated = false;
    for (size_t j = i + 1; j < properties.size() && !repeated; ++j) {
      repeated = properties[j].key == properties[i].key;
    }
    if (!repeated) properties_.push_back(&properties[i]);
  }
  std::sort(properties_.begin(), properties_.end(),
            [](const PropertyArg* a, const PropertyArg* b) {
              return a->key < b->key;
            });
  for (const PropertyArg* p : properties_) {
    Symbol s = graph_.property_symbols_.Intern(p->key);
    if (store->columns.size() <= s) store->columns.resize(s + 1);
    store->columns[s].Set(id, p->value);
    store->key_syms.push_back(s);
  }
  store->key_offsets.push_back(static_cast<uint32_t>(store->key_syms.size()));
}

NodeId GraphBuilder::AddNode(std::string_view name,
                             Span<std::string_view> labels,
                             Span<PropertyArg> properties) {
  ElementStore& nodes = graph_.nodes_store_;
  NodeId id = static_cast<NodeId>(nodes.size());
  if (nodes.AddName(id, name) != id && duplicate_node_.ok()) {
    duplicate_node_ =
        Status::AlreadyExists("duplicate node name: " + std::string(name));
  }
  AddLabelsAndProperties(&nodes, id, labels, properties);
  return id;
}

void GraphBuilder::AddEdge(std::string_view name, std::string_view from,
                           std::string_view to, bool directed,
                           Span<std::string_view> labels,
                           Span<PropertyArg> properties) {
  ElementStore& edges = graph_.edges_store_;
  EdgeId id = static_cast<EdgeId>(graph_.edges_.size());
  if (edges.AddName(id, name) != id && duplicate_edge_ == kInvalidId) {
    duplicate_edge_ = id;
  }
  EdgeData ed;
  ed.directed = directed;
  ed.u = graph_.FindNode(from);
  ed.v = graph_.FindNode(to);
  if (ed.u == kInvalidId || ed.v == kInvalidId) {
    pending_.push_back({id, std::string(from), std::string(to)});
  }
  graph_.edges_.push_back(ed);
  AddLabelsAndProperties(&edges, id, labels, properties);
}

void GraphBuilder::AddDirectedEdge(std::string_view name,
                                   std::string_view from, std::string_view to,
                                   Span<std::string_view> labels,
                                   Span<PropertyArg> properties) {
  AddEdge(name, from, to, /*directed=*/true, labels, properties);
}

void GraphBuilder::AddUndirectedEdge(std::string_view name,
                                     std::string_view a, std::string_view b,
                                     Span<std::string_view> labels,
                                     Span<PropertyArg> properties) {
  AddEdge(name, a, b, /*directed=*/false, labels, properties);
}

Result<PropertyGraph> GraphBuilder::Build() && {
  if (!duplicate_node_.ok()) return duplicate_node_;
  // Errors report in edge order, a repeated name before an unknown endpoint.
  for (const PendingEdge& pe : pending_) {
    if (duplicate_edge_ <= pe.edge) break;
    EdgeData& ed = graph_.edges_[pe.edge];
    ed.u = graph_.FindNode(pe.from);
    if (ed.u == kInvalidId) {
      return Status::NotFound("edge " + std::string(graph_.edge_name(pe.edge)) +
                              " references unknown node: " + pe.from);
    }
    ed.v = graph_.FindNode(pe.to);
    if (ed.v == kInvalidId) {
      return Status::NotFound("edge " + std::string(graph_.edge_name(pe.edge)) +
                              " references unknown node: " + pe.to);
    }
  }
  if (duplicate_edge_ != kInvalidId) {
    return Status::AlreadyExists(
        "duplicate edge name: " +
        std::string(graph_.edge_name(duplicate_edge_)));
  }
  pending_ = {};
  labels_ = {};
  properties_ = {};
  graph_.BuildIndexes();
  return std::move(graph_);
}

}  // namespace gpml
