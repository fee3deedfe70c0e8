#include "graph/graph_builder.h"

#include <algorithm>

namespace gpml {

void GraphBuilder::AddLabelsAndProperties(PropertyGraph::ElementStore* store,
                                          uint32_t id,
                                          std::vector<std::string> labels,
                                          PropertyList properties) {
  // Labels intern in name order (symbol ids follow first appearance) and are
  // stored as a run sorted by symbol.
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  size_t begin = store->label_syms.size();
  for (const std::string& l : labels) {
    store->label_syms.push_back(graph_.label_symbols_.Intern(l));
  }
  std::sort(store->label_syms.begin() + begin, store->label_syms.end());
  store->label_offsets.push_back(static_cast<uint32_t>(store->label_syms.size()));

  // Of a repeated key only the last value counts; the rest go in key order.
  size_t kept = 0;
  for (size_t i = 0; i < properties.size(); ++i) {
    bool repeated = false;
    for (size_t j = i + 1; j < properties.size() && !repeated; ++j) {
      repeated = properties[j].first == properties[i].first;
    }
    if (repeated) continue;
    if (kept != i) properties[kept] = std::move(properties[i]);
    ++kept;
  }
  properties.resize(kept);
  std::sort(properties.begin(), properties.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, value] : properties) {
    Symbol s = graph_.property_symbols_.Intern(key);
    if (store->columns.size() <= s) store->columns.resize(s + 1);
    std::vector<Value>& col = store->columns[s];
    if (col.size() <= id) col.resize(id + 1);
    col[id] = std::move(value);
    store->key_syms.push_back(s);
  }
  store->key_offsets.push_back(static_cast<uint32_t>(store->key_syms.size()));
}

NodeId GraphBuilder::AddNode(std::string name,
                             std::vector<std::string> labels,
                             PropertyList properties) {
  NodeId id = static_cast<NodeId>(graph_.nodes_.size());
  if (!name.empty() && !graph_.node_by_name_.emplace(name, id).second &&
      duplicate_node_.ok()) {
    duplicate_node_ = Status::AlreadyExists("duplicate node name: " + name);
  }
  graph_.nodes_.push_back(NodeData{{std::move(name)}});
  AddLabelsAndProperties(&graph_.nodes_store_, id, std::move(labels),
                         std::move(properties));
  return id;
}

void GraphBuilder::AddEdge(std::string name, const std::string& from,
                           const std::string& to, bool directed,
                           std::vector<std::string> labels,
                           PropertyList properties) {
  EdgeId id = static_cast<EdgeId>(graph_.edges_.size());
  if (!name.empty() && !graph_.edge_by_name_.emplace(name, id).second &&
      duplicate_edge_ == kInvalidId) {
    duplicate_edge_ = id;
  }
  EdgeData ed;
  ed.name = std::move(name);
  ed.directed = directed;
  ed.u = graph_.FindNode(from);
  ed.v = graph_.FindNode(to);
  if (ed.u == kInvalidId || ed.v == kInvalidId) {
    pending_.push_back({id, from, to});
  }
  graph_.edges_.push_back(std::move(ed));
  AddLabelsAndProperties(&graph_.edges_store_, id, std::move(labels),
                         std::move(properties));
}

void GraphBuilder::AddDirectedEdge(std::string name, const std::string& from,
                                   const std::string& to,
                                   std::vector<std::string> labels,
                                   PropertyList properties) {
  AddEdge(std::move(name), from, to, /*directed=*/true, std::move(labels),
          std::move(properties));
}

void GraphBuilder::AddUndirectedEdge(std::string name, const std::string& a,
                                     const std::string& b,
                                     std::vector<std::string> labels,
                                     PropertyList properties) {
  AddEdge(std::move(name), a, b, /*directed=*/false, std::move(labels),
          std::move(properties));
}

Result<PropertyGraph> GraphBuilder::Build() && {
  if (!duplicate_node_.ok()) return duplicate_node_;
  // Errors report in edge order, a repeated name before an unknown endpoint.
  for (const PendingEdge& pe : pending_) {
    if (duplicate_edge_ <= pe.edge) break;
    EdgeData& ed = graph_.edges_[pe.edge];
    ed.u = graph_.FindNode(pe.from);
    if (ed.u == kInvalidId) {
      return Status::NotFound("edge " + ed.name +
                              " references unknown node: " + pe.from);
    }
    ed.v = graph_.FindNode(pe.to);
    if (ed.v == kInvalidId) {
      return Status::NotFound("edge " + ed.name +
                              " references unknown node: " + pe.to);
    }
  }
  if (duplicate_edge_ != kInvalidId) {
    return Status::AlreadyExists("duplicate edge name: " +
                                 graph_.edges_[duplicate_edge_].name);
  }
  pending_ = {};
  graph_.BuildIndexes();
  return std::move(graph_);
}

}  // namespace gpml
