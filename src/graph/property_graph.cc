#include "graph/property_graph.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace gpml {

PropertyGraph::PropertyGraph()
    : metrics_registry_(std::make_shared<obs::MetricsRegistry>()) {}

uint64_t PropertyGraph::NextIdentityToken() {
  // Starts at 1 so 0 can mean "no graph" in cache keys and tests.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool ElementData::HasLabel(const std::string& label) const {
  return std::binary_search(labels.begin(), labels.end(), label);
}

const Value& ElementData::GetProperty(const std::string& prop) const {
  static const Value kNull = Value::Null();
  auto it = properties.find(prop);
  return it == properties.end() ? kNull : it->second;
}

NodeId PropertyGraph::FindNode(const std::string& name) const {
  auto it = node_by_name_.find(name);
  return it == node_by_name_.end() ? kInvalidId : it->second;
}

EdgeId PropertyGraph::FindEdge(const std::string& name) const {
  auto it = edge_by_name_.find(name);
  return it == edge_by_name_.end() ? kInvalidId : it->second;
}

const std::vector<NodeId>& PropertyGraph::NodesWithLabel(
    const std::string& label) const {
  static const std::vector<NodeId> kEmpty;
  auto it = nodes_by_label_.find(label);
  return it == nodes_by_label_.end() ? kEmpty : it->second;
}

const std::vector<EdgeId>& PropertyGraph::EdgesWithLabel(
    const std::string& label) const {
  static const std::vector<EdgeId> kEmpty;
  auto it = edges_by_label_.find(label);
  return it == edges_by_label_.end() ? kEmpty : it->second;
}

NodeId PropertyGraph::Cross(EdgeId e, NodeId from, Traversal t) const {
  const EdgeData& ed = edges_[e];
  switch (t) {
    case Traversal::kForward:
      if (ed.directed && ed.u == from) return ed.v;
      return kInvalidId;
    case Traversal::kBackward:
      if (ed.directed && ed.v == from) return ed.u;
      return kInvalidId;
    case Traversal::kUndirected:
      if (!ed.directed) {
        if (ed.u == from) return ed.v;
        if (ed.v == from) return ed.u;
      }
      return kInvalidId;
  }
  return kInvalidId;
}

std::string PropertyGraph::Summary() const {
  return std::to_string(num_nodes()) + " nodes, " + std::to_string(num_edges()) +
         " edges";
}

void PropertyGraph::BuildIndexes() {
  adjacency_.assign(nodes_.size(), {});
  node_by_name_.clear();
  edge_by_name_.clear();
  nodes_by_label_.clear();
  edges_by_label_.clear();

  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].name.empty()) node_by_name_[nodes_[n].name] = n;
    for (const std::string& l : nodes_[n].labels) {
      nodes_by_label_[l].push_back(n);
    }
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const EdgeData& ed = edges_[e];
    if (!ed.name.empty()) edge_by_name_[ed.name] = e;
    for (const std::string& l : ed.labels) edges_by_label_[l].push_back(e);
    if (ed.directed) {
      adjacency_[ed.u].push_back({e, ed.v, Traversal::kForward});
      adjacency_[ed.v].push_back({e, ed.u, Traversal::kBackward});
    } else {
      adjacency_[ed.u].push_back({e, ed.v, Traversal::kUndirected});
      // A non-loop undirected edge can be crossed from either endpoint; a
      // loop contributes a single adjacency record.
      if (ed.u != ed.v) {
        adjacency_[ed.v].push_back({e, ed.u, Traversal::kUndirected});
      }
    }
  }

  BuildInternedLayer();
}

void PropertyGraph::BuildInternedLayer() {
  label_symbols_ = SymbolTable();
  property_symbols_ = SymbolTable();
  node_label_offsets_.assign(1, 0);
  node_label_syms_.clear();
  edge_label_offsets_.assign(1, 0);
  edge_label_syms_.clear();
  node_label_bits_.assign(nodes_.size(), 0);
  edge_label_bits_.assign(edges_.size(), 0);
  node_columns_.clear();
  edge_columns_.clear();
  seed_index_ = PropertySeedIndex();

  // Labels: intern every name, store each element's set as a sorted run of
  // symbol ids plus (when the universe fits) a 64-bit mask.
  auto intern_labels = [this](const ElementData& d, std::vector<Symbol>* syms,
                              std::vector<uint32_t>* offsets) {
    size_t begin = syms->size();
    for (const std::string& l : d.labels) {
      syms->push_back(label_symbols_.Intern(l));
    }
    std::sort(syms->begin() + begin, syms->end());
    offsets->push_back(static_cast<uint32_t>(syms->size()));
  };
  for (const NodeData& nd : nodes_) {
    intern_labels(nd, &node_label_syms_, &node_label_offsets_);
  }
  for (const EdgeData& ed : edges_) {
    intern_labels(ed, &edge_label_syms_, &edge_label_offsets_);
  }
  if (label_bits_usable()) {
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      for (Symbol s : node_label_syms(n)) {
        node_label_bits_[n] |= uint64_t{1} << s;
      }
    }
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      for (Symbol s : edge_label_syms(e)) {
        edge_label_bits_[e] |= uint64_t{1} << s;
      }
    }
  }

  // Columnar property mirror: one dense array per key symbol, NULL-padded.
  // The string-keyed per-element maps stay authoritative for construction
  // and as the differential oracle; tests assert the mirror agrees.
  auto mirror_properties = [this](const ElementData& d, uint32_t id,
                                  size_t universe,
                                  std::vector<std::vector<Value>>* columns) {
    for (const auto& [key, value] : d.properties) {
      Symbol s = property_symbols_.Intern(key);
      if (columns->size() <= s) columns->resize(s + 1);
      std::vector<Value>& col = (*columns)[s];
      if (col.empty()) col.assign(universe, Value::Null());
      col[id] = value;
    }
  };
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    mirror_properties(nodes_[n], n, nodes_.size(), &node_columns_);
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    mirror_properties(edges_[e], e, edges_.size(), &edge_columns_);
  }
  // Node-only and edge-only keys share the symbol space; size both column
  // sets to the full universe so lookups index safely (empty column = NULL).
  node_columns_.resize(property_symbols_.size());
  edge_columns_.resize(property_symbols_.size());

  // Equality seed index over (node label, property key, value), filled in
  // ascending node-id order so index-backed seeds enumerate in exactly the
  // order label-scan seeding would.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    for (Symbol ls : node_label_syms(n)) {
      for (const auto& [key, value] : nodes_[n].properties) {
        if (value.is_null()) continue;  // `= NULL` never selects.
        seed_index_.Add(ls, property_symbols_.Find(key), value, n);
      }
    }
  }

  // Label-partitioned CSR over the adjacency lists.
  csr_.Build(adjacency_, edge_label_offsets_, edge_label_syms_);
}

}  // namespace gpml
