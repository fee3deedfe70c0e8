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

NodeId PropertyGraph::FindNode(const std::string& name) const {
  auto it = node_by_name_.find(name);
  return it == node_by_name_.end() ? kInvalidId : it->second;
}

EdgeId PropertyGraph::FindEdge(const std::string& name) const {
  auto it = edge_by_name_.find(name);
  return it == edge_by_name_.end() ? kInvalidId : it->second;
}

bool PropertyGraph::HasLabel(const ElementRef& ref,
                             const std::string& label) const {
  Symbol s = label_symbols_.Find(label);
  SymSpan run = label_syms(ref);
  return s != kInvalidSymbol && std::binary_search(run.begin(), run.end(), s);
}

std::vector<std::string> PropertyGraph::LabelNames(
    const ElementRef& ref) const {
  std::vector<std::string> names;
  for (Symbol s : label_syms(ref)) names.push_back(label_symbols_.name(s));
  std::sort(names.begin(), names.end());
  return names;
}

void PropertyGraph::PrefetchElement(const ElementRef& ref, int stage) const {
  const ElementStore& st = store(ref);
  if (stage == 0) {
    __builtin_prefetch(&element(ref));
    __builtin_prefetch(&st.label_offsets[ref.id]);
    __builtin_prefetch(&st.key_offsets[ref.id]);
  } else if (stage == 1) {
    __builtin_prefetch(element(ref).name.data());
    __builtin_prefetch(st.Labels(ref.id).data);
    __builtin_prefetch(st.Keys(ref.id).data);
  } else {
    for (Symbol key : st.Keys(ref.id)) {
      __builtin_prefetch(&st.columns[key][ref.id]);
    }
  }
}

const std::vector<uint32_t>& PropertyGraph::ElementStore::WithLabel(
    Symbol s) const {
  static const std::vector<uint32_t> kEmpty;
  return s < by_label.size() ? by_label[s] : kEmpty;
}

const std::vector<NodeId>& PropertyGraph::NodesWithLabel(
    const std::string& label) const {
  return nodes_store_.WithLabel(label_symbols_.Find(label));
}

const std::vector<EdgeId>& PropertyGraph::EdgesWithLabel(
    const std::string& label) const {
  return edges_store_.WithLabel(label_symbols_.Find(label));
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

void PropertyGraph::ElementStore::Finish(size_t size, size_t num_keys,
                                         size_t num_labels) {
  // Node-only and edge-only keys share the symbol space; size both column
  // sets to the full universe so lookups index safely (empty column = NULL).
  columns.resize(num_keys);
  for (std::vector<Value>& col : columns) {
    if (!col.empty()) col.resize(size);
  }
  bits.assign(size, 0);
  by_label.assign(num_labels, {});
  for (uint32_t id = 0; id < size; ++id) {
    for (Symbol s : Labels(id)) {
      if (num_labels <= 64) bits[id] |= uint64_t{1} << s;
      by_label[s].push_back(id);
    }
  }
}

void PropertyGraph::BuildIndexes() {
  // Reserve every adjacency list at its exact degree: one allocation per
  // node with edges, no regrowth.
  std::vector<uint32_t> degree(nodes_.size(), 0);
  for (const EdgeData& ed : edges_) {
    ++degree[ed.u];
    if (ed.directed || ed.u != ed.v) ++degree[ed.v];
  }
  adjacency_.assign(nodes_.size(), {});
  for (NodeId n = 0; n < nodes_.size(); ++n) adjacency_[n].reserve(degree[n]);
  degree = {};
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const EdgeData& ed = edges_[e];
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

  nodes_store_.Finish(nodes_.size(), property_symbols_.size(),
                      label_symbols_.size());
  edges_store_.Finish(edges_.size(), property_symbols_.size(),
                      label_symbols_.size());

  // Equality seed index over (node label, property key, value), filled in
  // ascending node-id order so index-backed seeds enumerate in exactly the
  // order label-scan seeding would.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    for (Symbol ls : node_label_syms(n)) {
      for (Symbol key : nodes_store_.Keys(n)) {
        const Value& value = NodeColumnValue(key, n);
        if (value.is_null()) continue;  // `= NULL` never selects.
        seed_index_.Add(ls, key, value, n);
      }
    }
  }

  // Label-partitioned CSR over the adjacency lists.
  csr_.Build(adjacency_, edges_store_.label_offsets, edges_store_.label_syms);
}

}  // namespace gpml
