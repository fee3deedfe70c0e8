#include "graph/property_graph.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace gpml {

void PropertyColumn::Set(uint32_t id, ValueView v) {
  if (id >= types_.size()) {
    types_.resize(id + 1);
    payloads_.resize(id + 1);
  }
  types_[id] = static_cast<uint8_t>(v.type());
  uint64_t& p = payloads_[id];
  switch (v.type()) {
    case ValueType::kNull: break;
    case ValueType::kBool: p = v.bool_value() ? 1 : 0; break;
    case ValueType::kInt: p = static_cast<uint64_t>(v.int_value()); break;
    case ValueType::kDouble: {
      double d = v.double_value();
      std::memcpy(&p, &d, sizeof(p));
      break;
    }
    case ValueType::kString: {
      std::string_view s = v.string_value();
      p = (static_cast<uint64_t>(bytes_.size()) << 32) | s.size();
      bytes_.insert(bytes_.end(), s.begin(), s.end());
      break;
    }
  }
}

uint32_t ElementStore::AddName(uint32_t id, std::string_view name) {
  name_bytes.insert(name_bytes.end(), name.begin(), name.end());
  name_offsets.push_back(static_cast<uint32_t>(name_bytes.size()));
  if (name.empty()) return id;
  std::string_view stored = Name(id);
  return by_name.Insert(
      HashName(stored), id,
      [&](uint32_t other) { return Name(other) == stored; },
      [&](uint32_t other) { return HashName(Name(other)); });
}

void PropertyColumn::ShrinkToFit() {
  types_.shrink_to_fit();
  payloads_.shrink_to_fit();
  bytes_.shrink_to_fit();
}

void ElementStore::Finish(size_t num_keys, size_t num_labels) {
  // The arrays the builder grew give back their spare capacity before the
  // indexes are allocated.
  name_bytes.shrink_to_fit();
  name_offsets.shrink_to_fit();
  label_offsets.shrink_to_fit();
  label_syms.shrink_to_fit();
  key_offsets.shrink_to_fit();
  key_syms.shrink_to_fit();
  for (PropertyColumn& column : columns) column.ShrinkToFit();
  // Node-only and edge-only keys share the symbol space; size both column
  // sets to the full universe so lookups index safely (empty column = NULL).
  columns.resize(num_keys);
  columns.shrink_to_fit();
  bits.assign(size(), 0);
  std::vector<uint32_t> counts(num_labels, 0);
  for (Symbol s : label_syms) ++counts[s];
  by_label.assign(num_labels, {});
  for (Symbol s = 0; s < num_labels; ++s) by_label[s].reserve(counts[s]);
  for (uint32_t id = 0; id < size(); ++id) {
    for (Symbol s : Labels(id)) {
      if (num_labels <= 64) bits[id] |= uint64_t{1} << s;
      by_label[s].push_back(id);
    }
  }
}

PropertyGraph::PropertyGraph()
    : metrics_registry_(std::make_shared<obs::MetricsRegistry>()) {}

uint64_t PropertyGraph::NextIdentityToken() {
  // Starts at 1 so 0 can mean "no graph" in cache keys and tests.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool PropertyGraph::HasLabel(const ElementRef& ref,
                             std::string_view label) const {
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
    if (ref.is_edge()) __builtin_prefetch(&edges_[ref.id]);
    __builtin_prefetch(&st.name_offsets[ref.id]);
    __builtin_prefetch(&st.label_offsets[ref.id]);
    __builtin_prefetch(&st.key_offsets[ref.id]);
  } else if (stage == 1) {
    __builtin_prefetch(st.Name(ref.id).data());
    __builtin_prefetch(st.Labels(ref.id).data);
    __builtin_prefetch(st.Keys(ref.id).data);
  } else if (stage == 2) {
    for (Symbol key : st.Keys(ref.id)) st.columns[key].Prefetch(ref.id);
  } else {
    for (Symbol key : st.Keys(ref.id)) st.columns[key].PrefetchBytes(ref.id);
  }
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
  nodes_store_.Finish(property_symbols_.size(), label_symbols_.size());
  edges_store_.Finish(property_symbols_.size(), label_symbols_.size());
  edges_.shrink_to_fit();

  // The full adjacency as one offsets-plus-records array: count each node's
  // degree, then place each edge's records at its endpoints' cursors.
  const size_t n = num_nodes();
  adjacency_offsets_.assign(n + 1, 0);
  for (const EdgeData& ed : edges_) {
    ++adjacency_offsets_[ed.u + 1];
    if (ed.directed || ed.u != ed.v) ++adjacency_offsets_[ed.v + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    adjacency_offsets_[i + 1] += adjacency_offsets_[i];
  }
  adjacency_.resize(adjacency_offsets_[n]);
  {
    std::vector<uint32_t> cursor(adjacency_offsets_.begin(),
                                 adjacency_offsets_.end() - 1);
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      const EdgeData& ed = edges_[e];
      if (ed.directed) {
        adjacency_[cursor[ed.u]++] = {e, ed.v, Traversal::kForward};
        adjacency_[cursor[ed.v]++] = {e, ed.u, Traversal::kBackward};
      } else {
        adjacency_[cursor[ed.u]++] = {e, ed.v, Traversal::kUndirected};
        // A non-loop undirected edge can be crossed from either endpoint; a
        // loop contributes a single adjacency record.
        if (ed.u != ed.v) {
          adjacency_[cursor[ed.v]++] = {e, ed.u, Traversal::kUndirected};
        }
      }
    }
  }

  // Equality seed index over (node label, property key, value), filled in
  // ascending node-id order so index-backed seeds enumerate in exactly the
  // order label-scan seeding would.
  seed_index_.Build(nodes_store_);

  // Label-partitioned CSR over the full adjacency.
  csr_.Build(adjacency_offsets_, adjacency_, edges_store_);
}

}  // namespace gpml
