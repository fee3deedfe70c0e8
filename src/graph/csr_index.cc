#include "graph/csr_index.h"

#include <algorithm>
#include <cmath>

#include "graph/property_graph.h"

namespace gpml {

void CsrIndex::Build(const std::vector<uint32_t>& offsets,
                     const std::vector<Adjacency>& records,
                     const ElementStore& edges) {
  const size_t num_nodes = offsets.size() - 1;
  node_begin_.assign(num_nodes + 1, 0);
  buckets_.clear();
  entries_.clear();
  size_t num_entries = 0;
  for (const Adjacency& adj : records) {
    num_entries += edges.Labels(adj.edge).size();
  }
  entries_.reserve(num_entries);

  // Scratch: (label, position, record) of one node, sorted by label then
  // position so records inside a bucket keep the full adjacency's order.
  struct Labeled {
    Symbol label;
    uint32_t position;
    Adjacency adj;
  };
  std::vector<Labeled> scratch;
  for (size_t n = 0; n < num_nodes; ++n) {
    node_begin_[n] = static_cast<uint32_t>(buckets_.size());
    scratch.clear();
    for (uint32_t r = offsets[n]; r < offsets[n + 1]; ++r) {
      for (Symbol label : edges.Labels(records[r].edge)) {
        scratch.push_back(
            {label, static_cast<uint32_t>(scratch.size()), records[r]});
      }
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const Labeled& a, const Labeled& b) {
                return a.label != b.label ? a.label < b.label
                                          : a.position < b.position;
              });
    size_t i = 0;
    while (i < scratch.size()) {
      Bucket b;
      b.label = scratch[i].label;
      b.begin = static_cast<uint32_t>(entries_.size());
      while (i < scratch.size() && scratch[i].label == b.label) {
        entries_.push_back(scratch[i].adj);
        ++i;
      }
      b.end = static_cast<uint32_t>(entries_.size());
      buckets_.push_back(b);
    }
  }
  node_begin_[num_nodes] = static_cast<uint32_t>(buckets_.size());
  buckets_.shrink_to_fit();
}

AdjSpan CsrIndex::Range(uint32_t node, Symbol label) const {
  const Bucket* lo = buckets_.data() + node_begin_[node];
  const Bucket* hi = buckets_.data() + node_begin_[node + 1];
  const Bucket* it = std::lower_bound(
      lo, hi, label,
      [](const Bucket& b, Symbol l) { return b.label < l; });
  if (it == hi || it->label != label) return {};
  return AdjSpan(entries_.data() + it->begin,
                 static_cast<size_t>(it->end - it->begin));
}

// ---------------------------------------------------------------------------
// CompiledLabelPred
// ---------------------------------------------------------------------------

namespace {

/// True when `e` is a pure conjunction / disjunction tree of plain names
/// (single names count as both); fills the resolved symbols.
bool FlattenNames(const LabelExpr& e, LabelExpr::Kind connective,
                  const SymbolTable& labels, std::vector<Symbol>* out) {
  if (e.kind == LabelExpr::Kind::kName) {
    out->push_back(labels.Find(e.name));
    return true;
  }
  if (e.kind != connective) return false;
  return FlattenNames(*e.left, connective, labels, out) &&
         FlattenNames(*e.right, connective, labels, out);
}

bool HasSymbol(const Symbol* syms, size_t count, Symbol s) {
  return std::binary_search(syms, syms + count, s);
}

}  // namespace

CompiledLabelPred CompiledLabelPred::Compile(const LabelExprPtr& expr,
                                             const SymbolTable& labels,
                                             bool use_bits) {
  CompiledLabelPred p;
  p.use_bits_ = use_bits;
  if (expr == nullptr) {
    p.kind_ = Kind::kAlwaysTrue;
    return p;
  }

  if (use_bits) {
    std::vector<Symbol> syms;
    if (FlattenNames(*expr, LabelExpr::Kind::kAnd, labels, &syms)) {
      for (Symbol s : syms) {
        if (s == kInvalidSymbol) {
          p.kind_ = Kind::kNever;  // A required name the graph never uses.
          return p;
        }
        p.mask_ |= uint64_t{1} << s;
      }
      p.kind_ = Kind::kAllOf;
      return p;
    }
    syms.clear();
    if (FlattenNames(*expr, LabelExpr::Kind::kOr, labels, &syms)) {
      for (Symbol s : syms) {
        if (s != kInvalidSymbol) p.mask_ |= uint64_t{1} << s;
      }
      p.kind_ = p.mask_ == 0 ? Kind::kNever : Kind::kAnyOf;
      return p;
    }
    if (expr->kind == LabelExpr::Kind::kWildcard) {
      p.kind_ = Kind::kAnyOf;
      p.mask_ = ~uint64_t{0};  // "Has at least one label": any bit set.
      return p;
    }
  }

  // General form: the expression tree in postfix order, evaluated with a
  // small boolean stack. Covers negation, mixed connectives, and graphs
  // whose label universe exceeds the 64-bit masks.
  p.kind_ = Kind::kGeneral;
  struct Walk {
    const SymbolTable& labels;
    std::vector<Op>* ops;
    void Visit(const LabelExpr& e) {
      switch (e.kind) {
        case LabelExpr::Kind::kName:
          ops->push_back({Op::Code::kTestName, labels.Find(e.name)});
          break;
        case LabelExpr::Kind::kWildcard:
          ops->push_back({Op::Code::kTestAny, kInvalidSymbol});
          break;
        case LabelExpr::Kind::kNot:
          Visit(*e.left);
          ops->push_back({Op::Code::kNot, kInvalidSymbol});
          break;
        case LabelExpr::Kind::kAnd:
        case LabelExpr::Kind::kOr:
          Visit(*e.left);
          Visit(*e.right);
          ops->push_back({e.kind == LabelExpr::Kind::kAnd ? Op::Code::kAnd
                                                          : Op::Code::kOr,
                          kInvalidSymbol});
          break;
      }
    }
  };
  Walk{labels, &p.ops_}.Visit(*expr);
  return p;
}

bool CompiledLabelPred::Matches(uint64_t bits, const Symbol* syms,
                                size_t count) const {
  switch (kind_) {
    case Kind::kAlwaysTrue:
      return true;
    case Kind::kNever:
      return false;
    case Kind::kAllOf:
      return (bits & mask_) == mask_;
    case Kind::kAnyOf:
      return (bits & mask_) != 0;
    case Kind::kGeneral:
      break;
  }
  // Postfix evaluation. The stack depth is bounded by the op count; label
  // expressions are tiny in practice, so a fixed local buffer with a
  // heap fallback keeps the common case allocation-free.
  bool local[64];
  std::vector<bool> heap;
  const bool use_heap = ops_.size() > 64;
  if (use_heap) heap.resize(ops_.size());
  size_t top = 0;
  auto push = [&](bool v) {
    if (use_heap) {
      heap[top++] = v;
    } else {
      local[top++] = v;
    }
  };
  auto pop = [&]() { return use_heap ? bool(heap[--top]) : local[--top]; };
  for (const Op& op : ops_) {
    switch (op.code) {
      case Op::Code::kTestName:
        if (use_bits_) {
          push(op.sym != kInvalidSymbol &&
               (bits & (uint64_t{1} << op.sym)) != 0);
        } else {
          push(op.sym != kInvalidSymbol && HasSymbol(syms, count, op.sym));
        }
        break;
      case Op::Code::kTestAny:
        push(count != 0);
        break;
      case Op::Code::kNot:
        push(!pop());
        break;
      case Op::Code::kAnd: {
        bool b = pop(), a = pop();
        push(a && b);
        break;
      }
      case Op::Code::kOr: {
        bool b = pop(), a = pop();
        push(a || b);
        break;
      }
    }
  }
  return pop();
}

// ---------------------------------------------------------------------------
// PropertySeedIndex
// ---------------------------------------------------------------------------

namespace {

/// Calls `fn(label, key, node, value)` for every indexed occurrence, in
/// ascending node order.
template <typename Fn>
void ForEachIndexed(const ElementStore& nodes, const Fn& fn) {
  for (uint32_t n = 0; n < nodes.size(); ++n) {
    for (Symbol label : nodes.Labels(n)) {
      for (Symbol key : nodes.Keys(n)) {
        ValueView value = nodes.ColumnValue(key, n);
        if (value.is_null() ||
            (value.is_double() && std::isnan(value.double_value()))) {
          continue;
        }
        fn(label, key, n, value);
      }
    }
  }
}

}  // namespace

size_t PropertySeedIndex::Hash(Symbol label, Symbol key, ValueView value) {
  size_t h = value.Hash();
  h ^= (static_cast<size_t>(label) + 0x9e3779b97f4a7c15ULL) + (h << 6) +
       (h >> 2);
  h ^= (static_cast<size_t>(key) + 0x517cc1b727220a95ULL) + (h << 6) +
       (h >> 2);
  return h;
}

void PropertySeedIndex::Build(const ElementStore& nodes) {
  // Pass 1 numbers the buckets in first-appearance order and counts their
  // nodes; pass 2 lays each bucket's nodes out as one run.
  auto hash_of = [&](uint32_t b) {
    const Bucket& bucket = buckets_[b];
    return Hash(bucket.label, bucket.key,
                nodes.ColumnValue(bucket.key, bucket.node));
  };
  std::vector<uint32_t> bucket_of;  // Per occurrence.
  ForEachIndexed(nodes, [&](Symbol label, Symbol key, uint32_t node,
                            ValueView value) {
    const uint32_t next = static_cast<uint32_t>(buckets_.size());
    const uint32_t b = table_.Insert(
        Hash(label, key, value), next,
        [&](uint32_t id) {
          const Bucket& bucket = buckets_[id];
          return bucket.label == label && bucket.key == key &&
                 nodes.ColumnValue(key, bucket.node) == value;
        },
        hash_of);
    if (b == next) buckets_.push_back({label, key, node, 0});
    ++buckets_[b].begin;
    bucket_of.push_back(b);
  });
  uint32_t total = 0;
  for (Bucket& bucket : buckets_) {
    const uint32_t count = bucket.begin;
    bucket.begin = total;
    total += count;
  }
  buckets_.push_back({kInvalidSymbol, kInvalidSymbol, kInvalidId, total});
  buckets_.shrink_to_fit();
  std::vector<uint32_t> next(buckets_.size());
  for (size_t b = 0; b < buckets_.size(); ++b) next[b] = buckets_[b].begin;
  ids_.resize(total);
  size_t i = 0;
  ForEachIndexed(nodes, [&](Symbol, Symbol, uint32_t node, ValueView) {
    ids_[next[bucket_of[i++]]++] = node;
  });
}

IdSpan PropertySeedIndex::Lookup(Symbol label, Symbol key, ValueView value,
                                 const ElementStore& nodes) const {
  const uint32_t b =
      table_.Find(Hash(label, key, value), [&](uint32_t id) {
        const Bucket& bucket = buckets_[id];
        return bucket.label == label && bucket.key == key &&
               nodes.ColumnValue(key, bucket.node) == value;
      });
  if (b == IdTable::kNone) return {};
  return IdSpan(ids_.data() + buckets_[b].begin,
                buckets_[b + 1].begin - buckets_[b].begin);
}

}  // namespace gpml
