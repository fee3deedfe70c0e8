#ifndef GPML_GRAPH_ELEMENT_STORE_H_
#define GPML_GRAPH_ELEMENT_STORE_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/value.h"
#include "graph/adjacency.h"
#include "graph/id_table.h"
#include "graph/symbol_table.h"

namespace gpml {

/// A view of one element's run of interned symbols: its label set (sorted by
/// symbol id) or its present property keys (sorted by key string).
using SymSpan = Span<Symbol>;

/// One property key's values over one element kind, in the one layout every
/// key uses whatever its values' types: per element a type byte
/// (`ValueType`) and an 8-byte payload (the int64, the double's bits, the
/// bool, or a string's offset and length in the column's byte arena).
/// Elements past the last one written read NULL, so a column holds no
/// padding after its last value.
class PropertyColumn {
 public:
  ValueView Get(uint32_t id) const {
    if (id >= types_.size()) return {};
    const uint64_t p = payloads_[id];
    switch (static_cast<ValueType>(types_[id])) {
      case ValueType::kNull: break;
      case ValueType::kBool: return ValueView::Bool(p != 0);
      case ValueType::kInt: return ValueView::Int(static_cast<int64_t>(p));
      case ValueType::kDouble: {
        double d;
        std::memcpy(&d, &p, sizeof(d));
        return ValueView::Double(d);
      }
      case ValueType::kString:
        return ValueView::String(
            {bytes_.data() + (p >> 32), static_cast<uint32_t>(p)});
    }
    return {};
  }

  /// Writes element `id`'s value; each element is written at most once.
  void Set(uint32_t id, ValueView v);
  void ShrinkToFit();

  /// Starts the cache misses of reading element `id`: its slot, or (once
  /// the slot is in cache) its string bytes.
  void Prefetch(uint32_t id) const {
    if (id >= types_.size()) return;
    __builtin_prefetch(&types_[id]);
    __builtin_prefetch(&payloads_[id]);
  }
  void PrefetchBytes(uint32_t id) const {
    if (id >= types_.size() ||
        static_cast<ValueType>(types_[id]) != ValueType::kString) {
      return;
    }
    __builtin_prefetch(bytes_.data() + (payloads_[id] >> 32));
  }

 private:
  std::vector<uint8_t> types_;
  std::vector<uint64_t> payloads_;
  std::vector<char> bytes_;
};

/// One element kind's names, labels and properties in flat arrays, with no
/// per-element allocation (docs/storage.md). Per element: a name in one
/// byte arena (found again through a flat table of ids hashed over the
/// stored names; unnamed elements are not in it), a run of label symbols
/// (sorted by symbol) and a run of present property-key symbols (sorted by
/// key string), plus one PropertyColumn per key symbol holding the values.
/// GraphBuilder appends as elements are added; Finish sizes the columns and
/// fills the label masks and index.
struct ElementStore {
  std::vector<char> name_bytes;
  std::vector<uint32_t> name_offsets = {0};   // size elements+1.
  IdTable by_name;
  std::vector<uint32_t> label_offsets = {0};  // size elements+1.
  std::vector<Symbol> label_syms;
  std::vector<uint64_t> bits;                 // When <= 64 labels.
  std::vector<uint32_t> key_offsets = {0};    // size elements+1.
  std::vector<Symbol> key_syms;
  std::vector<PropertyColumn> columns;        // [key symbol].
  std::vector<std::vector<uint32_t>> by_label;  // [label symbol] -> ids.

  size_t size() const { return label_offsets.size() - 1; }

  std::string_view Name(uint32_t id) const {
    return {name_bytes.data() + name_offsets[id],
            name_offsets[id + 1] - name_offsets[id]};
  }
  /// The element named `name`, or kInvalidId (always for "").
  uint32_t Find(std::string_view name) const {
    if (name.empty()) return kInvalidId;
    return by_name.Find(HashName(name),
                        [&](uint32_t id) { return Name(id) == name; });
  }
  /// Stores the name of the next element, `id`, and returns `id`, or the
  /// first element already named so.
  uint32_t AddName(uint32_t id, std::string_view name);

  SymSpan Labels(uint32_t id) const {
    return SymSpan(label_syms.data() + label_offsets[id],
                   label_offsets[id + 1] - label_offsets[id]);
  }
  SymSpan Keys(uint32_t id) const {
    return SymSpan(key_syms.data() + key_offsets[id],
                   key_offsets[id + 1] - key_offsets[id]);
  }
  ValueView ColumnValue(Symbol key, uint32_t id) const {
    return columns[key].Get(id);
  }
  IdSpan WithLabel(Symbol s) const {
    return s < by_label.size() ? IdSpan(by_label[s]) : IdSpan();
  }

  /// Drops the builder's spare capacity, sizes the columns to the key
  /// universe and fills `bits` and `by_label`.
  void Finish(size_t num_keys, size_t num_labels);
};

}  // namespace gpml

#endif  // GPML_GRAPH_ELEMENT_STORE_H_
