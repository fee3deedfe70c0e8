#ifndef GPML_GRAPH_SYMBOL_TABLE_H_
#define GPML_GRAPH_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/id_table.h"

namespace gpml {

/// Dense interned id of a label or property-key string within one
/// PropertyGraph. Ids are assigned in first-intern order starting at 0, so a
/// graph with <= 64 distinct labels can represent any element's label set as
/// a single uint64_t bitmask (see PropertyGraph::node_label_bits).
using Symbol = uint32_t;

inline constexpr Symbol kInvalidSymbol = 0xffffffffu;

/// Interns strings to dense Symbol ids. Filled by GraphBuilder as elements
/// are added and immutable once the graph is built, so lookups are safe
/// from concurrent matcher shards. The engine keeps two instances per graph:
/// one for labels, one for property keys — separate id spaces keep the label
/// universe dense enough for bitset representation.
class SymbolTable {
 public:
  /// Id of `s`, interning it if new.
  Symbol Intern(std::string_view s) {
    Symbol id = Find(s);
    if (id != kInvalidSymbol) return id;
    id = static_cast<Symbol>(names_.size());
    names_.emplace_back(s);
    const std::string& name = names_.back();
    return index_.Insert(HashName(name), id, Same{this, name}, HashOf{this});
  }

  /// Id of `s`, or kInvalidSymbol when never interned. A pattern mentioning
  /// a label the graph does not contain resolves to kInvalidSymbol, which
  /// the compiled predicates treat as "matches no element".
  Symbol Find(std::string_view s) const {
    return index_.Find(HashName(s), Same{this, s});
  }

  const std::string& name(Symbol id) const {
    return names_[static_cast<size_t>(id)];
  }
  size_t size() const { return names_.size(); }

 private:
  struct Same {
    const SymbolTable* table;
    std::string_view name;
    bool operator()(uint32_t id) const { return table->names_[id] == name; }
  };
  struct HashOf {
    const SymbolTable* table;
    size_t operator()(uint32_t id) const {
      return HashName(table->names_[id]);
    }
  };

  std::vector<std::string> names_;
  IdTable index_;
};

static_assert(IdTable::kNone == kInvalidSymbol,
              "a missing name reads as kInvalidSymbol");

}  // namespace gpml

#endif  // GPML_GRAPH_SYMBOL_TABLE_H_
