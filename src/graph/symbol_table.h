#ifndef GPML_GRAPH_SYMBOL_TABLE_H_
#define GPML_GRAPH_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

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
  Symbol Intern(const std::string& s) {
    // Look up first: emplace would allocate a node even for a known string.
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    Symbol id = static_cast<Symbol>(names_.size());
    ids_.emplace(s, id);
    names_.push_back(s);
    return id;
  }

  /// Id of `s`, or kInvalidSymbol when never interned. A pattern mentioning
  /// a label the graph does not contain resolves to kInvalidSymbol, which
  /// the compiled predicates treat as "matches no element".
  Symbol Find(const std::string& s) const {
    auto it = ids_.find(s);
    return it == ids_.end() ? kInvalidSymbol : it->second;
  }

  const std::string& name(Symbol id) const {
    return names_[static_cast<size_t>(id)];
  }
  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, Symbol> ids_;
  std::vector<std::string> names_;
};

}  // namespace gpml

#endif  // GPML_GRAPH_SYMBOL_TABLE_H_
