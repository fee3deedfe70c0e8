#ifndef GPML_GRAPH_CSR_INDEX_H_
#define GPML_GRAPH_CSR_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ast/label_expr.h"
#include "common/value.h"
#include "graph/adjacency.h"
#include "graph/symbol_table.h"

namespace gpml {

/// A contiguous run of adjacency records — the unit the matcher's expansion
/// loop iterates. Obtained either from the full per-node adjacency list or
/// from one of CsrIndex's label partitions.
struct AdjSpan {
  const Adjacency* data = nullptr;
  size_t count = 0;

  const Adjacency* begin() const { return data; }
  const Adjacency* end() const { return data + count; }
  bool empty() const { return count == 0; }

  const Adjacency& operator[](size_t i) const { return data[i]; }
};

/// Label-partitioned CSR adjacency: for every node, the incident-edge
/// records are grouped into buckets by edge-label symbol, so expansion with
/// a known edge label is one contiguous range scan instead of a filter over
/// every incident edge.
///
/// Invariants (checked by tests/csr_index_test.cc):
///  * An edge with k labels contributes one record to k buckets of each
///    endpoint it is incident to; label-less edges appear in no bucket (they
///    can never match a name-bearing label expression).
///  * Within a bucket, records keep the relative order of the full
///    per-node adjacency list. A bucket scan therefore yields successor
///    states in exactly the order a label-filtered scan of the full list
///    would, so the range an edge step scans never changes row order.
///  * Buckets of one node are sorted by label symbol (binary search).
class CsrIndex {
 public:
  void Build(const std::vector<std::vector<Adjacency>>& adjacency,
             const std::vector<uint32_t>& edge_label_offsets,
             const std::vector<Symbol>& edge_label_syms);

  /// The records of `node` whose edge carries `label`; empty span for
  /// unknown labels or label-less partitions.
  AdjSpan Range(uint32_t node, Symbol label) const;

  /// Total records across all buckets (tests, memory accounting).
  size_t num_entries() const { return entries_.size(); }

 private:
  struct Bucket {
    Symbol label = kInvalidSymbol;
    uint32_t begin = 0;  // Into entries_.
    uint32_t end = 0;
  };

  std::vector<uint32_t> node_begin_;  // size nodes+1, into buckets_.
  std::vector<Bucket> buckets_;
  std::vector<Adjacency> entries_;
};

/// A label expression compiled against one graph's symbol table: label names
/// resolve to symbol ids once, and per-element evaluation is bit tests over
/// the element's label bitmask (graphs with <= 64 distinct labels) or binary
/// searches over its sorted symbol array — no string hashing or comparisons
/// in the matcher's hot loop. Compiled once per Program when the engine
/// binds a plan to a graph (see BindProgramToGraph), cached with the plan.
class CompiledLabelPred {
 public:
  /// `use_bits` must be true only when the graph's label universe fits the
  /// 64-bit masks (labels.size() <= 64).
  static CompiledLabelPred Compile(const LabelExprPtr& expr,
                                   const SymbolTable& labels, bool use_bits);

  /// Evaluates against one element's interned label set: `bits` is its
  /// label bitmask (meaningful only when compiled with use_bits), `syms` its
  /// sorted symbol array of `count` entries.
  bool Matches(uint64_t bits, const Symbol* syms, size_t count) const;

 private:
  enum class Kind : uint8_t {
    kAlwaysTrue,  // No label constraint.
    kNever,       // Unsatisfiable (e.g. a name the graph never uses).
    kAllOf,       // (bits & mask) == mask: name or conjunction of names.
    kAnyOf,       // (bits & mask) != 0: disjunction of names, wildcard.
    kGeneral,     // Postfix program over the symbol set (any expression).
  };

  struct Op {
    enum class Code : uint8_t { kTestName, kTestAny, kNot, kAnd, kOr };
    Code code = Code::kTestName;
    Symbol sym = kInvalidSymbol;  // kTestName.
  };

  Kind kind_ = Kind::kAlwaysTrue;
  bool use_bits_ = false;
  uint64_t mask_ = 0;
  std::vector<Op> ops_;  // kGeneral, postfix order.
};

/// Equality seed index: (node-label symbol, property-key symbol, value) ->
/// the nodes carrying that label whose property equals the value, in
/// ascending node-id order (the same relative order label-scan seeding
/// enumerates, which keeps planner-chosen index seeding byte-identical).
/// Values use the engine's structural equality, under which 1 == 1.0 and
/// hashes agree, matching SQL = on non-null literals exactly.
class PropertySeedIndex {
 public:
  void Add(Symbol label, Symbol key, const Value& value, uint32_t node);

  /// Nodes with `label` whose `key` property equals `value`; the empty list
  /// when no node qualifies (which makes an index seed of an absent value a
  /// correct empty seed set, not a fallback).
  const std::vector<uint32_t>& Lookup(Symbol label, Symbol key,
                                      const Value& value) const;

  size_t num_keys() const { return index_.size(); }

 private:
  struct Key {
    Symbol label;
    Symbol key;
    Value value;

    friend bool operator==(const Key& a, const Key& b) {
      return a.label == b.label && a.key == b.key && a.value == b.value;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = k.value.Hash();
      h ^= (static_cast<size_t>(k.label) + 0x9e3779b97f4a7c15ULL) +
           (h << 6) + (h >> 2);
      h ^= (static_cast<size_t>(k.key) + 0x517cc1b727220a95ULL) + (h << 6) +
           (h >> 2);
      return h;
    }
  };

  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> index_;
};

}  // namespace gpml

#endif  // GPML_GRAPH_CSR_INDEX_H_
