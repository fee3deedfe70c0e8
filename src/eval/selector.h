#ifndef GPML_EVAL_SELECTOR_H_
#define GPML_EVAL_SELECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ast/ast.h"
#include "common/flat_table.h"
#include "eval/binding.h"

namespace gpml {

/// What a selector has kept so far in one endpoint partition (§5.1): the
/// bindings of one (start node, end node) pair, seen in nondecreasing path
/// length — so a length kept before is the last one kept.
struct SelectorPartition {
  size_t kept = 0;
  uint32_t min_len = 0;   // Length of the first kept binding.
  uint32_t last_len = 0;  // Length of the last kept binding.
  uint32_t groups = 0;    // Distinct lengths kept.
};

/// The partitions of one selector run by endpoint pair, in a flat table
/// keyed exactly on (start << 32 | end).
class SelectorPartitions {
 public:
  SelectorPartition& Of(NodeId start, NodeId end) {
    const uint64_t key = (static_cast<uint64_t>(start) << 32) | end;
    auto [slot, fresh] = table_.FindOrInsert(
        key, [key](const Slot& s) { return s.key == key; });
    if (fresh) slot->key = key;
    return slot->part;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    SelectorPartition part;
    uint64_t Hash() const { return key; }
  };
  FlatTable<Slot> table_;
};

/// The per-partition keep rule of every selector kind (Figure 8): would a
/// binding of length `len`, arriving after everything `part` records, be
/// kept? Pure; SelectorRecordKept commits a kept binding. ApplySelector and
/// the matcher's accept gate both decide through this one rule.
bool SelectorKeeps(const Selector& selector, const SelectorPartition& part,
                   uint32_t len);

/// Records that a binding of length `len` was kept in `part`.
void SelectorRecordKept(SelectorPartition* part, uint32_t len);

/// Applies a selector (Figure 8) to deduplicated path bindings: partitions
/// by endpoint pair (path start/end node) and keeps a finite subset per
/// partition. `bindings` MUST be ordered by nondecreasing path length;
/// within a length, enumeration order resolves the standard's permitted
/// non-determinism (ANY / ANY k / SHORTEST k), making results reproducible.
///
/// Selectors always run after deduplication and after restrictors (§5.1,
/// §6.5).
void ApplySelector(const Selector& selector,
                   std::vector<PathBinding>* bindings);

}  // namespace gpml

#endif  // GPML_EVAL_SELECTOR_H_
