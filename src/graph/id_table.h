#ifndef GPML_GRAPH_ID_TABLE_H_
#define GPML_GRAPH_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace gpml {

/// A flat open-addressed hash table of `uint32_t` ids whose keys are stored
/// elsewhere: element names in the graph's name arena, symbol names in a
/// symbol table, seed-index buckets in their group records. A slot is just
/// the id, the table is at most half full (8 bytes or less per id), and
/// growing rehashes every id from its stored key through `hash_of(id)`.
/// The caller passes a key's hash and a `same(id)` test for the key.
class IdTable {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// The id whose key `same` accepts, or kNone.
  template <typename Same>
  uint32_t Find(size_t hash, const Same& same) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(hash) & mask;; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (id == kNone || same(id)) return id;
    }
  }

  /// Stores `id` under `hash` and returns it, or returns the id whose key
  /// `same` accepts and stores nothing.
  template <typename Same, typename HashOf>
  uint32_t Insert(size_t hash, uint32_t id, const Same& same,
                  const HashOf& hash_of) {
    if ((size_ + 1) * 2 > slots_.size()) Grow(hash_of);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(hash) & mask;; i = (i + 1) & mask) {
      const uint32_t found = slots_[i];
      if (found == kNone) {
        slots_[i] = id;
        ++size_;
        return id;
      }
      if (same(found)) return found;
    }
  }

 private:
  static size_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  template <typename HashOf>
  void Grow(const HashOf& hash_of) {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, kNone);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id : old) {
      if (id == kNone) continue;
      size_t i = Mix(hash_of(id)) & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<uint32_t> slots_;  // kNone = empty; a power of two in size.
  size_t size_ = 0;
};

inline size_t HashName(std::string_view s) {
  return std::hash<std::string_view>()(s);
}

}  // namespace gpml

#endif  // GPML_GRAPH_ID_TABLE_H_
