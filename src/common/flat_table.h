#ifndef GPML_COMMON_FLAT_TABLE_H_
#define GPML_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gpml {

/// A hash table of `Value`s in one flat slot array: open addressing with
/// linear probing at most half full, no node or vector per key. A value
/// carries its key: `Value::Hash()` is the hash it was inserted under, and
/// `same(const Value&)` tells keys of equal hash apart. The slot array is
/// reused across the tables one thread drops and creates (the matcher's,
/// per seed slice): a slot is occupied only when it carries its table's
/// epoch, so taking an array over clears it without zeroing it.
template <typename Value>
class FlatTable {
 public:
  FlatTable() = default;
  ~FlatTable() {
    Pool& pool = ThreadPool();
    if (slots_.size() <= kMaxPooledSlots &&
        slots_.size() > pool.slots.size()) {
      pool.slots = std::move(slots_);
    }
  }
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;

  /// The value stored under `hash` that `same` accepts, else a new one
  /// (`.second` true) the caller fills with its key. Valid until the next
  /// call.
  template <typename Same>
  std::pair<Value*, bool> FindOrInsert(uint64_t hash, const Same& same) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(hash) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s = {Value(), epoch_};
        ++size_;
        return {&s.value, true};
      }
      if (same(static_cast<const Value&>(s.value))) return {&s.value, false};
    }
  }

 private:
  struct Slot {
    Value value = Value();
    uint32_t epoch = 0;  // Occupied iff equal to the owning table's epoch_.
  };
  /// One thread's spare slot array, and the epochs handed out on it.
  struct Pool {
    std::vector<Slot> slots;
    uint32_t epoch = 0;
  };
  /// Arrays above 1 MiB are freed, not kept: such a search costs far more.
  static constexpr size_t kMaxPooledSlots = (size_t{1} << 20) / sizeof(Slot);

  static Pool& ThreadPool() {
    thread_local Pool pool;
    return pool;
  }

  static size_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  void Grow() {
    if (slots_.empty()) {
      // First insert: take over the thread's spare array under a new epoch.
      Pool& pool = ThreadPool();
      slots_ = std::move(pool.slots);
      epoch_ = ++pool.epoch;
      if (epoch_ == 0) {  // Wrapped: no stale slot may look occupied.
        std::fill(slots_.begin(), slots_.end(), Slot());
        epoch_ = ++pool.epoch;
      }
      if (!slots_.empty()) return;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot());
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.epoch != epoch_) continue;
      size_t i = Mix(s.value.Hash()) & mask;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t epoch_ = 0;
};

}  // namespace gpml

#endif  // GPML_COMMON_FLAT_TABLE_H_
