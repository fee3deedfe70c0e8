#ifndef GPML_BENCH_ALLOC_COUNT_H_
#define GPML_BENCH_ALLOC_COUNT_H_

// Counts the process's heap allocations and live heap bytes by replacing
// the global operator new, for benches that pin an exact allocation count
// or byte count. The replacement is defined here, not declared, so include
// this header from exactly one source file of a bench binary (each bench is
// one file). Never include it from bench_util.h, whose other users must
// keep the standard allocator.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace gpml {
namespace bench {

/// Heap allocations made through operator new since the process started.
inline std::atomic<size_t> g_allocations{0};

/// Bytes requested through operator new and not yet deleted. Each block
/// carries its size in a prefix, so the count is exact whatever the
/// allocator does with the block: unlike mallinfo's `uordblks`, it sees
/// blocks malloc maps with mmap.
inline std::atomic<size_t> g_live_bytes{0};

/// The prefix keeps the default new alignment.
constexpr size_t kSizePrefix = alignof(std::max_align_t);

inline void* CountedMalloc(size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(kSizePrefix + (size == 0 ? 1 : size));
  if (block == nullptr) return nullptr;
  *static_cast<size_t*>(block) = size;
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  return static_cast<char*>(block) + kSizePrefix;
}

inline void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kSizePrefix;
  g_live_bytes.fetch_sub(*static_cast<size_t*>(block),
                         std::memory_order_relaxed);
  std::free(block);
}

}  // namespace bench
}  // namespace gpml

// Every allocating form is replaced, so that a sanitizer runtime, which
// brings its own forms, never frees memory this malloc handed out and an
// allocation is counted once in every build type.
void* operator new(size_t size) {
  if (void* p = gpml::bench::CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return gpml::bench::CountedMalloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return gpml::bench::CountedMalloc(size);
}
void operator delete(void* p) noexcept { gpml::bench::CountedFree(p); }
void operator delete[](void* p) noexcept { gpml::bench::CountedFree(p); }
void operator delete(void* p, size_t) noexcept {
  gpml::bench::CountedFree(p);
}
void operator delete[](void* p, size_t) noexcept {
  gpml::bench::CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  gpml::bench::CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  gpml::bench::CountedFree(p);
}

#endif  // GPML_BENCH_ALLOC_COUNT_H_
