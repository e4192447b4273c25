#ifndef TTRA_TESTS_ALLOC_COUNTER_H_
#define TTRA_TESTS_ALLOC_COUNTER_H_

// Counts the calling thread's calls to the global operator new, for tests
// that assert a step allocates nothing. This header replaces the global
// allocation functions, so include it from one translation unit per test
// binary only.

#include <cstddef>
#include <cstdlib>
#include <new>

namespace ttra::testutil {

inline thread_local size_t allocation_count = 0;

/// Allocations made by `step` on this thread.
template <typename Step>
size_t AllocationsDuring(Step&& step) {
  const size_t before = allocation_count;
  step();
  return allocation_count - before;
}

}  // namespace ttra::testutil

// Out of line, so the compiler never pairs an inlined free() with a new
// expression's allocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++ttra::testutil::allocation_count;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

#endif  // TTRA_TESTS_ALLOC_COUNTER_H_
