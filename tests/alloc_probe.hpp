// Heap-allocation probe for the solver tests: counts every operator new in
// the including test binary, so "zero allocations per iteration after
// warm-up" claims are pinned by a test instead of asserted in prose.
//
// Including this header replaces the global operator new/delete family with
// malloc-backed versions that bump a counter. Under ASan/UBSan and TSan the
// probe compiles to a no-op (GECOS_ALLOC_PROBE_ACTIVE 0): the sanitizer
// runtime owns the allocator there, and its own bookkeeping allocations would make
// the counts meaningless anyway. Guard probe assertions with
// GECOS_ALLOC_PROBE_ACTIVE.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GECOS_ALLOC_PROBE_ACTIVE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GECOS_ALLOC_PROBE_ACTIVE 0
#else
#define GECOS_ALLOC_PROBE_ACTIVE 1
#endif
#else
#define GECOS_ALLOC_PROBE_ACTIVE 1
#endif

namespace gecos::test {

/// Number of operator-new calls since process start (0 when the probe is
/// inactive under sanitizers).
inline std::atomic<long> alloc_count{0};

/// Convenience read of the counter.
inline long allocations() { return alloc_count.load(); }

}  // namespace gecos::test

#if GECOS_ALLOC_PROBE_ACTIVE

namespace gecos::test::detail {

/// Shared malloc-backed allocation path of every operator-new replacement.
inline void* probe_alloc(std::size_t n, std::size_t align) {
  ++gecos::test::alloc_count;
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  return p;
}

}  // namespace gecos::test::detail

// Replaceable global allocation functions ([new.delete]): throwing and
// nothrow, scalar and array, default- and over-aligned. All route through
// probe_alloc / free.
void* operator new(std::size_t n) {
  void* p = gecos::test::detail::probe_alloc(n, alignof(::max_align_t));
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = gecos::test::detail::probe_alloc(n, static_cast<std::size_t>(a));
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return gecos::test::detail::probe_alloc(n, alignof(::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return gecos::test::detail::probe_alloc(n, alignof(::max_align_t));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // GECOS_ALLOC_PROBE_ACTIVE
