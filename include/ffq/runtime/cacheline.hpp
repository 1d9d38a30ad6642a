// cacheline.hpp — cache-line geometry constants and padding helpers.
//
// FFQ's evaluation (paper §IV-A, Fig. 2) shows that false sharing between
// queue cells is one of the dominant performance effects. Every shared
// structure in this library spells out its cache-line placement through the
// helpers below instead of sprinkling alignas(64) ad hoc.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

namespace ffq::runtime {

/// Size of one cache line in bytes. x86-64 and POWER8 (the paper's two
/// target architectures) both use 64-byte lines at L1/L2; POWER8's L3 uses
/// 128-byte sectors but coherence granularity stays 64.
/// Fixed at 64 rather than std::hardware_destructive_interference_size:
/// the latter varies with -mtune (GCC warns when it leaks into an ABI),
/// and these headers define the on-disk/cross-TU layout of queue cells.
inline constexpr std::size_t kCacheLineSize = 64;

static_assert(kCacheLineSize >= 64, "unexpectedly small cache line");

/// Rounds `n` up to the next multiple of the cache-line size.
constexpr std::size_t round_up_to_line(std::size_t n) noexcept {
  return (n + kCacheLineSize - 1) / kCacheLineSize * kCacheLineSize;
}

/// True if two byte offsets fall into the same cache line.
constexpr bool same_cache_line(std::size_t a, std::size_t b) noexcept {
  return a / kCacheLineSize == b / kCacheLineSize;
}

/// Hint that the line holding `p` will soon be written: fetch it in
/// exclusive state, so a load followed by a store to the line costs one
/// coherence transfer instead of a shared fill plus an upgrade. A hint
/// only — it never faults and has no effect on the program's semantics.
///
/// Inline asm on x86 because builds without -mprfchw (the default for
/// x86-64) compile __builtin_prefetch(p, 1, 3) to the read-intent
/// `prefetcht0`; `prefetchw` decodes as a NOP on CPUs that lack it.
inline void prefetch_for_write(const void* p) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
#elif defined(__aarch64__)
  asm volatile("prfm pstl1keep, %0" : : "Q"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

/// A value of type T alone on its own cache line(s).
///
/// Used for queue head/tail counters and any other single hot variable
/// that must not share a line with its neighbours ("dedicated cache lines"
/// mapping in the paper's terminology).
template <typename T>
struct alignas(kCacheLineSize) padded {
  static_assert(std::is_object_v<T>);

  T value{};

  padded() = default;
  /// In-place construction; also covers non-copyable T (e.g. std::atomic).
  template <typename... Args>
  explicit padded(Args&&... args) : value(static_cast<Args&&>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }

 private:
  // Trailing pad so that sizeof(padded<T>) is a whole number of lines even
  // when T itself is larger than one line.
  char pad_[round_up_to_line(sizeof(T)) - sizeof(T) == 0
                ? kCacheLineSize
                : round_up_to_line(sizeof(T)) - sizeof(T)] = {};
};

}  // namespace ffq::runtime
