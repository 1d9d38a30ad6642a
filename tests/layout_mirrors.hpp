// layout_mirrors.hpp — the member sequences the FFQ queues shipped with
// before telemetry, trace and check instrumentation existed.
//
// Each instrumentation suite (test_telemetry, test_trace, test_check)
// static_asserts that its disabled or compiled-out hooks leave every
// queue's sizeof/alignof equal to these mirrors: the hooks add code,
// never data. `T` is the element type; a waitable mirror wraps the
// suite's own spsc_queue type.
#pragma once

#include <atomic>
#include <cstdint>

#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"
#include "ffq/runtime/aligned_buffer.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/runtime/eventcount.hpp"

namespace ffq_test {

template <typename T>
struct spsc_mirror {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<ffq::core::detail::spmc_cell<T, true>> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::int64_t> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::uint64_t gaps_created_;
};

template <typename T>
struct spmc_mirror {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<ffq::core::detail::spmc_cell<T, true>> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::atomic<std::int64_t>> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::uint64_t gaps_created_;
  std::atomic<std::uint64_t> skips_;
};

template <typename T>
struct mpmc_mirror {
  ffq::core::capacity_info cap_;
  ffq::runtime::aligned_array<ffq::core::detail::mpmc_cell<T, true>> cells_;
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_;
  ffq::runtime::padded<std::atomic<std::int64_t>> head_;
  std::atomic<std::int64_t> closed_tail_;
  std::atomic<std::uint64_t> gaps_;
  std::atomic<std::uint64_t> skips_;
};

template <typename SpscQueue>
struct waitable_mirror {
  SpscQueue q_;
  ffq::runtime::eventcount ec_;
};

}  // namespace ffq_test
