// Liveness of the bulk paths under try_ consumers (DESIGN.md §5.8).
//
// Two shapes that used to wedge a ring without ever breaking safety:
//
//  * publish before stall — a batch larger than the ring. The producer
//    must store `tail` before it waits for a cell, and must wait on a cell
//    holding an item of its own batch instead of sweeping gaps over it;
//    otherwise a try_dequeue_bulk consumer sees tail == head forever and
//    the producer waits for a drain that never comes. When this breaks,
//    the producer never returns, so the suite's short ctest TIMEOUT is
//    what fails it.
//  * bounded try_ claims — two try_dequeue_bulk consumers racing over a
//    burst from a producer that then goes idle (and never closes). A
//    claim sized from a stale head must not land past the tail, where it
//    would wait for ranks the idle producer never writes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

template <typename Queue>
void batch_larger_than_ring_delivers_in_order() {
  constexpr int kItems = 20;
  Queue q(8);
  std::vector<int> got;
  std::thread consumer([&] {
    std::array<int, 4> buf{};
    while (got.size() < static_cast<std::size_t>(kItems)) {
      const std::size_t n = q.try_dequeue_bulk(buf.begin(), buf.size());
      got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(n));
      if (n == 0) std::this_thread::yield();
    }
  });
  std::vector<int> items(kItems);
  std::iota(items.begin(), items.end(), 0);
  q.enqueue_bulk(items.begin(), items.size());
  consumer.join();
  EXPECT_EQ(got, items);
  EXPECT_EQ(q.head_rank(), q.tail_rank());
}

/// `rounds` bursts of 48 items into a 64-cell ring, drained by two
/// try_dequeue_bulk consumers; the producer goes idle after each burst
/// and the queue is never closed during the rounds. Each consumer asks
/// for a whole ring's worth, so both size a claim from the same burst —
/// the race where the second claim used to land entirely past the tail.
template <typename Queue>
void racing_try_claims_never_pass_the_tail(int rounds) {
  constexpr int kBurst = 48;
  constexpr auto kDeadline = std::chrono::seconds(5);
  Queue q(64);
  std::atomic<std::int64_t> delivered{0};
  std::atomic<std::int64_t> checksum{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::array<std::int64_t, 64> buf{};
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t n = q.try_dequeue_bulk(buf.begin(), buf.size());
        for (std::size_t i = 0; i < n; ++i) {
          checksum.fetch_add(buf[i], std::memory_order_relaxed);
        }
        if (n > 0) {
          delivered.fetch_add(static_cast<std::int64_t>(n),
                              std::memory_order_release);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::int64_t> burst(kBurst);
  std::int64_t expected_sum = 0;
  int failed_round = -1;
  for (int r = 0; r < rounds && failed_round < 0; ++r) {
    std::iota(burst.begin(), burst.end(), std::int64_t{r} * kBurst);
    expected_sum += std::accumulate(burst.begin(), burst.end(), std::int64_t{0});
    q.enqueue_bulk(burst.begin(), burst.size());
    const std::int64_t want = std::int64_t{r + 1} * kBurst;
    const auto deadline = clock_type::now() + kDeadline;
    while (delivered.load(std::memory_order_acquire) < want &&
           clock_type::now() < deadline) {
      std::this_thread::yield();
    }
    if (delivered.load(std::memory_order_acquire) != want ||
        q.head_rank() != q.tail_rank()) {
      failed_round = r;
      ADD_FAILURE() << "round " << r << ": delivered "
                    << delivered.load() - std::int64_t{r} * kBurst << " of "
                    << kBurst << ", head " << q.head_rank() << ", tail "
                    << q.tail_rank();
    }
  }
  // close() releases a consumer parked past the tail, so a failing run
  // still joins.
  q.close();
  stop.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();
  if (failed_round < 0) {
    EXPECT_EQ(checksum.load(), expected_sum);
  }
}

}  // namespace

TEST(PublishBeforeStall, SpmcBatchLargerThanRingDeliversInOrder) {
  batch_larger_than_ring_delivers_in_order<ffq::core::spmc_queue<int>>();
}

TEST(PublishBeforeStall, SpscBatchLargerThanRingDeliversInOrder) {
  batch_larger_than_ring_delivers_in_order<ffq::core::spsc_queue<int>>();
}

TEST(BoundedTryClaim, SpmcRacingConsumersNeverPassAnIdleTail) {
  racing_try_claims_never_pass_the_tail<ffq::core::spmc_queue<std::int64_t>>(
      2000);
}

TEST(BoundedTryClaim, MpmcRacingConsumersNeverPassAnIdleTail) {
  racing_try_claims_never_pass_the_tail<ffq::core::mpmc_queue<std::int64_t>>(
      2000);
}
