// gated_value.hpp — a gap at a known rank, built deterministically.
//
// A payload whose move-*assignment* blocks lets a test freeze a consumer
// inside the dequeue window (between observing its rank and releasing
// the cell) — exactly the "slow consumer" of §III-A. The producer must
// then skip the held cell, announce a gap, and publish in the next free
// cell; a later consumer must follow the gap.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace ffq_test {

struct gate {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
};

struct gated_value {
  int v = 0;
  gate* g = nullptr;  // non-null: block in move-assignment until released

  gated_value() = default;
  gated_value(int value, gate* gt) : v(value), g(gt) {}
  gated_value(gated_value&& o) noexcept : v(o.v), g(o.g) {}
  gated_value& operator=(gated_value&& o) noexcept {
    v = o.v;
    g = o.g;
    if (g != nullptr) {
      g->entered.store(true, std::memory_order_release);
      while (!g->release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    return *this;
  }
};

/// On an empty 4-cell multi-consumer queue `q` (enabled telemetry), leave
/// items 2 and 3 at ranks 2 and 3, a gap at rank 4 and item 4 at rank 5:
/// a consumer frozen inside rank 0's cell makes the producer skip it.
template <typename Queue>
void build_gap_at_rank_4(Queue& q) {
  gate gt;
  q.enqueue(gated_value(0, &gt));      // rank 0 -> cell 0
  q.enqueue(gated_value(1, nullptr));  // rank 1 -> cell 1

  gated_value slow_out;
  std::thread slow([&] {
    ASSERT_TRUE(q.dequeue(slow_out));  // rank 0; stalls inside the cell
  });
  while (!gt.entered.load(std::memory_order_acquire)) std::this_thread::yield();

  gated_value out;
  ASSERT_TRUE(q.dequeue(out));  // rank 1 -> frees cell 1
  EXPECT_EQ(out.v, 1);

  q.enqueue(gated_value(2, nullptr));  // rank 2 -> cell 2
  q.enqueue(gated_value(3, nullptr));  // rank 3 -> cell 3
  ASSERT_EQ(q.gaps_created(), 0u);

  // Free cells: only cell 1. Cell 0 is held by the stalled consumer, so
  // the producer must announce a gap for rank 4 and publish at rank 5.
  q.enqueue(gated_value(4, nullptr));
  EXPECT_EQ(q.gaps_created(), 1u);

  gt.release.store(true, std::memory_order_release);
  slow.join();
  EXPECT_EQ(slow_out.v, 0);
}

/// How a test takes one item: a blocking dequeue, a try_dequeue, or a
/// try_dequeue_bulk of at most one.
enum class take_by { dequeue, try_dequeue, try_dequeue_bulk };

inline constexpr take_by kTakeBy[] = {take_by::dequeue, take_by::try_dequeue,
                                      take_by::try_dequeue_bulk};

inline const char* name_of(take_by how) {
  switch (how) {
    case take_by::dequeue:
      return "dequeue";
    case take_by::try_dequeue:
      return "try_dequeue";
    case take_by::try_dequeue_bulk:
      return "try_dequeue_bulk";
  }
  return "?";
}

template <typename Queue, typename T>
bool take_one(Queue& q, T& out, take_by how) {
  switch (how) {
    case take_by::dequeue:
      return q.dequeue(out);
    case take_by::try_dequeue:
      return q.try_dequeue(out);
    case take_by::try_dequeue_bulk:
      return q.try_dequeue_bulk(&out, 1) == 1;
  }
  return false;
}

/// Drain what build_gap_at_rank_4 left, one item per call taken `how`.
/// A try_ call claims the gap rank 4 as a run of its own, all gaps, so it
/// must claim again (rank 5) instead of reporting an empty queue.
template <typename Queue>
void expect_gap_at_rank_4_skipped(Queue& q, take_by how) {
  gated_value out;
  ASSERT_TRUE(take_one(q, out, how));
  EXPECT_EQ(out.v, 2);
  ASSERT_TRUE(take_one(q, out, how));
  EXPECT_EQ(out.v, 3);
  ASSERT_TRUE(take_one(q, out, how))
      << "an all-gap claim must claim again, not report empty";
  EXPECT_EQ(out.v, 4) << "consumer must skip the gap rank and find item 4";
  EXPECT_GE(q.consumer_skips(), 1u);

  q.close();
  EXPECT_FALSE(take_one(q, out, how));
}

}  // namespace ffq_test
