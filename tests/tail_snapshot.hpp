// tail_snapshot.hpp — the refresh rules of the tail snapshot that run and
// try_ claims read on the consumers' head line (DESIGN.md §5.8), driven
// single-threaded so each call's count is exact.
//
// A claim sizes itself by `tail_seen` and loads the producer's tail only
// when the snapshot cannot fill the request (tail_seen − head < max_n),
// which includes every "nothing published" answer.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "ffq/core/ring.hpp"
#include "ffq/runtime/cacheline.hpp"

namespace ffq_test {

static_assert(sizeof(ffq::runtime::padded<ffq::core::detail::consumer_line>) ==
                  ffq::runtime::kCacheLineSize,
              "head and tail_seen share one cache line");

/// `enqueue(T)` publishes one item; `try_bulk(T* out, n)` and
/// `try_one(T&)` are the queue's try_dequeue_bulk and try_dequeue. The
/// queue starts empty and holds at least 150 cells.
template <typename T, typename Enqueue, typename TryBulk, typename TryOne>
void expect_tail_snapshot_rules(Enqueue enqueue, TryBulk try_bulk,
                                TryOne try_one) {
  std::vector<T> out(64);
  for (int i = 0; i < 100; ++i) enqueue(i);
  ASSERT_EQ(try_bulk(out.data(), 64), 64u);  // snapshot refreshed to 100
  EXPECT_EQ(out[63], 63);
  for (int i = 100; i < 150; ++i) enqueue(i);
  // The snapshot (100) covers only 36 of the 64 asked: refreshed to 150.
  ASSERT_EQ(try_bulk(out.data(), 64), 64u);
  EXPECT_EQ(out[0], 64);
  EXPECT_EQ(out[63], 127);
  ASSERT_EQ(try_bulk(out.data(), 64), 22u);
  EXPECT_EQ(out[21], 149);

  // Drained: the snapshot equals head. "Empty" is decided on a fresh
  // tail, so one more item is seen at once.
  T v = -1;
  EXPECT_FALSE(try_one(v));
  enqueue(7);
  ASSERT_TRUE(try_one(v)) << "a stale snapshot hid a published item";
  EXPECT_EQ(v, 7);
}

}  // namespace ffq_test
