// Unit, property, and stress tests for ffq::core::spmc_queue (Algorithm 1).
#include "ffq/core/spmc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sweep_drain.hpp"
#include "tail_snapshot.hpp"

using ffq::core::layout_aligned;
using ffq::core::spmc_queue;

TEST(SpmcQueue, SingleConsumerFifo) {
  spmc_queue<int> q(16);
  for (int i = 0; i < 12; ++i) q.enqueue(i);
  int out;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(q.dequeue(out));
    EXPECT_EQ(out, i);
  }
}

TEST(SpmcQueue, ReportsCapacityAndSize) {
  spmc_queue<int> q(64);
  EXPECT_EQ(q.capacity(), 64u);
  EXPECT_EQ(q.approx_size(), 0);
  q.enqueue(1);
  q.enqueue(2);
  EXPECT_EQ(q.approx_size(), 2);
}

TEST(SpmcQueue, CloseUnblocksAllWaitingConsumers) {
  spmc_queue<int> q(16);
  constexpr int kConsumers = 4;
  std::atomic<int> drained{0};
  std::vector<std::thread> cs;
  for (int i = 0; i < kConsumers; ++i) {
    cs.emplace_back([&] {
      int out;
      while (q.dequeue(out)) {
      }
      drained.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(drained.load(), 0);
  q.close();
  for (auto& t : cs) t.join();
  EXPECT_EQ(drained.load(), kConsumers);
}

TEST(SpmcQueue, ItemsEnqueuedBeforeCloseAreDelivered) {
  spmc_queue<int> q(32);
  for (int i = 0; i < 20; ++i) q.enqueue(i);
  q.close();
  std::atomic<int> received{0};
  std::vector<std::thread> cs;
  for (int i = 0; i < 3; ++i) {
    cs.emplace_back([&] {
      int out;
      while (q.dequeue(out)) received.fetch_add(1);
    });
  }
  for (auto& t : cs) t.join();
  EXPECT_EQ(received.load(), 20);
}

// ---------------------------------------------------------------------------
// Deterministic gap test. A payload whose move-*assignment* blocks lets the
// test freeze a consumer inside the dequeue window (between observing its
// rank and releasing the cell) — exactly the "slow consumer" of §III-A.
// The producer must then skip the held cell, announce a gap, and publish
// in the next free cell; a later consumer must follow the gap.
// ---------------------------------------------------------------------------

namespace {

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

}  // namespace

TEST(SpmcQueue, DeterministicGapCreationAndSkip) {
  // Explicit enabled policy: the gap/skip assertions must hold in every
  // build mode, including default FFQ_TELEMETRY=OFF.
  spmc_queue<gated_value, layout_aligned, ffq::telemetry::enabled> q(4);
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

  // Drain: ranks 2, 3 are items; rank 4 is a gap the consumer must skip;
  // rank 5 carries item 4.
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(out.v, 2);
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(out.v, 3);
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(out.v, 4) << "consumer must skip the gap rank and find item 4";
  EXPECT_GE(q.consumer_skips(), 1u);

  q.close();
  EXPECT_FALSE(q.dequeue(out));
}

// ---------------------------------------------------------------------------
// Property sweep: 1 producer × C consumers, exactly-once + conservation +
// per-consumer monotone sequence (rank order implies each consumer sees
// strictly increasing payloads from the single producer). Half of the
// consumers claim runs (sweep_drain.hpp), so every layout sees bulk claims.
// ---------------------------------------------------------------------------

template <typename Layout>
void run_spmc_fanout(std::size_t capacity, int consumers, std::uint64_t items) {
  spmc_queue<std::uint64_t, Layout> q(capacity);
  std::atomic<std::uint64_t> total_count{0};
  std::atomic<std::uint64_t> total_sum{0};
  std::atomic<bool> order_ok{true};

  std::vector<std::thread> cs;
  for (int c = 0; c < consumers; ++c) {
    cs.emplace_back([&, c] {
      std::uint64_t prev = 0;
      bool first = true;
      std::uint64_t count = 0, sum = 0;
      ffq_test::sweep_drain(q, c, [&](std::uint64_t out) {
        if (!first && out <= prev) order_ok.store(false);
        prev = out;
        first = false;
        ++count;
        sum += out;
      });
      total_count.fetch_add(count);
      total_sum.fetch_add(sum);
    });
  }
  for (std::uint64_t i = 1; i <= items; ++i) q.enqueue(i);
  q.close();
  for (auto& t : cs) t.join();

  EXPECT_EQ(total_count.load(), items);
  EXPECT_EQ(total_sum.load(), items * (items + 1) / 2);
  EXPECT_TRUE(order_ok.load()) << "per-consumer dequeue order must be FIFO";
}

class SpmcSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, std::uint64_t>> {};

TEST_P(SpmcSweep, Aligned) {
  auto [cap, consumers, items] = GetParam();
  run_spmc_fanout<ffq::core::layout_aligned>(cap, consumers, items);
}
TEST_P(SpmcSweep, Compact) {
  auto [cap, consumers, items] = GetParam();
  run_spmc_fanout<ffq::core::layout_compact>(cap, consumers, items);
}
TEST_P(SpmcSweep, AlignedRandomized) {
  auto [cap, consumers, items] = GetParam();
  run_spmc_fanout<ffq::core::layout_aligned_randomized>(cap, consumers, items);
}

INSTANTIATE_TEST_SUITE_P(
    Fanout, SpmcSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 64, 1024),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values<std::uint64_t>(8000)),
    [](const auto& info) {
      return "cap" + std::to_string(std::get<0>(info.param)) + "_cons" +
             std::to_string(std::get<1>(info.param)) + "_items" +
             std::to_string(std::get<2>(info.param));
    });

TEST(SpmcQueue, StressManyConsumersTinyCapacity) {
  // Heavy oversubscription on a tiny ring: maximizes wrap-arounds, gaps,
  // and skip races. Conservation is the proof of exactly-once delivery.
  // (Sized for a 2-core CI box: a full ring serializes progress through
  // the scheduler, so item count is deliberately modest.)
  run_spmc_fanout<ffq::core::layout_aligned>(2, 4, 10000);
}

TEST(SpmcQueue, MoveOnlyPayloadAcrossThreads) {
  spmc_queue<std::unique_ptr<std::uint64_t>> q(64);
  constexpr std::uint64_t kItems = 5000;
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> cs;
  for (int c = 0; c < 3; ++c) {
    cs.emplace_back([&] {
      std::unique_ptr<std::uint64_t> out;
      while (q.dequeue(out)) sum.fetch_add(*out);
    });
  }
  for (std::uint64_t i = 1; i <= kItems; ++i) {
    q.enqueue(std::make_unique<std::uint64_t>(i));
  }
  q.close();
  for (auto& t : cs) t.join();
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2);
}

// ---------------------------------------------------------------------------
// Batched operations (DESIGN.md §5.8). dequeue_bulk claims a run of ranks
// with one fetch-and-add; ranks inside the run that turn out to be gaps
// must be dropped in place, and a close() mid-run must surface a partial
// batch rather than blocking.
// ---------------------------------------------------------------------------

TEST(SpmcQueueBulk, TryDequeueIsNonBlocking) {
  spmc_queue<int> q(16);
  int out = -1;
  EXPECT_FALSE(q.try_dequeue(out)) << "empty queue must not block";
  q.enqueue(7);
  q.enqueue(8);
  ASSERT_TRUE(q.try_dequeue(out));
  EXPECT_EQ(out, 7);
  ASSERT_TRUE(q.try_dequeue(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(q.try_dequeue(out));
  q.close();
  EXPECT_FALSE(q.try_dequeue(out));
}

TEST(SpmcQueueBulk, TryDequeueBulkIsNonCommittal) {
  spmc_queue<std::uint64_t> q(16);
  std::uint64_t out[8];
  EXPECT_EQ(q.try_dequeue_bulk(out, 8), 0u) << "empty queue must not block";
  std::uint64_t in[5] = {1, 2, 3, 4, 5};
  q.enqueue_bulk(in, 5);
  ASSERT_EQ(q.try_dequeue_bulk(out, 8), 5u)
      << "returns what is published, never waits for more";
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], i + 1);
  EXPECT_EQ(q.try_dequeue_bulk(out, 8), 0u);
  q.enqueue(6);
  EXPECT_EQ(q.try_dequeue_bulk(out, 0), 0u) << "max_n = 0 claims nothing";
  ASSERT_EQ(q.try_dequeue_bulk(out, 3), 1u);
  EXPECT_EQ(out[0], 6u);
  q.close();
  EXPECT_EQ(q.try_dequeue_bulk(out, 8), 0u);
}

// SIZE_MAX means "take everything": the count must not turn negative in
// the claim's signed arithmetic (it used to claim a single rank).
TEST(SpmcQueueBulk, SizeMaxDrainsEverythingInOneCall) {
  spmc_queue<int> q(128);  // room for all 80, so a short drain fails, not stalls
  for (int i = 0; i < 40; ++i) q.enqueue(i);
  std::vector<int> got;
  EXPECT_EQ(q.try_dequeue_bulk(std::back_inserter(got), SIZE_MAX), 40u);
  for (int i = 40; i < 80; ++i) q.enqueue(i);
  EXPECT_EQ(q.dequeue_bulk(std::back_inserter(got), SIZE_MAX), 40u);
  ASSERT_EQ(got.size(), 80u);
  for (int i = 0; i < 80; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(SpmcQueueBulk, TailSnapshotRefreshRules) {
  spmc_queue<int> q(256);
  ffq_test::expect_tail_snapshot_rules<int>(
      [&](int v) { q.enqueue(v); },
      [&](int* out, std::size_t n) { return q.try_dequeue_bulk(out, n); },
      [&](int& v) { return q.try_dequeue(v); });
}

TEST(SpmcQueueBulk, BulkRoundTripKeepsFifo) {
  spmc_queue<std::uint64_t> q(64);
  std::uint64_t in[32];
  for (std::uint64_t i = 0; i < 32; ++i) in[i] = i;
  q.enqueue_bulk(in, 32);
  std::uint64_t out[8];
  std::uint64_t expect = 0;
  for (int round = 0; round < 4; ++round) {
    ASSERT_EQ(q.dequeue_bulk(out, 8), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], expect++);
  }
  EXPECT_EQ(q.approx_size(), 0);
}

TEST(SpmcQueueBulk, BulkAndScalarInterleaveOnSameQueue) {
  spmc_queue<std::uint64_t> q(32);
  std::uint64_t buf[4] = {0, 1, 2, 3};
  q.enqueue_bulk(buf, 4);
  q.enqueue(4);
  buf[0] = 5;
  buf[1] = 6;
  q.enqueue_bulk(buf, 2);

  std::uint64_t out;
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(out, 0u);
  std::uint64_t bulk_out[3];
  ASSERT_EQ(q.dequeue_bulk(bulk_out, 3), 3u);
  EXPECT_EQ(bulk_out[0], 1u);
  EXPECT_EQ(bulk_out[2], 3u);
  ASSERT_TRUE(q.try_dequeue(out));
  EXPECT_EQ(out, 4u);
  ASSERT_EQ(q.dequeue_bulk(bulk_out, 3), 2u) << "partial batch when drained";
  EXPECT_EQ(bulk_out[0], 5u);
  EXPECT_EQ(bulk_out[1], 6u);
}

TEST(SpmcQueueBulk, DequeueBulkReturnsPartialBatchAtClose) {
  spmc_queue<int> q(16);
  for (int i = 0; i < 5; ++i) q.enqueue(i);
  q.close();
  int out[8];
  std::size_t n = q.dequeue_bulk(out, 8);
  ASSERT_EQ(n, 5u) << "close() must surface the partial batch, not block";
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.dequeue_bulk(out, 8), 0u) << "drained + closed returns 0";
}

TEST(SpmcQueueBulk, DequeueBulkDropsGapInsideClaimedRun) {
  // Same freeze-the-consumer setup as DeterministicGapCreationAndSkip,
  // but the drain happens through one dequeue_bulk whose claimed run
  // [2, 6) covers the gap at rank 4. The gap must be dropped in place —
  // no fresh fetch-and-add — so the call returns the 3 real items.
  // Enabled telemetry policy: the gap/skip assertions must hold in every
  // build mode.
  spmc_queue<gated_value, layout_aligned, ffq::telemetry::enabled> q(4);
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
  q.enqueue(gated_value(4, nullptr));  // gap at rank 4, item at rank 5
  ASSERT_EQ(q.gaps_created(), 1u);

  gt.release.store(true, std::memory_order_release);
  slow.join();
  EXPECT_EQ(slow_out.v, 0);

  gated_value run[8];
  ASSERT_EQ(q.dequeue_bulk(run, 8), 3u)
      << "run [2,6) holds items 2,3,4 plus one gap rank";
  EXPECT_EQ(run[0].v, 2);
  EXPECT_EQ(run[1].v, 3);
  EXPECT_EQ(run[2].v, 4);
  EXPECT_GE(q.consumer_skips(), 1u);

  q.close();
  EXPECT_EQ(q.dequeue_bulk(run, 8), 0u);
}

TEST(SpmcQueueBulk, StressMixedScalarAndBulkConsumers) {
  // Two scalar and two bulk consumers share the ring while the producer
  // alternates enqueue() and enqueue_bulk(). Conservation + per-consumer
  // monotonicity prove the two claim paths compose.
  spmc_queue<std::uint64_t> q(64);
  constexpr std::uint64_t kItems = 60000;
  std::atomic<std::uint64_t> total_count{0};
  std::atomic<std::uint64_t> total_sum{0};
  std::atomic<bool> order_ok{true};

  auto account = [&](std::uint64_t count, std::uint64_t sum) {
    total_count.fetch_add(count);
    total_sum.fetch_add(sum);
  };
  std::vector<std::thread> cs;
  for (int c = 0; c < 2; ++c) {
    cs.emplace_back([&] {
      std::uint64_t out, prev = 0, count = 0, sum = 0;
      while (q.dequeue(out)) {
        if (out <= prev) order_ok.store(false);
        prev = out;
        ++count;
        sum += out;
      }
      account(count, sum);
    });
  }
  for (int c = 0; c < 2; ++c) {
    cs.emplace_back([&] {
      std::uint64_t buf[8];
      std::uint64_t prev = 0, count = 0, sum = 0;
      std::size_t n;
      while ((n = q.dequeue_bulk(buf, 8)) > 0) {
        for (std::size_t i = 0; i < n; ++i) {
          if (buf[i] <= prev) order_ok.store(false);
          prev = buf[i];
          ++count;
          sum += buf[i];
        }
      }
      account(count, sum);
    });
  }

  std::uint64_t next = 1;
  std::uint64_t buf[8];
  bool scalar_round = true;
  while (next <= kItems) {
    scalar_round = !scalar_round;
    if (scalar_round || kItems - next + 1 < 8) {
      q.enqueue(next);
      ++next;
    } else {
      for (std::uint64_t i = 0; i < 8; ++i) buf[i] = next + i;
      q.enqueue_bulk(buf, 8);
      next += 8;
    }
  }
  q.close();
  for (auto& t : cs) t.join();

  EXPECT_EQ(total_count.load(), kItems);
  EXPECT_EQ(total_sum.load(), kItems * (kItems + 1) / 2);
  EXPECT_TRUE(order_ok.load())
      << "each consumer's values must be increasing across bulk batches";
}
