// Unit, property, and stress tests for ffq::core::mpmc_queue (Algorithm 2).
#include "ffq/core/mpmc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gated_value.hpp"
#include "sweep_drain.hpp"
#include "tail_snapshot.hpp"

using ffq::core::mpmc_queue;

TEST(MpmcQueue, SingleThreadFifo) {
  mpmc_queue<int> q(16);
  for (int i = 0; i < 12; ++i) q.enqueue(i);
  int out;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(q.dequeue(out));
    EXPECT_EQ(out, i);
  }
}

TEST(MpmcQueue, WrapAroundKeepsFifo) {
  mpmc_queue<int> q(4);
  int out;
  for (int round = 0; round < 300; ++round) {
    q.enqueue(2 * round);
    q.enqueue(2 * round + 1);
    ASSERT_TRUE(q.dequeue(out));
    ASSERT_EQ(out, 2 * round);
    ASSERT_TRUE(q.dequeue(out));
    ASSERT_EQ(out, 2 * round + 1);
  }
}

TEST(MpmcQueue, CloseUnblocksConsumers) {
  mpmc_queue<int> q(16);
  std::atomic<int> drained{0};
  std::vector<std::thread> cs;
  for (int i = 0; i < 3; ++i) {
    cs.emplace_back([&] {
      int out;
      while (q.dequeue(out)) {
      }
      drained.fetch_add(1);
    });
  }
  q.enqueue(1);
  q.enqueue(2);
  q.close();
  for (auto& t : cs) t.join();
  EXPECT_EQ(drained.load(), 3);
}

TEST(MpmcQueue, DestructorReleasesUnconsumedItems) {
  auto counter = std::make_shared<int>(0);
  struct probe {
    std::shared_ptr<int> c;
    probe() = default;
    explicit probe(std::shared_ptr<int> s) : c(std::move(s)) { ++*c; }
    probe(probe&& o) noexcept = default;
    probe& operator=(probe&& o) noexcept = default;
    ~probe() {
      if (c) --*c;
    }
  };
  {
    mpmc_queue<probe> q(16);
    for (int i = 0; i < 7; ++i) q.enqueue(probe(counter));
    EXPECT_EQ(*counter, 7);
  }
  EXPECT_EQ(*counter, 0);
}

// ---------------------------------------------------------------------------
// Property sweep: P producers × C consumers. Invariants:
//  * conservation (count and checksum of all items),
//  * exactly-once (each tagged item seen exactly once),
//  * per-producer FIFO: for any consumer, items from one producer arrive
//    in that producer's enqueue order... NOTE: with multiple consumers
//    this only holds per consumer; the check below tracks, per consumer,
//    the last sequence number seen from each producer.
// Half of the consumers claim runs (sweep_drain.hpp), so every layout sees
// bulk claims.
// ---------------------------------------------------------------------------

namespace {

/// Item tag: high bits producer id, low bits per-producer sequence.
constexpr std::uint64_t make_tag(std::uint64_t producer, std::uint64_t seq) {
  return (producer << 48) | seq;
}
constexpr std::uint64_t tag_producer(std::uint64_t t) { return t >> 48; }
constexpr std::uint64_t tag_seq(std::uint64_t t) { return t & ((1ULL << 48) - 1); }

}  // namespace

template <typename Layout>
void run_mpmc(std::size_t capacity, int producers, int consumers,
              std::uint64_t items_per_producer) {
  mpmc_queue<std::uint64_t, Layout> q(capacity);
  std::atomic<std::uint64_t> total_count{0};
  std::atomic<bool> order_ok{true};
  std::vector<std::atomic<std::uint8_t>> seen(
      static_cast<std::size_t>(producers) * items_per_producer);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);

  std::vector<std::thread> cs;
  for (int c = 0; c < consumers; ++c) {
    cs.emplace_back([&, c] {
      std::vector<std::int64_t> last_seq(producers, -1);
      std::uint64_t count = 0;
      ffq_test::sweep_drain(q, c, [&](std::uint64_t out) {
        const auto p = tag_producer(out);
        const auto s = tag_seq(out);
        if (static_cast<std::int64_t>(s) <= last_seq[p]) order_ok.store(false);
        last_seq[p] = static_cast<std::int64_t>(s);
        const std::size_t idx = p * items_per_producer + s;
        if (seen[idx].fetch_add(1, std::memory_order_relaxed) != 0) {
          order_ok.store(false);  // duplicate delivery
        }
        ++count;
      });
      total_count.fetch_add(count);
    });
  }

  std::vector<std::thread> ps;
  for (int p = 0; p < producers; ++p) {
    ps.emplace_back([&, p] {
      for (std::uint64_t s = 0; s < items_per_producer; ++s) {
        q.enqueue(make_tag(static_cast<std::uint64_t>(p), s));
      }
    });
  }
  for (auto& t : ps) t.join();
  q.close();
  for (auto& t : cs) t.join();

  EXPECT_EQ(total_count.load(), producers * items_per_producer);
  EXPECT_TRUE(order_ok.load());
  for (const auto& s : seen) {
    ASSERT_EQ(s.load(std::memory_order_relaxed), 1u) << "lost or duplicated item";
  }
}

class MpmcSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, int>> {};

TEST_P(MpmcSweep, Aligned) {
  auto [cap, producers, consumers] = GetParam();
  run_mpmc<ffq::core::layout_aligned>(cap, producers, consumers, 8000);
}
TEST_P(MpmcSweep, Compact) {
  auto [cap, producers, consumers] = GetParam();
  run_mpmc<ffq::core::layout_compact>(cap, producers, consumers, 8000);
}
TEST_P(MpmcSweep, Randomized) {
  auto [cap, producers, consumers] = GetParam();
  run_mpmc<ffq::core::layout_randomized>(cap, producers, consumers, 8000);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MpmcSweep,
    ::testing::Values(std::make_tuple<std::size_t>(64, 1, 1),
                      std::make_tuple<std::size_t>(64, 2, 2),
                      std::make_tuple<std::size_t>(64, 4, 4),
                      std::make_tuple<std::size_t>(4, 2, 2),
                      std::make_tuple<std::size_t>(1024, 4, 1),
                      std::make_tuple<std::size_t>(1024, 1, 4)),
    [](const auto& info) {
      return "cap" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param));
    });

// The "enqueue in the past" regression (paper §III-B): with a tiny ring
// and many producers, a producer that acquired an old rank must never
// publish an item consumers have already skipped (it would be lost).
// Conservation over a long run is the observable invariant.
TEST(MpmcQueue, StressTinyRingManyProducers) {
  run_mpmc<ffq::core::layout_aligned>(2, 4, 4, 5000);
}

TEST(MpmcQueue, GapStatisticsExposed) {
  mpmc_queue<int> q(4);
  // Ordinary traffic: no gaps.
  int out;
  for (int i = 0; i < 16; ++i) {
    q.enqueue(i);
    ASSERT_TRUE(q.dequeue(out));
  }
  EXPECT_EQ(q.gaps_created(), 0u);
  EXPECT_EQ(q.consumer_skips(), 0u);
}

// The SPMC deterministic gap test (gated_value.hpp) on FFQ^m: the
// producer's DWCAS announces the gap over the frozen consumer's cell, and
// every way of taking one item skips it.
TEST(MpmcQueue, DeterministicGapCreationAndSkip) {
  using ffq_test::gated_value;
  for (const auto how : ffq_test::kTakeBy) {
    SCOPED_TRACE(ffq_test::name_of(how));
    mpmc_queue<gated_value, ffq::core::layout_aligned, ffq::telemetry::enabled>
        q(4);
    ffq_test::build_gap_at_rank_4(q);
    ffq_test::expect_gap_at_rank_4_skipped(q, how);
  }
}

// ---------------------------------------------------------------------------
// Batched operations (DESIGN.md §5.8). enqueue_bulk draws rank blocks with
// one fetch-and-add per redraw and keeps per-producer FIFO; dequeue_bulk
// claims a run of ranks in one step. The tagged-item invariants from the
// sweep above carry over unchanged.
// ---------------------------------------------------------------------------

TEST(MpmcQueueBulk, TryDequeueIsNonBlocking) {
  mpmc_queue<int> q(16);
  int out = -1;
  EXPECT_FALSE(q.try_dequeue(out)) << "empty queue must not block";
  q.enqueue(3);
  ASSERT_TRUE(q.try_dequeue(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(q.try_dequeue(out));
  q.close();
  EXPECT_FALSE(q.try_dequeue(out));
}

TEST(MpmcQueueBulk, TryDequeueBulkIsNonCommittal) {
  mpmc_queue<std::uint64_t> q(16);
  std::uint64_t out[8];
  EXPECT_EQ(q.try_dequeue_bulk(out, 8), 0u) << "empty queue must not block";
  std::uint64_t in[6] = {1, 2, 3, 4, 5, 6};
  q.enqueue_bulk(in, 6);
  ASSERT_EQ(q.try_dequeue_bulk(out, 4), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], i + 1);
  ASSERT_EQ(q.try_dequeue_bulk(out, 8), 2u)
      << "returns what is published, never waits for more";
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 6u);
  q.close();
  EXPECT_EQ(q.try_dequeue_bulk(out, 8), 0u);
}

// SIZE_MAX means "take everything": the count must not turn negative in
// the claim's signed arithmetic (it used to claim a single rank).
TEST(MpmcQueueBulk, SizeMaxDrainsEverythingInOneCall) {
  mpmc_queue<int> q(128);  // room for all 80, so a short drain fails, not stalls
  for (int i = 0; i < 40; ++i) q.enqueue(i);
  std::vector<int> got;
  EXPECT_EQ(q.try_dequeue_bulk(std::back_inserter(got), SIZE_MAX), 40u);
  for (int i = 40; i < 80; ++i) q.enqueue(i);
  EXPECT_EQ(q.dequeue_bulk(std::back_inserter(got), SIZE_MAX), 40u);
  ASSERT_EQ(got.size(), 80u);
  for (int i = 0; i < 80; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(MpmcQueueBulk, TailSnapshotRefreshRules) {
  mpmc_queue<int> q(256);
  ffq_test::expect_tail_snapshot_rules<int>(
      [&](int v) { q.enqueue(v); },
      [&](int* out, std::size_t n) { return q.try_dequeue_bulk(out, n); },
      [&](int& v) { return q.try_dequeue(v); });
}

TEST(MpmcQueueBulk, BulkRoundTripAndPartialAtClose) {
  mpmc_queue<std::uint64_t> q(32);
  std::uint64_t in[10];
  for (std::uint64_t i = 0; i < 10; ++i) in[i] = i;
  q.enqueue_bulk(in, 10);
  std::uint64_t out[8];
  ASSERT_EQ(q.dequeue_bulk(out, 8), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  q.close();
  ASSERT_EQ(q.dequeue_bulk(out, 8), 2u)
      << "close() surfaces the partial batch";
  EXPECT_EQ(out[0], 8u);
  EXPECT_EQ(out[1], 9u);
  EXPECT_EQ(q.dequeue_bulk(out, 8), 0u);
}

TEST(MpmcQueueBulk, BulkAndScalarInterleaveOnSameQueue) {
  mpmc_queue<int> q(16);
  const int head[2] = {0, 1};
  q.enqueue_bulk(head, 2);
  q.enqueue(2);
  const int tail[2] = {3, 4};
  q.enqueue_bulk(tail, 2);
  int out;
  int bulk_out[3];
  ASSERT_EQ(q.dequeue_bulk(bulk_out, 3), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(bulk_out[i], i);
  ASSERT_TRUE(q.dequeue(out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(q.try_dequeue(out));
  EXPECT_EQ(out, 4);
}

// Multi-producer bulk stress on a tiny ring: rank blocks from different
// producers interleave, forcing the block dispenser through the gap /
// "enqueue in the past" machinery. Tagged items prove exactly-once and
// per-producer FIFO across bulk batches.
TEST(MpmcQueueBulk, StressBulkProducersAndConsumersConserve) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr std::uint64_t kItemsPerProducer = 12000;
  constexpr std::size_t kBatch = 8;
  mpmc_queue<std::uint64_t> q(8);
  std::atomic<std::uint64_t> total_count{0};
  std::atomic<bool> order_ok{true};
  std::vector<std::atomic<std::uint8_t>> seen(kProducers * kItemsPerProducer);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);

  std::vector<std::thread> cs;
  for (int c = 0; c < kConsumers; ++c) {
    cs.emplace_back([&] {
      std::vector<std::int64_t> last_seq(kProducers, -1);
      std::uint64_t buf[kBatch];
      std::uint64_t count = 0;
      std::size_t n;
      while ((n = q.dequeue_bulk(buf, kBatch)) > 0) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto p = tag_producer(buf[i]);
          const auto s = tag_seq(buf[i]);
          if (static_cast<std::int64_t>(s) <= last_seq[p]) order_ok.store(false);
          last_seq[p] = static_cast<std::int64_t>(s);
          const std::size_t idx = p * kItemsPerProducer + s;
          if (seen[idx].fetch_add(1, std::memory_order_relaxed) != 0) {
            order_ok.store(false);
          }
          ++count;
        }
      }
      total_count.fetch_add(count);
    });
  }
  std::vector<std::thread> ps;
  for (int p = 0; p < kProducers; ++p) {
    ps.emplace_back([&, p] {
      std::uint64_t buf[kBatch];
      for (std::uint64_t s = 0; s < kItemsPerProducer; s += kBatch) {
        for (std::uint64_t i = 0; i < kBatch; ++i) {
          buf[i] = make_tag(static_cast<std::uint64_t>(p), s + i);
        }
        q.enqueue_bulk(buf, kBatch);
      }
    });
  }
  for (auto& t : ps) t.join();
  q.close();
  for (auto& t : cs) t.join();

  EXPECT_EQ(total_count.load(), kProducers * kItemsPerProducer);
  EXPECT_TRUE(order_ok.load());
  for (const auto& s : seen) {
    ASSERT_EQ(s.load(std::memory_order_relaxed), 1u) << "lost or duplicated item";
  }
}
