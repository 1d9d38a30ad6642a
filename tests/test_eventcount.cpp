// Tests for the futex-backed event count.
#include "ffq/runtime/eventcount.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "ffq/core/spsc.hpp"

namespace rt = ffq::runtime;

// The park/wake tests sleep to let waiter threads reach the futex; that
// scheduling assumption needs a second hardware thread, and the binary
// runs RUN_SERIAL so parallel ctest jobs don't dilate the sleeps.
#define FFQ_REQUIRE_PARALLEL_HW()                    \
  if (std::thread::hardware_concurrency() < 2)       \
  GTEST_SKIP() << "needs >= 2 hardware threads"

TEST(Eventcount, CancelWaitLeavesNoWaiters) {
  rt::eventcount ec;
  auto key = ec.prepare_wait();
  (void)key;
  EXPECT_EQ(ec.approx_waiters(), 1u);
  ec.cancel_wait();
  EXPECT_EQ(ec.approx_waiters(), 0u);
}

TEST(Eventcount, NotifyWithoutWaitersIsCheap) {
  rt::eventcount ec;
  // Must not crash, must not accumulate state that breaks later waits.
  for (int i = 0; i < 100; ++i) ec.notify_one();
  ec.notify_all();
  SUCCEED();
}

TEST(Eventcount, StaleKeyReturnsImmediately) {
  rt::eventcount ec;
  const auto key = ec.prepare_wait();
  // A notify between prepare and wait invalidates the key; wait() must
  // not block. (Notify observes waiters_ == 1 and bumps the epoch.)
  ec.notify_one();
  const auto t0 = std::chrono::steady_clock::now();
  ec.wait(key);
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration<double>(dt).count(), 1.0);
  EXPECT_EQ(ec.approx_waiters(), 0u);
}

TEST(Eventcount, WakesParkedThread) {
  FFQ_REQUIRE_PARALLEL_HW();
  rt::eventcount ec;
  std::atomic<bool> data{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    for (;;) {
      const auto key = ec.prepare_wait();
      if (data.load(std::memory_order_acquire)) {
        ec.cancel_wait();
        break;
      }
      ec.wait(key);
    }
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(woke.load());
  data.store(true, std::memory_order_release);
  ec.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(Eventcount, NotifyAllWakesEveryone) {
  FFQ_REQUIRE_PARALLEL_HW();
  rt::eventcount ec;
  constexpr int kWaiters = 4;
  std::atomic<bool> go{false};
  std::atomic<int> awake{0};
  std::vector<std::thread> ts;
  for (int i = 0; i < kWaiters; ++i) {
    ts.emplace_back([&] {
      for (;;) {
        const auto key = ec.prepare_wait();
        if (go.load(std::memory_order_acquire)) {
          ec.cancel_wait();
          break;
        }
        ec.wait(key);
      }
      awake.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  go.store(true, std::memory_order_release);
  ec.notify_all();
  for (auto& t : ts) t.join();
  EXPECT_EQ(awake.load(), kWaiters);
}

TEST(Eventcount, ProducerConsumerHandoffLoop) {
  // The canonical usage pattern under churn: no lost wake-ups allowed.
  rt::eventcount ec;
  std::atomic<int> available{0};
  constexpr int kItems = 20000;
  std::thread consumer([&] {
    int got = 0;
    while (got < kItems) {
      int cur = available.load(std::memory_order_acquire);
      if (cur > 0 &&
          available.compare_exchange_strong(cur, cur - 1,
                                            std::memory_order_acq_rel)) {
        ++got;
        continue;
      }
      const auto key = ec.prepare_wait();
      if (available.load(std::memory_order_acquire) > 0) {
        ec.cancel_wait();
        continue;
      }
      ec.wait(key);
    }
  });
  for (int i = 0; i < kItems; ++i) {
    available.fetch_add(1, std::memory_order_acq_rel);
    ec.notify_one();
  }
  consumer.join();
  EXPECT_EQ(available.load(), 0);
}

// Regression: a notify after an enqueue must wake a consumer whose
// re-check under prepare_wait missed that item. Each round races the
// producer's enqueue + notify_one against the consumer's prepare_wait +
// try_dequeue; a consumer that missed the item parks only after the
// producer's notify has returned, so it must find the epoch moved. With
// the waiter check as a plain seq_cst load, the load can pass the
// enqueue's store on x86 (store buffering): the producer reads 0 waiters,
// skips the wake, and the consumer parks for good. The watchdog releases
// (and counts) a consumer parked for more than 100 ms.
TEST(Eventcount, NotifyAfterEnqueueWakesAConsumerThatMissedTheItem) {
  FFQ_REQUIRE_PARALLEL_HW();
  using clock = std::chrono::steady_clock;
  constexpr int kRounds = 5'000'000;
  rt::eventcount ec;
  ffq::core::spsc_queue<int> q(2);
  std::atomic<int> go{0}, checked{0}, parked{0}, lost{0};
  std::atomic<bool> stop{false};

  std::thread producer([&] {
    for (int r = 1; r <= kRounds; ++r) {
      while (go.load(std::memory_order_acquire) < r) {
        if (stop.load(std::memory_order_relaxed)) return;
      }
      q.enqueue(r);
      ec.notify_one();
      checked.store(r, std::memory_order_release);
    }
  });
  std::thread watchdog([&] {
    int seen = 0;
    auto since = clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const int p = parked.load(std::memory_order_acquire);
      if (p == 0 || p != seen) {
        seen = p;
        since = clock::now();
      } else if (clock::now() - since > std::chrono::milliseconds(100)) {
        lost.fetch_add(1);
        seen = 0;
        ec.notify_all();
      }
    }
  });

  const auto deadline = clock::now() + std::chrono::seconds(4);
  int rounds = 0;
  bool in_order = true;
  for (int r = 1; r <= kRounds && lost.load() == 0; ++r) {
    if ((r & 1023) == 0 && clock::now() > deadline) break;
    go.store(r, std::memory_order_release);
    const auto key = ec.prepare_wait();
    int v = 0;
    if (q.try_dequeue(v)) {
      ec.cancel_wait();
    } else {
      while (checked.load(std::memory_order_acquire) < r) {
      }
      parked.store(r, std::memory_order_release);
      ec.wait(key);
      parked.store(0, std::memory_order_release);
      while (!q.try_dequeue(v)) {
      }
    }
    in_order = in_order && v == r;
    rounds = r;
  }
  stop.store(true);
  producer.join();
  watchdog.join();
  EXPECT_EQ(lost.load(), 0) << "lost wake-up after " << rounds << " rounds";
  EXPECT_TRUE(in_order);
  EXPECT_GT(rounds, 0);
}
