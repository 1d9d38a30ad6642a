// run.hpp — the measured-run layer every driver shares: one thread
// scaffold (run_workers) and one stream loop per queue API (run_stream
// for the blocking FFQ family and the shard fabric, run_try_stream for
// the try-API SPSC baselines).
//
// Timing is recorded by the workers themselves (min start / max end): a
// coordinator-side stopwatch can start or stop arbitrarily late when the
// benchmark oversubscribes the machine and the coordinator is not
// scheduled during the run.
//
// Both stream loops check what they delivered — the item count and the
// sum of the values — in every build type, and throw run_failure on a
// mismatch; the report epilogue (report.hpp) turns that into exit 1.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ffq/harness/endpoints.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/barrier.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/runtime/timing.hpp"

namespace ffq::harness {

/// A measured run delivered the wrong items.
struct run_failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A worker's hold on the shared start line and time window.
class worker_clock {
 public:
  worker_clock(ffq::runtime::spin_barrier& b,
               ffq::runtime::time_window_recorder& w, std::size_t slot)
      : barrier_(b), window_(w), slot_(slot) {}

  /// Wait for every worker, then open this worker's window.
  void start() {
    barrier_.arrive_and_wait();
    window_.mark_start(slot_);
  }
  /// Close this worker's window, then wait for every worker. Whatever a
  /// worker does after stop() is untimed and overlaps no measured loop.
  void stop() {
    window_.mark_end(slot_);
    barrier_.arrive_and_wait();
  }

 private:
  ffq::runtime::spin_barrier& barrier_;
  ffq::runtime::time_window_recorder& window_;
  std::size_t slot_;
};

/// Run `body(worker, clock)` on `n` threads. Each body does its untimed
/// set-up, calls clock.start(), runs its measured loop, calls
/// clock.stop(), then tears down. Returns the seconds between the first
/// start() and the last stop(), after every thread has joined.
template <typename Body>
double run_workers(std::size_t n, Body&& body) {
  ffq::runtime::spin_barrier barrier(n + 1);
  ffq::runtime::time_window_recorder window(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    // Each thread calls its own copy of `body`: the loops must not read
    // their captures from the coordinator's stack, which it writes while
    // it waits at the barrier.
    threads.emplace_back([&barrier, &window, body, w] {
      worker_clock clock(barrier, window, w);
      body(w, clock);
    });
  }
  barrier.arrive_and_wait();  // release the start line
  barrier.arrive_and_wait();  // every window is closed
  for (auto& t : threads) t.join();
  return window.seconds();
}

namespace detail {

/// Per-run delivery tally: consumers add what they received.
struct delivery {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};

  void add(std::uint64_t n, std::uint64_t s) {
    count.fetch_add(n, std::memory_order_relaxed);
    sum.fetch_add(s, std::memory_order_relaxed);
  }
  /// Every value 1..items must have arrived exactly once.
  void check(std::uint64_t items) const {
    const std::uint64_t want_sum = items % 2 == 0
                                       ? items / 2 * (items + 1)
                                       : (items + 1) / 2 * items;
    if (count.load() != items || sum.load() != want_sum) {
      throw run_failure("conservation: delivered " +
                        std::to_string(count.load()) + " items (sum " +
                        std::to_string(sum.load()) + "), expected " +
                        std::to_string(items) + " (sum " +
                        std::to_string(want_sum) + ")");
    }
  }
};

}  // namespace detail

/// `producers` threads stream the values 1..(items / producers) *
/// producers, split evenly, through a Queue of `capacity` cells (a
/// fabric of `producers` shards of `capacity` cells) to `consumers`
/// threads over the blocking API. Batches above 1 use enqueue_bulk /
/// dequeue_bulk. Each producer stays below half of its own ring (the
/// paper's implicit flow control); the last one to finish closes the
/// queue. Returns items/second.
template <typename Queue>
double run_stream(std::size_t producers, std::size_t consumers,
                  std::size_t enqueue_batch, std::size_t dequeue_batch,
                  std::uint64_t items, std::size_t capacity) {
  auto q = make_queue<Queue>(producers, capacity);
  const std::uint64_t share = items / producers;
  std::atomic<std::size_t> live_producers{producers};
  detail::delivery got;

  auto worker = [&](std::size_t w, worker_clock& clock) {
    if (w < consumers) {
      auto ep = consumer_endpoint(q);
      std::vector<std::uint64_t> buf(std::max<std::size_t>(dequeue_batch, 1));
      std::uint64_t n = 0, sum = 0;
      clock.start();
      if (dequeue_batch <= 1) {
        std::uint64_t v;
        while (ep.dequeue(v)) {
          ++n;
          sum += v;
        }
      } else {
        std::size_t k;
        while ((k = ep.dequeue_bulk(buf.data(), dequeue_batch)) > 0) {
          n += k;
          for (std::size_t i = 0; i < k; ++i) sum += buf[i];
        }
      }
      clock.stop();
      got.add(n, sum);
      return;
    }
    const std::size_t p = w - consumers;
    auto ep = producer_endpoint(q, p);
    const auto& ring = producer_ring(q, p);
    const auto high_water = static_cast<std::int64_t>(ring.capacity()) / 2;
    std::vector<std::uint64_t> buf(std::max<std::size_t>(enqueue_batch, 1));
    ffq::runtime::yielding_backoff idle;
    const std::uint64_t first = p * share + 1;
    clock.start();
    for (std::uint64_t i = 0; i < share;) {
      if (ring.approx_size() > high_water) {
        idle.pause();
        continue;
      }
      idle.reset();
      if (enqueue_batch <= 1) {
        ep.enqueue(first + i);
        ++i;
      } else {
        const auto chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(enqueue_batch, share - i));
        for (std::size_t k = 0; k < chunk; ++k) buf[k] = first + i + k;
        ep.enqueue_bulk(buf.data(), chunk);
        i += chunk;
      }
    }
    if (live_producers.fetch_sub(1, std::memory_order_acq_rel) == 1) q.close();
    clock.stop();
  };
  const double secs = run_workers(consumers + producers, worker);
  got.check(share * producers);
  return static_cast<double>(share * producers) / secs;
}

/// One producer streams 1..items to one consumer through a try-API
/// queue, with back-off on a full or empty ring. The producer pushes
/// with try_enqueue (FFQ's SPSC enqueue, which has none, is wait-free
/// under flow control) and never resets its back-off, so once the ring
/// has filled a few times it yields instead of hammering the control
/// variables. At stream end it flushes batching queues (flush_producer)
/// so their tail becomes visible. Returns items/second.
template <typename Queue>
double run_try_stream(Queue& q, std::uint64_t items) {
  // Alone on its line: the consumer polls it on every empty try, and the
  // coordinator's spinning stack frame must not share that line.
  ffq::runtime::padded<std::atomic<bool>> done{false};
  detail::delivery got;
  const double secs = run_workers(2, [&](std::size_t w, worker_clock& clock) {
    ffq::runtime::yielding_backoff bo;
    clock.start();
    if (w == 0) {
      std::uint64_t v, n = 0, sum = 0;
      // The stream ends with the last item, or — when one went missing —
      // at the first empty poll after the producer is done, since every
      // item it sent is visible by then.
      for (bool last = false; n < items;) {
        if (q.try_dequeue(v)) {
          ++n;
          sum += v;
          bo.reset();
        } else if (last) {
          break;
        } else if (!(last = done->load(std::memory_order_acquire))) {
          bo.pause();
        }
      }
      clock.stop();
      got.add(n, sum);
      return;
    }
    for (std::uint64_t i = 1; i <= items; ++i) {
      if constexpr (requires { q.try_enqueue(i); }) {
        while (!q.try_enqueue(i)) bo.pause();  // back-off escalates for good
      } else {
        q.enqueue(i);
      }
    }
    if constexpr (requires { q.flush_producer(); }) {
      // BatchQueue's flush fails while the consumer owns the other half.
      if constexpr (std::is_same_v<decltype(q.flush_producer()), bool>) {
        while (!q.flush_producer()) std::this_thread::yield();
      } else {
        q.flush_producer();
      }
    }
    done->store(true, std::memory_order_release);
    clock.stop();
  });
  got.check(items);
  return static_cast<double>(items) / secs;
}

}  // namespace ffq::harness
