// sweep_drain.hpp — how a consumer of the spmc/mpmc layout sweeps drains.
//
// The sweeps run every layout policy, so they are where bulk claims meet
// the non-identity slot maps. Consumer `c` drains one way by its index:
//   * even c: scalar dequeue;
//   * c = 1, 5, ...: try_dequeue_bulk of up to kSweepRun, polling until
//     the queue is closed and nothing is left to claim;
//   * c = 3, 7, ...: blocking dequeue_bulk of up to kSweepRun.
// At capacities 4 and 64 the runs cross the wrap and hold gap ranks.
#pragma once

#include <cstddef>
#include <thread>

namespace ffq_test {

inline constexpr std::size_t kSweepRun = 8;

/// Drain `q` as sweep consumer `c`, calling `take(item)` per item in the
/// order this consumer dequeued them. Returns once closed and drained.
template <typename Queue, typename Take>
void sweep_drain(Queue& q, int c, Take&& take) {
  using value_type = typename Queue::value_type;
  value_type buf[kSweepRun];
  if (c % 2 == 0) {
    while (q.dequeue(buf[0])) take(buf[0]);
  } else if (c % 4 == 1) {
    for (;;) {
      // Closed before an empty try_ claim: every rank is claimed.
      const bool closed = q.closed();
      const std::size_t n = q.try_dequeue_bulk(buf, kSweepRun);
      for (std::size_t i = 0; i < n; ++i) take(buf[i]);
      if (n == 0) {
        if (closed) return;
        std::this_thread::yield();
      }
    }
  } else {
    while (const std::size_t n = q.dequeue_bulk(buf, kSweepRun)) {
      for (std::size_t i = 0; i < n; ++i) take(buf[i]);
    }
  }
}

}  // namespace ffq_test
