// spsc.hpp — FFQ SPSC specialization.
//
// "The SPSC variant of FFQ removes the need for an atomic increment
// operation" (paper §V-G): with a single consumer, `head` becomes a
// consumer-private counter — no fetch-and-increment, no shared head line.
// Cells keep the (rank, gap) protocol because the producer can still wrap
// around onto a cell whose item the consumer has not consumed yet (the
// buffer-full edge), in which case it skips and announces a gap exactly
// like the SPMC variant — through the same publish loop (ring.hpp). The
// consumer resolves each rank through the ring's one consumer step,
// resolve_rank, the same as the multi-consumer queues: a poll stops at
// the first rank not published yet, a blocking call waits on it.
//
// Used by the application framework (paper §V-A) for the per-consumer
// response queues, and by Fig. 3 (queue-size sweep) and Fig. 8 (SPSC
// single-thread reference line).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"

namespace ffq::core {

template <typename T, typename Layout, typename Telemetry, typename Trace>
class waitable_spsc_queue;

template <typename T, typename Layout = layout_aligned,
          typename Telemetry = ffq::telemetry::default_policy,
          typename Trace = ffq::trace::default_policy>
class spsc_queue : public detail::ring<T, detail::spmc_cell_fields, Layout,
                                       std::int64_t, Telemetry, Trace> {
  using base = detail::ring<T, detail::spmc_cell_fields, Layout, std::int64_t,
                            Telemetry, Trace>;

 public:
  static constexpr const char* kName = "ffq-spsc";

  explicit spsc_queue(std::size_t capacity) : base(capacity, kName) {}

  /// Producer thread only. Identical protocol to spmc_queue::enqueue.
  void enqueue(T value) noexcept { this->publish(&value, 1); }

  /// Producer thread only. Enqueue `n` items from `first` with a single
  /// `tail` store for the batch (DESIGN.md §5.8). Blocks only in the
  /// full-ring regime.
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    this->tel_.on_bulk(n);
    this->publish(first, n);
  }

  /// Consumer thread only. Non-blocking: false when no item is ready.
  /// Safe because `head` is consumer-private — an abandoned poll consumes
  /// no rank.
  bool try_dequeue(T& out) noexcept { return scan<false>(&out, 1) == 1; }

  /// Consumer thread only. Blocking variant; returns false only after
  /// close() once everything produced has been drained.
  bool dequeue(T& out) noexcept { return scan<true>(&out, 1) == 1; }

  /// Consumer thread only. Take up to `max_n` ready items; never waits.
  /// A partial (or empty) batch abandons nothing.
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return scan<false>(out, max_n);
  }

  /// Consumer thread only. Blocking bulk dequeue: returns ≥ 1 items, or
  /// 0 only once closed and drained.
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    if (max_n == 0) return 0;
    const std::size_t n = scan<true>(out, max_n);
    if (n > 0) this->tel_.on_bulk(n);
    return n;
  }

 private:
  using typename base::rank_state;

  // The waitable wrapper funnels its park/wake events into this queue's
  // counter block so one telemetry() call covers the whole stack.
  friend class waitable_spsc_queue<T, Layout, Telemetry, Trace>;

  /// The one consumer loop: resolve ranks from the consumer-private head
  /// on through the ring's resolve_rank, taking up to `max_n` items and
  /// advancing past gap ranks, until the next rank is not published yet.
  /// A blocking scan (Wait, max_n >= 1) first waits on its next rank, and
  /// on the ranks after any gaps, until it has taken an item, or returns
  /// 0 once the ring is closed and drained. Always inlined: holding both
  /// resolves, the blocking instantiation is otherwise kept out of line,
  /// which cost bench_batch_ops' batch-1 ffq-spsc row about half its rate.
  template <bool Wait, typename OutIt>
  [[gnu::always_inline]] std::size_t scan(OutIt out,
                                          std::size_t max_n) noexcept {
    const auto sink = [&](T&& v) {
      *out = std::move(v);
      ++out;
    };
    std::int64_t h = *this->head_;
    std::size_t taken = 0;
    if constexpr (Wait) {
      rank_state st;
      while ((st = this->template resolve_rank<true>(h, sink)) ==
             rank_state::skipped) {
        ++h;
      }
      if (st == rank_state::taken) {
        ++h;
        ++taken;
      } else {
        max_n = 0;  // drained: nothing is left to poll
      }
    }
    for (; taken < max_n; ++h) {
      const rank_state st = this->template resolve_rank<false>(h, sink);
      if (st == rank_state::pending) break;
      if (st == rank_state::taken) ++taken;
    }
    // Remember progress past consumed gaps. Relaxed atomic store: the
    // producer's approx_size() reads head through an atomic_ref.
    std::atomic_ref<std::int64_t>(*this->head_).store(
        h, std::memory_order_relaxed);
    return taken;
  }
};

}  // namespace ffq::core
