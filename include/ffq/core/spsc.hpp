// spsc.hpp — FFQ SPSC specialization.
//
// "The SPSC variant of FFQ removes the need for an atomic increment
// operation" (paper §V-G): with a single consumer, `head` becomes a
// consumer-private counter — no fetch-and-increment, no shared head line.
// Cells keep the (rank, gap) protocol because the producer can still wrap
// around onto a cell whose item the consumer has not consumed yet (the
// buffer-full edge), in which case it skips and announces a gap exactly
// like the SPMC variant — through the same publish loop (ring.hpp).
//
// Used by the application framework (paper §V-A) for the per-consumer
// response queues, and by Fig. 3 (queue-size sweep) and Fig. 8 (SPSC
// single-thread reference line).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "ffq/check/yield.hpp"
#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"
#include "ffq/runtime/backoff.hpp"

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
  bool try_dequeue(T& out) noexcept { return scan(&out, 1) == 1; }

  /// Consumer thread only. Blocking variant; returns false only after
  /// close() once everything produced has been drained.
  bool dequeue(T& out) noexcept { return wait(&out, 1) == 1; }

  /// Consumer thread only. Take up to `max_n` ready items; never waits.
  /// A partial (or empty) batch abandons nothing.
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return scan(out, max_n);
  }

  /// Consumer thread only. Blocking bulk dequeue: returns ≥ 1 items, or
  /// 0 only once closed and drained.
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    if (max_n == 0) return 0;
    const std::size_t n = wait(out, max_n);
    if (n > 0) this->tel_.on_bulk(n);
    return n;
  }

 private:
  // The waitable wrapper funnels its park/wake events into this queue's
  // counter block so one telemetry() call covers the whole stack.
  friend class waitable_spsc_queue<T, Layout, Telemetry, Trace>;

  /// The one cell scan: take up to `max_n` ready items from the
  /// consumer-private head on, advancing past gap ranks; never waits.
  template <typename OutIt>
  std::size_t scan(OutIt out, std::size_t max_n) noexcept {
    std::uint64_t it0 = this->trc_.now();  // per-item begin timestamp
    std::int64_t h = *this->head_;
    std::size_t taken = 0;
    while (taken < max_n) {
      FFQ_CHECK_YIELD();  // scheduling point: one cell-protocol round
      auto& c = this->cells_[this->cap_.template slot<Layout>(h)];
      if (c.rank().load(std::memory_order_acquire) == h) {
        *out = std::move(*c.ptr());
        ++out;
        std::destroy_at(c.ptr());
        c.rank().store(detail::kCellFree, std::memory_order_release);
        this->trc_.on_dequeue(it0, h);
        it0 = this->trc_.now();
        ++h;
        ++taken;
        continue;
      }
      // The gap load and the rank re-check are distinct atomic accesses;
      // the paper's line-29 argument is exactly about what may happen
      // between them, so the checker gets a scheduling point there.
      if (c.gap().load(std::memory_order_acquire) >= h) {
        FFQ_CHECK_YIELD();  // line-29 window: producer may publish h here
        if (c.rank().load(std::memory_order_acquire) != h) {
          this->tel_.on_consumer_skip();
          this->trc_.on_skip(h);
          ++h;  // our rank was skipped; advance past the gap
        }
        continue;  // re-check found our rank after all: take it next round
      }
      break;  // next rank not published yet
    }
    // Remember progress past consumed gaps. Relaxed atomic store: the
    // producer's approx_size() reads head through an atomic_ref.
    std::atomic_ref<std::int64_t>(*this->head_).store(
        h, std::memory_order_relaxed);
    return taken;
  }

  /// The one wait loop: scan until items arrive (≥ 1), or return 0 once
  /// closed and drained.
  template <typename OutIt>
  std::size_t wait(OutIt out, std::size_t max_n) noexcept {
    ffq::runtime::yielding_backoff backoff;
    std::uint64_t pauses = 0;  // flushed once per call, not per pause
    for (;;) {
      const std::size_t n = scan(out, max_n);
      if (n > 0 || drained()) {
        this->tel_.on_backoff_pauses(pauses);
        return n;
      }
      ++pauses;
      if (ffq::telemetry::flush_due(pauses)) {
        this->tel_.on_backoff_pauses(pauses);
        pauses = 0;
      }
      backoff.pause();
    }
  }

  bool drained() const noexcept {
    const std::int64_t closed =
        this->closed_tail_.load(std::memory_order_acquire);
    return closed >= 0 && *this->head_ >= closed;
  }
};

}  // namespace ffq::core
