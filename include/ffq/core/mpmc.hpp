// mpmc.hpp — FFQ^m: the multi-producer extension (paper Algorithm 2).
//
// Differences from FFQ^s (§III-B):
//  * `tail` becomes a shared fetch-and-add ticket dispenser, like `head`.
//  * Producers must exclude one another on a cell. A producer wins a free
//    cell by double-word CAS of the adjacent (rank, gap) pair from
//    (-1, g) to (-2, g): the -2 reservation keeps consumers out (they
//    look for rank == mine ≥ 0) while preventing another producer from
//    claiming the cell or moving `gap` — which closes both races the
//    paper describes (lost update by a sleeping producer; "enqueue in the
//    past" past a moved gap).
//  * Gap announcements also go through the DWCAS, (r, g) → (r, rank), so
//    a gap can never move backwards and can never be installed over a
//    concurrent claim.
//  * Progress: enqueue is lock-free (not wait-free) under the
//    free-slot assumption; dequeue is no longer lock-free because a
//    stalled producer holding a -2 reservation can make consumers of that
//    rank wait (paper §III-B, last paragraph).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "ffq/check/yield.hpp"
#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/dwcas.hpp"

namespace ffq::core {

template <typename T, typename Layout = layout_aligned,
          typename Telemetry = ffq::telemetry::default_policy,
          typename Trace = ffq::trace::default_policy>
class mpmc_queue : public detail::mc_ring<T, detail::mpmc_cell_fields, Layout,
                                          Telemetry, Trace> {
  using base =
      detail::mc_ring<T, detail::mpmc_cell_fields, Layout, Telemetry, Trace>;

 public:
  static constexpr const char* kName = "ffq-mpmc";

  explicit mpmc_queue(std::size_t capacity) : base(capacity, kName) {}

  /// Enqueue one item (any number of producer threads). Lock-free while
  /// the queue has free cells.
  void enqueue(T value) noexcept {
    assert(this->closed_tail_.load(std::memory_order_relaxed) < 0 &&
           "enqueue after close()");
    std::size_t gaps_this_call = 0;
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: before the rank draw
      const std::int64_t rank =
          this->tail_->fetch_add(1, std::memory_order_relaxed);
      if (place_at_rank(rank, value, gaps_this_call)) return;
    }
  }

  /// Enqueue `n` items from `first` (any number of producer threads).
  /// Acquires a *block* of ranks with a single fetch-and-add of `tail`
  /// instead of one per item, then resolves each rank against its cell
  /// with the same DWCAS protocol as enqueue(). Ranks that die inside the
  /// block (another producer's gap covers them, or this call turns them
  /// into gaps) are dropped in place; a fresh block is drawn only when
  /// the current one is exhausted, so the common case pays one FAA per
  /// batch.
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    assert(this->closed_tail_.load(std::memory_order_relaxed) < 0 &&
           "enqueue after close()");
    this->tel_.on_bulk(n);
    std::size_t gaps_this_call = 0;
    std::size_t remaining = n;
    std::int64_t next = 0;
    std::int64_t block_end = 0;  // empty block: forces the first FAA
    while (remaining > 0) {
      T item = *first;  // place_at_rank consumes it only on success
      for (;;) {
        FFQ_CHECK_YIELD();  // scheduling point: before each rank attempt
        if (next == block_end) {
          next = this->tail_->fetch_add(static_cast<std::int64_t>(remaining),
                                  std::memory_order_relaxed);
          block_end = next + static_cast<std::int64_t>(remaining);
          this->tel_.on_rank_block_faa();
        }
        const std::int64_t rank = next++;
        if (place_at_rank(rank, item, gaps_this_call)) break;
      }
      ++first;
      --remaining;
    }
  }

 private:
  /// Try to install `value` at `rank` (Algorithm 2's per-cell races).
  /// True: value moved into the cell and published. False: the rank died
  /// — covered by another producer's gap, or turned into a gap by this
  /// call — and the caller must draw a fresh rank for the same value.
  bool place_at_rank(std::int64_t rank, T& value,
                     std::size_t& gaps_this_call) noexcept {
    const std::uint64_t t0 = this->trc_.now();
    auto& c = this->cells_[this->cap_.template slot<Layout>(rank)];
    ffq::runtime::yielding_backoff backoff;
    // Spin telemetry accumulates in registers and flushes once per
    // return — one RMW per episode, not one per pause. The wait loops
    // below also flush every kFlushEvery pauses so a producer stuck on a
    // full ring stays visible to live snapshots.
    std::uint64_t stalls = 0, pauses = 0, retries = 0;
    bool stall_traced = false;
    const auto flush_waits = [&]() noexcept {
      this->tel_.on_full_stalls(stalls);
      this->tel_.on_backoff_pauses(pauses);
      this->tel_.on_dwcas_retries(retries);
      stalls = pauses = retries = 0;
    };
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: one placement round
      const std::int64_t g = c.gap().load(std::memory_order_acquire);
      if (g >= rank) {
        // Our rank is already "in the past" at this cell (another
        // producer announced a gap covering it): abandon the rank —
        // consumers skip it via the same gap — and draw a fresh one.
        flush_waits();
        return false;
      }
      const std::int64_t r = c.rank().load(std::memory_order_acquire);
      if (r >= 0) {
        if (gaps_this_call >= this->cap_.size() && r < rank) {
          // One full sweep produced only gaps: the ring is full. Stop
          // burning ranks (each dead rank costs every consumer a
          // fetch-add) and wait for this cell to drain; we still hold a
          // valid rank for it. Lock-freedom is already forfeit in this
          // regime (see the class comment on progress).
          //
          // Waiting is only sound while the cell holds an *older* rank
          // (r < ours): consumers reach r before our rank, so the cell
          // drains independently of us. If another producer already
          // published a *later* rank here (r > ours, possible with
          // concurrent producers on a full ring), a consumer may be
          // parked on our rank behind it — waiting would deadlock that
          // consumer, so the gap for our rank must be announced.
          // (Found by the model checker; see tests/test_model.cpp.)
          ++stalls;
          if (!stall_traced) {  // one instant per episode, not per pause
            this->trc_.on_full_stall(rank);
            stall_traced = true;
          }
          if (ffq::telemetry::flush_due(stalls)) flush_waits();
          backoff.pause();
          continue;
        }
        // Occupied by an unconsumed item: announce the gap. The DWCAS
        // fails if the item is consumed or the gap moves concurrently;
        // then re-examine the cell.
        typename ffq::runtime::atomic_i64_pair::value_type expected{r, g};
        if (c.rg.compare_exchange(expected, {r, rank})) {
          this->tel_.on_gap_created();
          this->trc_.on_gap(rank);
          ++gaps_this_call;
          flush_waits();
          return false;  // gap announced for our rank; acquire a new rank
        }
        ++retries;
        this->trc_.on_dwcas_retry(rank);
        continue;
      }
      if (r == detail::kCellFree) {
        // Claim attempt: (-1, g) → (-2, g). Failure means another
        // producer claimed it or a gap moved; re-examine.
        typename ffq::runtime::atomic_i64_pair::value_type expected{
            detail::kCellFree, g};
        if (c.rg.compare_exchange(expected, {detail::kCellReserved, g})) {
          // The -2 reservation is now visible; the window before the
          // publish below is Algorithm 2's non-wait-free wait (and the
          // watchdog's stuck_producer state), so the checker gets a
          // scheduling point inside it.
          FFQ_CHECK_YIELD();
          std::construct_at(c.ptr(), std::move(value));
          FFQ_CHECK_YIELD();  // window between the data write and publication
          c.rank().store(rank, std::memory_order_release);  // publish
          flush_waits();
          this->trc_.on_enqueue(t0, rank);
          return true;
        }
        ++retries;
        this->trc_.on_dwcas_retry(rank);
        continue;
      }
      // r == kCellReserved: another producer is between its claim and
      // its publish; wait for it (this is the non-wait-free window).
      ++pauses;
      if (ffq::telemetry::flush_due(pauses)) flush_waits();
      backoff.pause();
    }
  }
};

}  // namespace ffq::core
