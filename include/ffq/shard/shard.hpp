// shard.hpp — ffq::shard::fabric: a multi-producer queue fabric composed
// of single-producer FFQ^s shards (DESIGN.md §11).
//
// FFQ^m buys multi-producer generality with a double-word CAS on every
// enqueue (paper §III-B) and loses dequeue lock-freedom to stalled
// producer reservations. The standard escape hatch — Jiffy's
// producer-private buffer lists, FastFlow's SPSC composition — is to give
// every producer its *own* cheap queue and move the multiplexing to the
// consumer side. The fabric does exactly that with the paper's own fast
// path:
//
//   * producer p owns shard p, a plain FFQ^s (spmc_queue): enqueue is the
//     paper's wait-free Algorithm 1 path — no DWCAS, no producer-producer
//     cache-line contention, no -2 reservation a consumer can park behind;
//   * unordered mode packs items into *runs*: one cell carries a count and
//     up to kRunWidth items of one producer (five 8-byte items, so an
//     aligned cell is still one 64-byte line). A bulk enqueue of n items
//     publishes ceil(n / kRunWidth) cells, a scalar enqueue a run of one;
//   * consumers run a shard scheduler: round-robin over shards with a
//     per-visit drain quota, claiming through the ring's try claim (one
//     head CAS claims a whole run of cells), plus a steal pass — when
//     the cursor's shard runs dry the consumer jumps to the busiest shard
//     (by approx_size) instead of blindly walking the ring. A claim only
//     takes ranks; the handle reads its claimed cells on demand, straight
//     into the caller's buffer, across as many calls as the buffers need
//     (Algorithm 1 allows any delay between a claim and its read). When a
//     buffer ends inside a run, the rest of that run (at most K - 1 items)
//     waits in the handle's inline *leftover*;
//   * Ordered mode stamps every item with an epoch drawn from a shared
//     relaxed counter (one fetch_add per enqueue — still far cheaper than
//     FFQ^m's DWCAS claim protocol, and uncontended in the common case
//     because it is the *only* shared producer-side line) and consumers
//     merge shard streams by epoch through per-shard holding slots. It
//     keeps one item per cell.
//
// Ordering contract:
//   * per-producer FIFO holds in both modes for every consumer stream —
//     each shard is FIFO per producer, the scheduler never reorders
//     within a shard, and a handle returns its leftover, then its claimed
//     cells in rank order, before it claims again. One exception: items a
//     destroyed handle still held (leftover, claimed cells, merge slots) are
//     handed back to the fabric and delivered by any handle's next call,
//     so a handed-back item may follow a later item of the same producer
//     in the stream that receives it;
//   * unordered mode makes no cross-producer promise (like FFQ^m under
//     concurrent producers, where arrival order is whatever the tail FAA
//     says);
//   * ordered mode additionally emits, per consumer, items in epoch order
//     among the items that consumer *holds* — and on a closed fabric a
//     single consumer drains in exact global epoch order (a k-way merge
//     of epoch-sorted shard streams). Live runs are best-effort: an epoch
//     enqueued later to an empty-looking shard can be emitted after a
//     larger epoch already handed out.
//
// The fabric is not linearizable to a single FIFO queue — that is the
// point; it trades the global order FFQ^m also does not really give you
// (under producer concurrency) for wait-free enqueue at producer scale.
//
// Instrumentation threads through the same policy stack as the queues:
// telemetry (fabric_counters: steals / empty polls / drain batches, plus
// every shard's own queue_counters), trace (shard_steal / empty_sweep
// instants on top of the shards' records), and FFQ_CHECK_YIELD points in
// the scheduler so the deterministic checker interleaves scheduling
// decisions (model machine: model/shard_sched.hpp). With every policy
// disabled the layout is byte-identical to the uninstrumented fabric
// (mirror static_asserts in tests/test_shard.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <list>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "ffq/check/yield.hpp"
#include "ffq/core/layout.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/telemetry/shard_counters.hpp"
#include "ffq/trace/tracer.hpp"

namespace ffq::shard {

namespace detail {

/// Ordered-mode item wrapper: the producer-stamped epoch travels through
/// the shard next to the value.
template <typename T>
struct stamped {
  std::uint64_t epoch = 0;
  T value{};
};

/// Input iterator that stamps consecutive epochs onto a wrapped range —
/// lets enqueue_bulk feed stamped<T> cells without materializing a batch.
template <typename It, typename T>
struct stamping_iterator {
  It it;
  std::uint64_t epoch;

  stamped<T> operator*() const { return {epoch, *it}; }
  stamping_iterator& operator++() {
    ++it;
    ++epoch;
    return *this;
  }
};

/// The shared epoch clock (ordered mode): alone on its line so the only
/// producer-shared state never false-shares with a shard.
struct epoch_clock {
  ffq::runtime::padded<std::atomic<std::uint64_t>> next{0};
};

struct no_epoch {};

/// Bytes a run may take: with a cell's rank and gap words, one 64-byte
/// line.
inline constexpr std::size_t kRunBytes = 48;

/// A run's storage: a count, then room for K items.
template <typename T, std::size_t K>
struct run_slots {
  std::uint32_t count;
  alignas(T) unsigned char items[K * sizeof(T)];
};

/// The largest K >= 1 whose run_slots fit kRunBytes.
template <typename T, std::size_t... K>
constexpr std::size_t widest_run(std::index_sequence<K...>) {
  std::size_t width = 1;
  ((width = sizeof(run_slots<T, K + 1>) <= kRunBytes ? K + 1 : width), ...);
  return width;
}

template <typename T>
inline constexpr std::size_t run_width =
    widest_run<T>(std::make_index_sequence<kRunBytes>{});

/// The `n` items a run is built from: the next `n` of the iterator at
/// `it`, which the run's constructor advances past them.
template <typename It>
struct run_source {
  It* it;
  std::uint32_t n;
};

/// Unordered mode's cell payload: a count and up to kWidth items of one
/// producer, in raw storage (T needs no default constructor). Built in
/// its cell straight from the producer's items, so a run of one costs one
/// item move; its destructor destroys its `count` items.
template <typename T>
class run : run_slots<T, run_width<T>> {
 public:
  static constexpr std::size_t kWidth = run_width<T>;

  /// A run of one: what a scalar enqueue builds in its cell.
  explicit run(T&& item) noexcept {
    this->count = 1;
    std::construct_at(data(), std::move(item));
  }
  template <typename It>
  explicit run(run_source<It> src) noexcept {
    this->count = src.n;
    for (std::uint32_t i = 0; i < src.n; ++i, ++*src.it) {
      std::construct_at(data() + i, std::move(**src.it));
    }
  }
  run(run&& other) noexcept {
    this->count = other.count;
    for (std::uint32_t i = 0; i < this->count; ++i) {
      std::construct_at(data() + i, std::move(other.data()[i]));
    }
  }
  ~run() { std::destroy_n(data(), this->count); }

  std::size_t size() const noexcept { return this->count; }
  T* data() noexcept {
    return std::launder(reinterpret_cast<T*>(this->items));
  }
};

static_assert(run_width<std::uint64_t> == 5);
static_assert(sizeof(ffq::core::detail::spmc_cell<run<std::uint64_t>, true>) ==
                  ffq::runtime::kCacheLineSize,
              "a run of five 8-byte items fills one aligned cell's line");

/// Input iterator over a burst of `left` items from `it`, one run of up
/// to Width items per step: what enqueue_bulk hands the shard, so each
/// run is built in place in its cell. Dereference once per step (the
/// shard's publish loop does): the run it builds advances `it`.
template <typename It, std::size_t Width>
struct packing_iterator {
  It it;
  std::size_t left;

  run_source<It> operator*() noexcept {
    return {&it, static_cast<std::uint32_t>(std::min(left, Width))};
  }
  packing_iterator& operator++() noexcept {
    left -= std::min(left, Width);
    return *this;
  }
};

/// The items of one split run that a consumer handle keeps for its next
/// call: at most N (K - 1, since a read that splits a run has written at
/// least one of its items to the caller), in raw storage, so T needs no
/// default constructor and the handle allocates nothing.
template <typename T, std::size_t N>
class leftover {
 public:
  leftover() noexcept = default;
  leftover(leftover&& other) noexcept : end_(other.end_ - other.pos_) {
    T* from = other.data() + other.pos_;
    for (std::uint32_t i = 0; i < end_; ++i, ++from) {
      std::construct_at(data() + i, std::move(*from));
      std::destroy_at(from);
    }
    other.pos_ = other.end_ = 0;
  }
  leftover& operator=(leftover&&) = delete;
  ~leftover() { std::destroy(data() + pos_, data() + end_); }

  void push(T&& item) noexcept {
    std::construct_at(data() + end_++, std::move(item));
  }
  /// Move up to max_n items to `out`, oldest first.
  template <typename OutIt>
  std::size_t serve(OutIt& out, std::size_t max_n) noexcept {
    const std::size_t n = std::min<std::size_t>(max_n, end_ - pos_);
    T* item = data() + pos_;
    for (T* const last = item + n; item != last; ++item) {
      *out = std::move(*item);
      ++out;
      std::destroy_at(item);
    }
    pos_ += static_cast<std::uint32_t>(n);
    if (pos_ == end_) pos_ = end_ = 0;
    return n;
  }

 private:
  T* data() noexcept { return std::launder(reinterpret_cast<T*>(items_)); }

  alignas(T) unsigned char items_[N * sizeof(T)];
  std::uint32_t pos_ = 0;
  std::uint32_t end_ = 0;
};

/// K = 1 (and ordered mode): a run of one never splits.
template <typename T>
class leftover<T, 0> {
 public:
  void push(T&&) noexcept {}
  template <typename OutIt>
  std::size_t serve(OutIt&, std::size_t) noexcept {
    return 0;
  }
};

/// An unordered shard: an FFQ^s ring of runs.
template <typename T, typename Layout, typename Telemetry, typename Trace>
class run_shard
    : public ffq::core::spmc_queue<run<T>, Layout, Telemetry, Trace> {
  using base = ffq::core::spmc_queue<run<T>, Layout, Telemetry, Trace>;

 public:
  using base::base;

  /// Publish a run of one built in its cell from `item` (producer thread
  /// only): the scalar enqueue, counted as one, not as a bulk call.
  void enqueue_one(T& item) noexcept { this->publish(&item, 1); }

  // The ring's try path in its two parts: a consumer handle claims a run
  // of cells once and reads them on demand across its calls.
  using base::claim_run;
  using base::take_rank;
};

}  // namespace detail

/// The sharded SPMC fabric. One FFQ^s shard per producer; `Ordered`
/// selects epoch-stamped merge fan-in. Layout/Telemetry/Trace forward to
/// every shard (layout policy per shard, as in the scalar queues).
/// Cache-line aligned: every consumer call on every core reads the shard
/// table and the handed-back count, so the object must not share a line
/// with whatever its owner or the allocator places beside it.
template <typename T, bool Ordered = false,
          typename Layout = ffq::core::layout_aligned,
          typename Telemetry = ffq::telemetry::default_policy,
          typename Trace = ffq::trace::default_policy>
class alignas(ffq::runtime::kCacheLineSize) fabric {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "cell publication cannot be rolled back after a throwing move");
  static_assert(!Ordered || std::is_default_constructible_v<T>,
                "ordered mode stages items in per-shard holding slots");

 public:
  using value_type = T;
  using layout_type = Layout;
  using telemetry_policy = Telemetry;
  using trace_policy = Trace;
  using item_type =
      std::conditional_t<Ordered, detail::stamped<T>, detail::run<T>>;
  using shard_type = std::conditional_t<
      Ordered, ffq::core::spmc_queue<item_type, Layout, Telemetry, Trace>,
      detail::run_shard<T, Layout, Telemetry, Trace>>;
  static constexpr bool kOrdered = Ordered;
  /// Items one cell carries: K for an unordered run, 1 when ordered.
  static constexpr std::size_t kRunWidth =
      Ordered ? 1 : detail::run<T>::kWidth;
  static constexpr const char* kName =
      Ordered ? "ffq-shard-ordered" : "ffq-shard";
  /// Max cells an unordered consumer claims from one shard per visit
  /// before the cursor is eligible to move (the scheduler's
  /// fairness/locality trade-off; also the cap on a steal's bite). A cell
  /// holds a run of up to kRunWidth items. A handle keeps the cells it
  /// claimed and has not yet read until its next calls, so an idle handle
  /// occupies up to min(max_n, kDrainQuota) cells of one shard; it
  /// allocates nothing for them. Ordered mode takes one item per merge
  /// step and has no quota.
  static constexpr std::size_t kDrainQuota = 64;

  /// `producers` shards of `shard_capacity` cells each (power of two;
  /// same flow-control assumption per shard as spmc_queue, counted in
  /// cells). Throws std::invalid_argument, before any shard is allocated,
  /// when producers < 1 or shard_capacity is not a power of two >= 2.
  /// Threads are not pinned here: a caller that pins them plans with
  /// plan_shards (placement.hpp).
  fabric(std::size_t producers, std::size_t shard_capacity)
      : shard_capacity_(shard_capacity) {
    if (producers < 1) {
      throw std::invalid_argument("shard fabric: producers must be >= 1");
    }
    if (!ffq::core::capacity_info::valid(shard_capacity)) {
      throw std::invalid_argument(
          "shard fabric: shard_capacity must be a power of two >= 2");
    }
    shards_.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      shards_.push_back(std::make_unique<shard_type>(shard_capacity));
    }
  }

  fabric(const fabric&) = delete;
  fabric& operator=(const fabric&) = delete;

  // --- producer side ------------------------------------------------------

  /// Exclusive endpoint for producer `p`'s shard: exactly one thread may
  /// use a given producer index at a time (the shard is single-producer).
  class producer_handle {
   public:
    void enqueue(T value) noexcept {
      if constexpr (Ordered) {
        FFQ_CHECK_YIELD();  // scheduling point: the epoch draw
        const std::uint64_t e =
            fab_->epoch_.next->fetch_add(1, std::memory_order_relaxed);
        shard_->enqueue(detail::stamped<T>{e, std::move(value)});
      } else {
        shard_->enqueue_one(value);
      }
    }

    /// Enqueue `n` items from `first`. Unordered: packed into
    /// ceil(n / kRunWidth) runs, published with one shard enqueue_bulk.
    template <typename It>
    void enqueue_bulk(It first, std::size_t n) noexcept {
      if constexpr (Ordered) {
        FFQ_CHECK_YIELD();  // scheduling point: the epoch-block draw
        const std::uint64_t e0 =
            fab_->epoch_.next->fetch_add(n, std::memory_order_relaxed);
        detail::stamping_iterator<It, T> it{first, e0};
        shard_->enqueue_bulk(it, n);
      } else {
        shard_->enqueue_bulk(detail::packing_iterator<It, kRunWidth>{first, n},
                             (n + kRunWidth - 1) / kRunWidth);
      }
    }

    std::size_t index() const noexcept { return index_; }

   private:
    friend class fabric;
    producer_handle(fabric* fab, std::size_t index) noexcept
        : fab_(fab), index_(index), shard_(fab->shards_[index].get()) {}

    fabric* fab_;
    std::size_t index_;
    shard_type* shard_;
  };

  producer_handle producer(std::size_t p) noexcept {
    assert(p < shards_.size());
    return producer_handle(this, p);
  }

  // --- consumer side ------------------------------------------------------

  /// A consumer's scheduler state: the round-robin cursor plus, when
  /// unordered, the cells it has claimed but not read and the leftover of
  /// the last run it split, or, when ordered, the per-shard holding slots.
  /// One handle per consumer thread; handles are independent and any
  /// number may run concurrently. Move-constructible only: a copy would
  /// deliver the items a handle holds twice. A handle must not outlive its
  /// fabric; when it is destroyed, the items it still holds (its leftover,
  /// the items of its unread claimed cells, its holding slots) are handed
  /// back to the fabric, and any handle's next call delivers them.
  class consumer_handle {
   public:
    consumer_handle(const consumer_handle&) = delete;
    consumer_handle& operator=(const consumer_handle&) = delete;

    /// A moved-from handle holds nothing; only destroy it.
    consumer_handle(consumer_handle&& other) noexcept
        : fab_(other.fab_),
          cursor_(other.cursor_),
          held_(std::exchange(other.held_, {})),
          claimed_(other.claimed_),
          next_(other.next_),
          end_(std::exchange(other.end_, other.next_)),
          left_(std::move(other.left_)) {}

    ~consumer_handle() { hand_back(); }

    /// Non-blocking single dequeue. Unordered: a one-item drain through
    /// the scheduler. Ordered: refill holding slots, emit the minimum
    /// epoch.
    bool try_dequeue(T& out) noexcept { return try_dequeue_bulk(&out, 1) == 1; }

    /// Non-blocking bulk dequeue. Items handed back by destroyed handles
    /// come first. Unordered: the leftover, then the cells this handle
    /// has claimed but not read, straight into `out`; only when no
    /// claimed cell is left does one shard visit claim up to
    /// min(max_n, kDrainQuota) new cells, which the call reads until
    /// `out` holds max_n items. Ordered: up to max_n items, one merge step
    /// each (kDrainQuota does not apply).
    template <typename OutIt>
    std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
      if (max_n == 0) return 0;
      if (fab_->handed_back_.load(std::memory_order_relaxed) != 0)
          [[unlikely]] {
        if (const std::size_t n = fab_->take_handed_back(out, max_n)) {
          return n;
        }
      }
      if constexpr (Ordered) {
        std::size_t n = 0;
        T v{};
        while (n < max_n && try_dequeue_ordered(v)) {
          *out = std::move(v);
          ++out;
          ++n;
        }
        return n;
      } else {
        return drain_unordered(out, max_n);
      }
    }

    /// Blocking dequeue: spins (with back-off) while the fabric is empty
    /// but open; returns false only once closed and nothing is claimable
    /// by this consumer.
    bool dequeue(T& out) noexcept { return wait(&out, 1) == 1; }

    /// Blocking bulk dequeue: ≥ 1 items, or 0 only once closed and
    /// drained (mirrors the scalar queues' dequeue_bulk contract).
    template <typename OutIt>
    std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
      return max_n == 0 ? 0 : wait(out, max_n);
    }

   private:
    friend class fabric;
    explicit consumer_handle(fabric* fab)
        : fab_(fab),
          cursor_(fab->next_consumer_.fetch_add(1, std::memory_order_relaxed) %
                  fab->shards_.size()) {
      if constexpr (Ordered) held_.resize(fab->shards_.size());
    }

    /// The one blocking loop: poll until ≥ 1 item; once the fabric is
    /// closed, one more sweep decides (items may have been published
    /// between the failed poll and the close observation).
    template <typename OutIt>
    std::size_t wait(OutIt out, std::size_t max_n) noexcept {
      ffq::runtime::yielding_backoff backoff;
      for (;;) {
        if (const std::size_t n = try_dequeue_bulk(out, max_n)) return n;
        if (fab_->closed()) return try_dequeue_bulk(out, max_n);
        backoff.pause();
      }
    }

    /// Unordered drain: the leftover, then the claimed cells; a claim
    /// only once both are gone. A claim whose cells all turn out to be
    /// gaps claims again in the same call, as the ring's own loop does,
    /// so a call returns 0 only when a scheduler pass found nothing. Kept
    /// out of line so the read loop is inlined here once, with the
    /// caller's iterator in a register, rather than twice into the
    /// caller's wait loop.
    template <typename OutIt>
    [[gnu::noinline]] std::size_t drain_unordered(OutIt out,
                                                  std::size_t max_n) noexcept {
      std::size_t n = left_.serve(out, max_n);
      for (;;) {
        if (next_ == end_) {
          if (n > 0) break;
          if (!claim_cells(max_n)) return 0;
        }
        if (n == max_n) break;
        n += read_claimed(out, max_n - n);
      }
      fab_->tel_.on_drain(n);
      return n;
    }

    /// Unordered scheduler: claim up to min(max_n, kDrainQuota) cells of
    /// the cursor's shard (quota-capped bulk claim), steal from the
    /// busiest shard when it is dry, advance the cursor round-robin when
    /// a claim under-fills. False when the pass claimed nothing.
    bool claim_cells(std::size_t max_n) noexcept {
      const std::size_t want = std::min(max_n, kDrainQuota);
      const std::size_t nshards = fab_->shards_.size();
      FFQ_CHECK_YIELD();  // scheduling point: the cursor visit
      if (const std::size_t cells = claim_from(cursor_, want)) {
        if (cells < want) advance();  // shard (nearly) dry: move on next claim
        return true;
      }
      fab_->tel_.on_empty_poll();
      // Steal pass: jump to the busiest shard instead of walking the ring
      // one empty shard at a time.
      std::size_t best = cursor_;
      std::int64_t best_size = 0;
      for (std::size_t i = 1; i < nshards; ++i) {
        const std::size_t s = step_from(cursor_, i, nshards);
        FFQ_CHECK_YIELD();  // scheduling point: one steal-scan probe
        const std::int64_t sz = fab_->shard(s).approx_size();
        if (sz > best_size) {
          best_size = sz;
          best = s;
        }
      }
      if (best_size > 0) {
        FFQ_CHECK_YIELD();  // window: the target may drain before we claim
        if (claim_from(best, want) > 0) {
          cursor_ = best;  // keep draining the stolen shard next claim
          fab_->tel_.on_steal();
          fab_->trc_.on_steal(static_cast<std::int64_t>(best));
          return true;
        }
        fab_->tel_.on_empty_poll();
      }
      advance();
      fab_->tel_.on_empty_sweep();
      fab_->trc_.on_empty_sweep();
      return false;
    }

    /// Claim up to `want` cells of shard `s` without reading them; they
    /// become this handle's claimed cells. Returns how many it claimed.
    std::size_t claim_from(std::size_t s, std::size_t want) noexcept {
      const auto run = fab_->shard(s).template claim_run<true, true>(want);
      claimed_ = s;
      next_ = run.first;
      end_ = run.first + run.size;
      return static_cast<std::size_t>(run.size);
    }

    /// The one loop over claimed cells: read them in rank order into
    /// `out` until it holds `room` more items or no claimed cell is left
    /// (precondition: one is, and room >= 1). The part of a run that does
    /// not fit becomes the leftover. Each item leaves its cell once:
    /// straight to `out`, or to the leftover when the buffer ends inside
    /// its run.
    template <typename OutIt>
    std::size_t read_claimed(OutIt& out, std::size_t room) noexcept {
      auto& shard = fab_->shard(claimed_);
      // Locals, not the members: stores through `out` may alias them (a
      // uint64_t item and an int64_t rank may share storage), which would
      // cost a reload and a store of the rank per cell.
      std::int64_t rank = next_;
      const std::int64_t end = end_;
      std::size_t n = 0;
      do {
        const auto st =
            shard.take_rank(rank, end, [&](detail::run<T>&& r) noexcept {
              T* item = r.data();
              const std::size_t count = r.size();
              if (count > room - n) [[unlikely]] {
                split(r, out, room - n);
                n = room;
                return;
              }
              // Bounded by the constant K as well, so GCC unrolls the copy
              // instead of vectorizing it behind alias checks, which cost
              // runs of one about 20% per item (EXPERIMENTS.md).
              for (std::size_t i = 0; i < kRunWidth && i < count; ++i) {
                *out = std::move(item[i]);
                ++out;
              }
              n += count;
            });
        ++rank;
        // Later ranks are past the final tail too (a try claim never
        // reaches one; kept for the ring's contract).
        if (st == shard_type::rank_state::drained) rank = end;
      } while (rank != end && n < room);
      next_ = rank;
      return n;
    }

    /// The first `fit` items of `r` go to `out`, the rest (at most K - 1)
    /// to the leftover.
    template <typename OutIt>
    void split(detail::run<T>& r, OutIt& out, std::size_t fit) noexcept {
      T* item = r.data();
      for (std::size_t i = 0; i < fit; ++i) {
        *out = std::move(item[i]);
        ++out;
      }
      for (std::size_t i = fit; i < r.size(); ++i) {
        left_.push(std::move(item[i]));
      }
    }

    /// Ordered fan-in: keep one pending item per shard, emit the minimum
    /// epoch among them. Per-producer FIFO is structural (slots refill in
    /// shard order); cross-shard order is exact for co-held items.
    bool try_dequeue_ordered(T& out) noexcept {
      bool any = false;
      std::size_t min_s = 0;
      std::uint64_t min_epoch = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t s = 0; s < held_.size(); ++s) {
        if (!held_[s]) {
          FFQ_CHECK_YIELD();  // scheduling point: one refill probe
          detail::stamped<T> tmp{};
          if (fab_->shard(s).try_dequeue(tmp)) {
            held_[s].emplace(std::move(tmp));
          } else {
            fab_->tel_.on_empty_poll();
          }
        }
        if (held_[s] && held_[s]->epoch < min_epoch) {
          min_epoch = held_[s]->epoch;
          min_s = s;
          any = true;
        }
      }
      if (!any) {
        fab_->tel_.on_empty_sweep();
        fab_->trc_.on_empty_sweep();
        return false;
      }
      out = std::move(held_[min_s]->value);
      held_[min_s].reset();
      fab_->tel_.on_drain(1);
      return true;
    }

    /// Give every item this handle holds to the fabric (cold path: the
    /// handle is being destroyed).
    void hand_back() noexcept {
      std::list<T> items;
      if constexpr (Ordered) {
        // At most one item per shard, so per-producer order is kept.
        for (auto& slot : held_) {
          if (slot) items.push_back(std::move(slot->value));
        }
      } else {
        // The leftover is older than the claimed cells, which are in rank
        // order: per-producer order is kept. A room no claim can fill
        // reads every claimed cell, so nothing is split off.
        auto to_items = std::back_inserter(items);
        left_.serve(to_items, std::numeric_limits<std::size_t>::max());
        if (next_ != end_) {
          read_claimed(to_items, std::numeric_limits<std::size_t>::max());
        }
      }
      if (items.empty()) return;
      // The list is built first: reading a cell has scheduling points
      // (FFQ_CHECK_YIELD), which must not fall inside the lock.
      std::lock_guard<std::mutex> lock(fab_->handed_back_mu_);
      fab_->handed_back_items_.splice(fab_->handed_back_items_.end(), items);
      fab_->handed_back_.store(fab_->handed_back_items_.size(),
                               std::memory_order_relaxed);
    }

    void advance() noexcept {
      cursor_ = step_from(cursor_, 1, fab_->shards_.size());
    }
    static std::size_t step_from(std::size_t s, std::size_t by,
                                 std::size_t n) noexcept {
      return (s + by) % n;
    }

    fabric* fab_;
    std::size_t cursor_;
    /// Ordered mode only: the merge's per-shard pending item.
    std::vector<std::optional<detail::stamped<T>>> held_;
    /// Unordered mode only: ranks [next_, end_) of shard claimed_ are
    /// claimed and not yet read; they occupy their cells until read.
    std::size_t claimed_ = 0;
    std::int64_t next_ = 0;
    std::int64_t end_ = 0;
    /// Unordered mode only: the rest of the last run a read split.
    [[no_unique_address]] detail::leftover<T, kRunWidth - 1> left_;
  };

  /// New consumer endpoint; start cursors rotate so concurrent consumers
  /// spread over shards instead of convoying on shard 0. An unordered
  /// handle allocates nothing (its leftover is inline); an ordered one
  /// allocates its holding slots.
  consumer_handle consumer() { return consumer_handle(this); }

  // --- lifecycle / introspection ------------------------------------------

  /// Close every shard at its current tail. Same precondition as the
  /// scalar queues: every producer's last enqueue has returned.
  void close() noexcept {
    closed_.store(true, std::memory_order_release);
    for (auto& s : shards_) s->close();
  }

  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  std::size_t shards() const noexcept { return shards_.size(); }
  /// Cells per shard.
  std::size_t shard_capacity() const noexcept { return shard_capacity_; }

  shard_type& shard(std::size_t s) noexcept { return *shards_[s]; }
  const shard_type& shard(std::size_t s) const noexcept { return *shards_[s]; }

  /// Racy size estimate across all shards, in cells (monitoring only):
  /// an unordered cell holds up to kRunWidth items. Cells a consumer has
  /// claimed but not read, leftovers and handed-back items are not
  /// counted.
  std::int64_t approx_size() const noexcept {
    std::int64_t total = 0;
    for (const auto& s : shards_) total += s->approx_size();
    return total;
  }

  /// The scheduler's counter block (empty under the disabled policy).
  const ffq::telemetry::fabric_counters<Telemetry>& telemetry()
      const noexcept {
    return tel_;
  }

 private:
  friend class producer_handle;
  friend class consumer_handle;

  using epoch_type =
      std::conditional_t<Ordered, detail::epoch_clock, detail::no_epoch>;

  /// Move up to max_n handed-back items to `out`, oldest first (cold
  /// path: a handle was destroyed while it held items).
  template <typename OutIt>
  std::size_t take_handed_back(OutIt out, std::size_t max_n) noexcept {
    std::lock_guard<std::mutex> lock(handed_back_mu_);
    const std::size_t n = std::min(max_n, handed_back_items_.size());
    for (std::size_t i = 0; i < n; ++i) {
      *out = std::move(handed_back_items_.front());
      ++out;
      handed_back_items_.pop_front();
    }
    handed_back_.store(handed_back_items_.size(), std::memory_order_relaxed);
    if (n > 0) tel_.on_drain(n);
    return n;
  }

  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<shard_type>> shards_;
  std::atomic<std::uint64_t> next_consumer_{0};
  std::atomic<bool> closed_{false};
  // Items destroyed handles held. Only hand_back and take_handed_back
  // touch the list, under the mutex; every drain reads the count with
  // one relaxed load. A list, not a deque: an empty list allocates
  // nothing, so an unused hand-back costs no heap.
  std::atomic<std::size_t> handed_back_{0};
  std::mutex handed_back_mu_;
  std::list<T> handed_back_items_;
  // Ordered mode's shared epoch clock; empty (and address-free) when
  // unordered, so the two modes otherwise share one layout.
  [[no_unique_address]] epoch_type epoch_;
  // Scheduler counters / trace hooks: empty under the disabled policies
  // (mirror static_asserts in tests/test_shard.cpp).
  [[no_unique_address]] ffq::telemetry::fabric_counters<Telemetry> tel_;
  [[no_unique_address]] ffq::trace::queue_tracer<Trace> trc_{kName};
};

}  // namespace ffq::shard
