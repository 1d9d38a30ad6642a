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
//   * consumers run a shard scheduler: round-robin over shards with a
//     per-visit drain quota, draining through the bulk dequeue path (one
//     head fetch-and-add claims a whole run), plus a steal pass — when
//     the cursor's shard runs dry the consumer jumps to the busiest shard
//     (by approx_size) instead of blindly walking the ring;
//   * Ordered mode stamps every item with an epoch drawn from a shared
//     relaxed counter (one fetch_add per enqueue — still far cheaper than
//     FFQ^m's DWCAS claim protocol, and uncontended in the common case
//     because it is the *only* shared producer-side line) and consumers
//     merge shard streams by epoch through per-shard holding slots.
//
// Ordering contract:
//   * per-producer FIFO holds in both modes for every consumer stream —
//     each shard is FIFO per producer and the scheduler never reorders
//     within a shard;
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
#include <limits>
#include <memory>
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
#include "ffq/shard/placement.hpp"
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

}  // namespace detail

/// Scheduler knobs + advisory placement.
struct options {
  /// Max items a consumer takes from one shard per visit before the
  /// cursor is eligible to move (the scheduler's fairness/locality
  /// trade-off; also the cap on a steal's bite).
  std::size_t drain_quota = 64;
  /// Shard → CPU strategy, computed via runtime::plan_placement. `none`
  /// (default) skips topology discovery entirely.
  ffq::runtime::placement_policy placement =
      ffq::runtime::placement_policy::none;
  /// Topology to plan against; nullptr = discover() when placement is
  /// not `none` (tests pass a synthetic topology).
  const ffq::runtime::cpu_topology* topology = nullptr;
};

/// The sharded SPMC fabric. One FFQ^s shard per producer; `Ordered`
/// selects epoch-stamped merge fan-in. Layout/Telemetry/Trace forward to
/// every shard (layout policy per shard, as in the scalar queues).
template <typename T, bool Ordered = false,
          typename Layout = ffq::core::layout_aligned,
          typename Telemetry = ffq::telemetry::default_policy,
          typename Trace = ffq::trace::default_policy>
class fabric {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "cell publication cannot be rolled back after a throwing move");
  static_assert(!Ordered || std::is_default_constructible_v<T>,
                "ordered mode stages items in per-shard holding slots");

 public:
  using value_type = T;
  using layout_type = Layout;
  using telemetry_policy = Telemetry;
  using trace_policy = Trace;
  using item_type = std::conditional_t<Ordered, detail::stamped<T>, T>;
  using shard_type = ffq::core::spmc_queue<item_type, Layout, Telemetry, Trace>;
  static constexpr bool kOrdered = Ordered;
  static constexpr const char* kName =
      Ordered ? "ffq-shard-ordered" : "ffq-shard";

  /// `producers` shards of `shard_capacity` cells each (power of two;
  /// same flow-control assumption per shard as spmc_queue). Throws
  /// std::invalid_argument, before any shard is allocated, when
  /// producers < 1, shard_capacity is not a power of two >= 2 or
  /// opts.drain_quota is 0 (every visit would then take nothing).
  fabric(std::size_t producers, std::size_t shard_capacity,
         options opts = {})
      : shard_capacity_(shard_capacity), opts_(opts) {
    if (producers < 1) {
      throw std::invalid_argument("shard fabric: producers must be >= 1");
    }
    if (!ffq::core::capacity_info::valid(shard_capacity)) {
      throw std::invalid_argument(
          "shard fabric: shard_capacity must be a power of two >= 2");
    }
    if (opts.drain_quota == 0) {
      throw std::invalid_argument("shard fabric: drain_quota must be >= 1");
    }
    shards_.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      shards_.push_back(std::make_unique<shard_type>(shard_capacity));
    }
    if (opts_.placement != ffq::runtime::placement_policy::none) {
      plan_ = opts_.topology
                  ? plan_shards(*opts_.topology, opts_.placement, producers)
                  : plan_shards(opts_.placement, producers);
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
        shard_->enqueue(std::move(value));
      }
    }

    template <typename It>
    void enqueue_bulk(It first, std::size_t n) noexcept {
      if constexpr (Ordered) {
        FFQ_CHECK_YIELD();  // scheduling point: the epoch-block draw
        const std::uint64_t e0 =
            fab_->epoch_.next->fetch_add(n, std::memory_order_relaxed);
        detail::stamping_iterator<It, T> it{first, e0};
        shard_->enqueue_bulk(it, n);
      } else {
        shard_->enqueue_bulk(first, n);
      }
    }

    std::size_t index() const noexcept { return index_; }

    /// This shard's advisory CPU group (nullptr when the fabric was built
    /// with placement_policy::none).
    const ffq::runtime::group_placement* placement() const noexcept {
      return fab_->placement_of(index_);
    }

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

  /// A consumer's scheduler state: the round-robin cursor (unordered) or
  /// the per-shard holding slots (ordered). One handle per consumer
  /// thread; handles are independent and any number may run concurrently.
  class consumer_handle {
   public:
    /// Non-blocking single dequeue. Unordered: quota-1 drain through the
    /// scheduler. Ordered: refill holding slots, emit the minimum epoch.
    bool try_dequeue(T& out) noexcept {
      if constexpr (Ordered) {
        return try_dequeue_ordered(out);
      } else {
        return try_dequeue_bulk(&out, 1) == 1;
      }
    }

    /// Non-blocking bulk dequeue. Unordered: up to min(max_n, drain_quota)
    /// items from one shard visit. Ordered: up to max_n items, one merge
    /// step each (drain_quota does not apply).
    template <typename OutIt>
    std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
      if (max_n == 0) return 0;
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
    explicit consumer_handle(fabric* fab) noexcept
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

    /// Unordered scheduler: visit the cursor's shard (quota-capped bulk
    /// claim), steal from the busiest shard when it is dry, advance the
    /// cursor round-robin when a visit under-fills.
    template <typename OutIt>
    std::size_t drain_unordered(OutIt out, std::size_t max_n) noexcept {
      const std::size_t want = std::min(max_n, fab_->opts_.drain_quota);
      const std::size_t nshards = fab_->shards_.size();
      FFQ_CHECK_YIELD();  // scheduling point: the cursor visit
      std::size_t n = fab_->shard(cursor_).try_dequeue_bulk(out, want);
      if (n > 0) {
        if (n < want) advance();  // shard (nearly) dry: move on next visit
        fab_->tel_.on_drain(n);
        return n;
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
        n = fab_->shard(best).try_dequeue_bulk(out, want);
        if (n > 0) {
          cursor_ = best;  // keep draining the stolen shard next visit
          fab_->tel_.on_steal();
          fab_->trc_.on_steal(static_cast<std::int64_t>(best));
          fab_->tel_.on_drain(n);
          return n;
        }
        fab_->tel_.on_empty_poll();
      }
      advance();
      fab_->tel_.on_empty_sweep();
      fab_->trc_.on_empty_sweep();
      return 0;
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
  };

  /// New consumer endpoint; start cursors rotate so concurrent consumers
  /// spread over shards instead of convoying on shard 0.
  consumer_handle consumer() noexcept { return consumer_handle(this); }

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
  std::size_t shard_capacity() const noexcept { return shard_capacity_; }

  shard_type& shard(std::size_t s) noexcept { return *shards_[s]; }
  const shard_type& shard(std::size_t s) const noexcept { return *shards_[s]; }

  /// Racy size estimate across all shards (monitoring only).
  std::int64_t approx_size() const noexcept {
    std::int64_t total = 0;
    for (const auto& s : shards_) total += s->approx_size();
    return total;
  }

  /// The advisory placement plan ({} when placement_policy::none).
  const placement_plan& placement() const noexcept { return plan_; }

  /// Shard `p`'s CPU group, or nullptr without a plan.
  const ffq::runtime::group_placement* placement_of(
      std::size_t p) const noexcept {
    return p < plan_.groups.size() ? &plan_.groups[p] : nullptr;
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

  std::size_t shard_capacity_;
  options opts_;
  std::vector<std::unique_ptr<shard_type>> shards_;
  placement_plan plan_;
  std::atomic<std::uint64_t> next_consumer_{0};
  std::atomic<bool> closed_{false};
  // Ordered mode's shared epoch clock; empty (and address-free) when
  // unordered, so the two modes otherwise share one layout.
  [[no_unique_address]] epoch_type epoch_;
  // Scheduler counters / trace hooks: empty under the disabled policies
  // (mirror static_asserts in tests/test_shard.cpp).
  [[no_unique_address]] ffq::telemetry::fabric_counters<Telemetry> tel_;
  [[no_unique_address]] ffq::trace::queue_tracer<Trace> trc_{kName};
};

}  // namespace ffq::shard
