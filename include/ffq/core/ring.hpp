// ring.hpp — the cell protocol of Algorithm 1, written once for the FFQ
// family (DESIGN.md §5.8).
//
// Every queue in this directory is a power-of-two ring of cells holding
// (rank, gap, data), a producer index `tail`, a consumer index `head` and
// a close watermark. This header holds what they share:
//
//  * the two cells — FFQ^s cells with separate rank/gap words, FFQ^m
//    cells with the pair in one DWCAS unit — behind one field accessor
//    (rank() / gap()), so the protocol code never asks which cell it is;
//  * `ring`: the members, the lifecycle and introspection boilerplate,
//    the one single-producer publish loop (spsc_queue, spmc_queue) and
//    the one consumer step, resolve_rank: take the rank's item, skip the
//    rank on a gap after the line-29 re-check, or wait (the blocking
//    form) or report it pending (the polling form). Every dequeue of the
//    family resolves its ranks here;
//  * `mc_ring`: the one multi-consumer claim, claim_run, and the one take
//    loop that resolves a claimed run and claims again when the whole
//    run was gaps, with the four consumer entry points over them
//    (spmc_queue, mpmc_queue). Scalar calls are the bulk-of-one case.
//    A derived queue may also claim a run with claim_run<true, true>,
//    the try_dequeue_bulk claim, and take its ranks with take_rank at
//    any later time (the shard fabric's consumers, DESIGN.md §11).
//
// Two rules keep the bulk paths live under try_ consumers, which claim
// only ranks below the tail they observe:
//  * publish before stall — the producer stores `tail` before it waits
//    on a full ring, and waits on (instead of announcing a gap over) a
//    cell that holds an item of its own batch. Otherwise try_ consumers
//    see an empty ring that never drains, and the producer waits forever;
//  * bounded try_ claims — try_dequeue / try_dequeue_bulk claim a run by
//    CAS of `head` from the observed h to h + k with k ≤ t − h, where t is
//    a tail the producer has published, so a try_ claim never passes the
//    published tail and never waits on a rank an idle producer will not
//    write. Blocking claims keep the bare fetch-and-add: they are allowed
//    to wait.
//
// Run and try_ claims read t from `tail_seen`, a snapshot of the tail on
// the consumers' own head line, and load the producer's `tail` only when
// the snapshot does not cover a full run — so the producer's tail line
// stays in its cache (MCRingBuffer's cached control variables).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "ffq/check/yield.hpp"
#include "ffq/core/layout.hpp"
#include "ffq/runtime/aligned_buffer.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/cacheline.hpp"
#include "ffq/runtime/dwcas.hpp"
#include "ffq/telemetry/counters.hpp"
#include "ffq/trace/tracer.hpp"

namespace ffq::core::detail {

/// Racy diagnostic view of one cell's control fields, returned by the
/// queues' inspect_rank() for the trace watchdog's post-mortem dumps.
struct cell_probe {
  std::int64_t rank = -1;
  std::int64_t gap = -1;
};

inline constexpr std::int64_t kCellFree = -1;      ///< no item, claimable
inline constexpr std::int64_t kCellReserved = -2;  ///< FFQ^m producer mid-write

/// How many cells ahead of the one it resolves a run claim (k > 1) keeps
/// write-intent prefetches in flight (DESIGN.md §5.8). Swept on ffqbench
/// fanin_bulk (64-item claims, 4 vCPUs; EXPERIMENTS.md): distances 4 to
/// 32 and the whole run up front all read 170–182M items/s, within one
/// run-to-run spread of each other, against 150M without a prefetch; a
/// read-intent prefetch at distance 8 read 151M.
inline constexpr std::int64_t kClaimPrefetchDistance = 8;

/// Cell of the single-producer variants. 24 bytes for 8-byte payloads in
/// the compact layout, one full line when cache-aligned — matching the
/// sizes reported in §V-B.
template <typename T>
struct spmc_cell_fields {
  std::atomic<std::int64_t> rank_{kCellFree};  ///< insertion number
  std::atomic<std::int64_t> gap_{-1};  ///< highest rank skipped at this cell
  alignas(alignof(T)) unsigned char storage[sizeof(T)];

  std::atomic<std::int64_t>& rank() noexcept { return rank_; }
  std::atomic<std::int64_t>& gap() noexcept { return gap_; }
  const std::atomic<std::int64_t>& rank() const noexcept { return rank_; }
  const std::atomic<std::int64_t>& gap() const noexcept { return gap_; }
  T* ptr() noexcept { return std::launder(reinterpret_cast<T*>(storage)); }
};

/// FFQ^m cell: the (rank, gap) pair sits in one 16-byte unit ("placing the
/// rank and gap fields consecutively in the same cache line", §III-B) so
/// a single cmpxchg16b covers both.
template <typename T>
struct mpmc_cell_fields {
  ffq::runtime::atomic_i64_pair rg;  ///< first = rank, second = gap
  alignas(alignof(T)) unsigned char storage[sizeof(T)];

  mpmc_cell_fields() noexcept {
    rg.first.store(kCellFree, std::memory_order_relaxed);
    rg.second.store(-1, std::memory_order_relaxed);
  }

  std::atomic<std::int64_t>& rank() noexcept { return rg.first; }
  std::atomic<std::int64_t>& gap() noexcept { return rg.second; }
  const std::atomic<std::int64_t>& rank() const noexcept { return rg.first; }
  const std::atomic<std::int64_t>& gap() const noexcept { return rg.second; }
  T* ptr() noexcept { return std::launder(reinterpret_cast<T*>(storage)); }
};

template <template <typename> class Fields, typename T, bool CacheAligned>
struct cell : Fields<T> {};

template <template <typename> class Fields, typename T>
struct alignas(ffq::runtime::kCacheLineSize) cell<Fields, T, true> : Fields<T> {};

template <typename T, bool CacheAligned>
using spmc_cell = cell<spmc_cell_fields, T, CacheAligned>;
template <typename T, bool CacheAligned>
using mpmc_cell = cell<mpmc_cell_fields, T, CacheAligned>;

/// The consumers' line of a multi-consumer ring: the ticket `head` they
/// all claim from — this object itself, so it reads as a bare atomic —
/// and `tail_seen`, a tail value some consumer loaded and shared. The
/// snapshot is only ever a tail the producer has published, never ahead
/// of it, so every rank below it is decided (DESIGN.md §5.8).
struct consumer_line : std::atomic<std::int64_t> {
  using std::atomic<std::int64_t>::atomic;
  std::atomic<std::int64_t> tail_seen{0};
};

/// The members every FFQ ring holds — in the order the layout mirrors in
/// the tests pin — and everything that does not depend on how many
/// producers or consumers share it. `Head` is the consumer_line of
/// multi-consumer rings and a plain consumer-private std::int64_t
/// for the SPSC ring.
template <typename T, template <typename> class Fields, typename Layout,
          typename Head, typename Telemetry, typename Trace>
class ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "cell publication cannot be rolled back after a throwing move");

 public:
  using value_type = T;
  using layout_type = Layout;
  using telemetry_policy = Telemetry;
  using trace_policy = Trace;

  ring(const ring&) = delete;
  ring& operator=(const ring&) = delete;

  /// Mark the queue closed at the current tail. Consumers whose ranks lie
  /// beyond the final tail return false / 0; items already enqueued are
  /// still drained. Precondition: every enqueue call has returned (the
  /// producer thread itself may call it).
  void close() noexcept {
    closed_tail_.store(tail_->load(std::memory_order_acquire),
                       std::memory_order_release);
  }

  bool closed() const noexcept {
    return closed_tail_.load(std::memory_order_acquire) >= 0;
  }

  std::size_t capacity() const noexcept { return cap_.size(); }

  /// Racy size estimate (includes gap ranks); for monitoring only.
  std::int64_t approx_size() const noexcept {
    const auto t = tail_rank();
    const auto h = head_rank();
    return t > h ? t - h : 0;
  }

  /// Gap announcements made / skipped ranks abandoned by consumers (0
  /// under the disabled telemetry policy).
  std::uint64_t gaps_created() const noexcept { return tel_.gaps_created(); }
  std::uint64_t consumer_skips() const noexcept {
    return tel_.consumer_skips();
  }

  /// The queue's event-counter block (empty under the disabled policy).
  const ffq::telemetry::queue_counters<Telemetry>& telemetry() const noexcept {
    return tel_;
  }

  /// Watchdog introspection (racy, diagnostic only): the next rank
  /// consumers will draw, the next rank producers will place, and the
  /// control fields of the cell a rank maps to (rank -2 = an FFQ^m
  /// producer's in-flight reservation).
  std::int64_t head_rank() const noexcept {
    if constexpr (std::is_same_v<Head, std::int64_t>) {
      // Consumer-private plain counter: peek through an atomic_ref (same
      // bytes, race-free read). atomic_ref<const T> is C++26; the
      // const_cast is load-only.
      return std::atomic_ref<std::int64_t>(const_cast<std::int64_t&>(*head_))
          .load(std::memory_order_relaxed);
    } else {
      return head_->load(std::memory_order_relaxed);
    }
  }
  std::int64_t tail_rank() const noexcept {
    return tail_->load(std::memory_order_relaxed);
  }
  cell_probe inspect_rank(std::int64_t rank) const noexcept {
    const auto& c = cells_[cap_.template slot<Layout>(rank)];
    return {c.rank().load(std::memory_order_relaxed),
            c.gap().load(std::memory_order_relaxed)};
  }

  /// How resolve_rank ended: the rank's item was taken, a gap skipped the
  /// rank, the rank is not published yet (a resolve that does not wait),
  /// or the rank lies past the final tail of a closed ring.
  enum class rank_state { taken, skipped, pending, drained };

 protected:
  ring(std::size_t capacity, const char* name)
      : cap_(capacity), cells_(capacity), trc_{name} {
    assert(capacity_info::valid(capacity) &&
           "capacity must be a power of two >= 2");
  }

  ~ring() {
    // Destroy any items that were enqueued but never consumed.
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      auto& c = cells_[i];
      if (c.rank().load(std::memory_order_relaxed) >= 0) {
        std::destroy_at(c.ptr());
      }
    }
  }

  /// The one single-producer publish loop (Algorithm 1's enqueue):
  /// enqueue `n` items from `first` (producer thread only). Every item
  /// gets its own release-store of `rank`, which is what consumers
  /// synchronize on; `tail` is stored once per call, plus once before
  /// each full-ring wait (publish before stall). Wait-free while the ring
  /// has free cells; skips occupied cells, announcing gaps.
  template <typename It>
  void publish(It first, std::size_t n) noexcept {
    assert(closed_tail_.load(std::memory_order_relaxed) < 0 &&
           "enqueue after close()");
    std::uint64_t it0 = trc_.now();  // per-item begin timestamp
    const std::int64_t batch_start = tail_->load(std::memory_order_relaxed);
    std::int64_t t = batch_start;
    std::size_t consecutive_skips = 0;
    std::uint64_t stalls = 0;  // flushed once per call, not per pause
    bool stalling = false;     // one tail store and trace instant per episode
    ffq::runtime::yielding_backoff full_backoff;
    for (std::size_t i = 0; i < n;) {
      FFQ_CHECK_YIELD();  // scheduling point: one cell-protocol round
      auto& c = cells_[cap_.template slot<Layout>(t)];
      const std::int64_t r = c.rank().load(std::memory_order_acquire);
      // Occupied cells are the exception under the paper's free-slot
      // assumption; keeping them off the straight-line path measurably
      // shortens the scalar hand-off (ffqbench rpc_low).
      if (r >= 0) [[unlikely]] {
        if (r >= batch_start || consecutive_skips >= cap_.size()) {
          // Stall: wait for *this* cell to drain (footnote 2: "the
          // producer would spin until a slot becomes available"). Either
          // the cell holds an item of this very batch — a gap over it
          // would only chase our own tail around the ring — or a whole
          // sweep found no free cell, and further gaps would flood
          // consumers with dead ranks. Wait-freedom is already forfeit.
          // Publish `tail` first: try_ consumers claim only below it, so
          // without the store they see an empty ring and never drain it.
          if (!stalling) {
            tail_->store(t, std::memory_order_release);
            trc_.on_full_stall(t);
            stalling = true;
          }
          ++stalls;
          if (ffq::telemetry::flush_due(stalls)) {
            tel_.on_full_stalls(stalls);
            stalls = 0;
          }
          full_backoff.pause();
          continue;
        }
        // Cell still holds an unconsumed (or mid-dequeue) older item:
        // announce the skipped rank and move on (lines 13–14). The same
        // cell may be skipped repeatedly; `gap` then carries the latest
        // skipped rank, which is all consumers need ("gap ≥ rank").
        c.gap().store(t, std::memory_order_release);
        tel_.on_gap_created();
        trc_.on_gap(t);
        ++t;
        ++consecutive_skips;
        continue;
      }
      std::construct_at(c.ptr(), std::move(*first));
      FFQ_CHECK_YIELD();  // window between the data write and publication
      c.rank().store(t, std::memory_order_release);  // linearization point
      trc_.on_enqueue(it0, t);
      it0 = trc_.now();
      stalling = false;
      consecutive_skips = 0;
      ++t;
      ++first;
      ++i;
    }
    tel_.on_full_stalls(stalls);
    tail_->store(t, std::memory_order_release);
  }

  /// The one consumer step (Algorithm 1's dequeue body): resolve `rank`
  /// against its cell. `taken` when the cell holds the rank (`sink`
  /// receives the item by rvalue); `skipped` when a gap covers it and the
  /// line-29 re-check does not find it. A rank that is not published yet
  /// is waited on with back-off (Wait) until one of the two happens or
  /// the rank lies past a close() (`drained`), or reported `pending` at
  /// once (!Wait).
  template <bool Wait, typename Sink>
  rank_state resolve_rank(std::int64_t rank, Sink&& sink) noexcept {
    const std::uint64_t t0 = trc_.now();
    auto& c = cells_[cap_.template slot<Layout>(rank)];
    ffq::runtime::yielding_backoff backoff;
    std::uint64_t pauses = 0;  // flushed once per episode, not per pause
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: one resolve round
      if (c.rank().load(std::memory_order_acquire) == rank) {
        // Exactly one consumer can observe its own rank here (ranks are
        // unique), so the cell is ours to read and recycle.
        sink(std::move(*c.ptr()));
        std::destroy_at(c.ptr());
        // Linearization point.
        c.rank().store(kCellFree, std::memory_order_release);
        tel_.on_backoff_pauses(pauses);
        trc_.on_dequeue(t0, rank);
        return rank_state::taken;
      }
      // Skipped? gap must be read before the rank re-check: the producer
      // may have *filled* the cell for our rank after our first look and
      // then announced a gap for a later rank on a subsequent traversal
      // (the paper's line-29 discussion). The two loads are distinct
      // atomic accesses, so the checker gets a scheduling point between
      // them — the exact window the argument is about.
      if (c.gap().load(std::memory_order_acquire) >= rank) {
        FFQ_CHECK_YIELD();  // line-29 window
        if (c.rank().load(std::memory_order_acquire) != rank) {
          tel_.on_consumer_skip();
          trc_.on_skip(rank);
          tel_.on_backoff_pauses(pauses);
          return rank_state::skipped;
        }
        continue;  // re-check found our rank after all: take it next round
      }
      // Not published yet: the producer is still writing it, or it has
      // not reached it.
      if constexpr (!Wait) return rank_state::pending;
      const std::int64_t closed = closed_tail_.load(std::memory_order_acquire);
      if (closed >= 0 && rank >= closed) {
        tel_.on_backoff_pauses(pauses);
        return rank_state::drained;
      }
      ++pauses;
      if (ffq::telemetry::flush_due(pauses)) {
        tel_.on_backoff_pauses(pauses);
        pauses = 0;
      }
      backoff.pause();
    }
  }

  using cell_type = cell<Fields, T, Layout::kCacheAligned>;

  capacity_info cap_;
  ffq::runtime::aligned_array<cell_type> cells_;
  // In the single-producer rings tail is logically producer-private; it
  // is atomic because try_ consumers, close() and probes read it.
  ffq::runtime::padded<std::atomic<std::int64_t>> tail_{0};
  ffq::runtime::padded<Head> head_{0};  // tail_seen sits in its padding
  std::atomic<std::int64_t> closed_tail_{-1};
  // Empty under the disabled policies, so sizeof matches the
  // uninstrumented layout (mirror static_asserts in tests/test_telemetry,
  // test_trace and test_check): counters, then the trace hook block (a
  // 2-byte queue id when tracing is on).
  [[no_unique_address]] ffq::telemetry::queue_counters<Telemetry> tel_;
  [[no_unique_address]] ffq::trace::queue_tracer<Trace> trc_;
};

/// A ring any number of consumers share through a fetch-and-add / CAS
/// ticket `head` (FFQ^s, FFQ^m): the consumer half of Algorithm 1.
template <typename T, template <typename> class Fields, typename Layout,
          typename Telemetry, typename Trace>
class mc_ring
    : public ring<T, Fields, Layout, consumer_line, Telemetry, Trace> {
  using base = ring<T, Fields, Layout, consumer_line, Telemetry, Trace>;

 public:
  using typename base::rank_state;

  /// Dequeue one item (any number of consumer threads). Blocks (spinning
  /// with back-off) while the queue is empty; returns false only after
  /// close() once this consumer's rank is past the final tail.
  bool dequeue(T& out) noexcept { return take<false, false>(&out, 1) == 1; }

  /// Non-blocking dequeue: false when nothing published is claimable.
  bool try_dequeue(T& out) noexcept {
    return take<true, false>(&out, 1) == 1;
  }

  /// Non-blocking bulk dequeue: up to `max_n` items, 0 immediately when
  /// nothing is published. The claim never passes the published tail, so
  /// the call never waits on the producer for an empty ring (FFQ^m can
  /// still wait briefly on a producer's in-flight -2 reservation).
  template <typename OutIt>
  std::size_t try_dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return bulk<true>(out, max_n);
  }

  /// Dequeue up to `max_n` items with one claim of `head` for the whole
  /// run; gap ranks inside it are dropped without a fresh claim. Returns
  /// the count taken (≥ 1), blocking like dequeue() while the queue is
  /// empty; 0 only once closed and drained.
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t max_n) noexcept {
    return bulk<false>(out, max_n);
  }

  /// The claimed run of ranks [first, first + size): the consumer that
  /// claimed it owns every rank in it and may resolve them at any later
  /// time. A producer that wraps onto a cell still holding one of their
  /// items meanwhile treats it as any occupied cell: it announces a gap
  /// over it (DESIGN.md §5.8).
  struct rank_run {
    std::int64_t first = 0;
    std::int64_t size = 0;
  };

 protected:
  using base::base;

  /// The one multi-consumer claim: claim a run of up to `max_n` ranks
  /// (max_n >= 1) and start the run's write-intent prefetches, but read
  /// no cell. A try claim (Try) is CAS-bounded by a published tail and
  /// returns size 0 when nothing is published; a blocking claim
  /// fetch-and-adds and claims at least one rank. `Bulk` marks the entry
  /// points that may claim a run (k > 1): only they carry the run's
  /// prefetches, so the scalar instantiations compile exactly as without
  /// them.
  template <bool Try, bool Bulk>
  rank_run claim_run(std::size_t max_n) noexcept {
    for (;;) {
      FFQ_CHECK_YIELD();  // scheduling point: before the claim
      std::int64_t first;
      std::int64_t k = 1;
      if (!Try && (!Bulk || max_n == 1)) {
        // Blocking claim of one: the paper's bare fetch-and-increment,
        // no index loads.
        first = this->head_->fetch_add(1, std::memory_order_relaxed);
      } else {
        std::int64_t h = this->head_->load(std::memory_order_relaxed);
        std::int64_t t = this->head_->tail_seen.load(std::memory_order_acquire);
        if (t - h < static_cast<std::int64_t>(max_n)) {
          // The snapshot does not cover a full run, or shows nothing
          // published: load the producer's tail and share what it says.
          // So k is what a fresh tail allows, and "empty" (t <= h) is
          // always decided on a fresh tail.
          const std::int64_t seen = t;
          t = this->tail_->load(std::memory_order_acquire);
          FFQ_CHECK_YIELD();  // window: a racing refresh may store first
          if (t != seen) {
            this->head_->tail_seen.store(t, std::memory_order_release);
          }
        }
        if (Try && t <= h) return {h, 0};  // nothing published: no rank
        // Every rank below a published tail is decided (item or gap), so
        // a run bounded by t never waits on an empty ring. A blocking
        // claim on an empty ring takes one rank and waits on it.
        k = std::max<std::int64_t>(
            1, std::min<std::int64_t>(static_cast<std::int64_t>(max_n), t - h));
        FFQ_CHECK_YIELD();  // window: a racing consumer may move head here
        if constexpr (Try) {
          // CAS, not FAA: a racing claim makes this one fail and re-read
          // the indices, instead of landing past the tail on ranks an
          // idle producer never writes.
          if (!this->head_->compare_exchange_strong(
                  h, h + k, std::memory_order_relaxed)) {
            continue;
          }
          first = h;
        } else {
          first = this->head_->fetch_add(k, std::memory_order_relaxed);
        }
        if (k > 1) this->tel_.on_rank_block_faa();
      }
      // A run's cells are read for their rank and then written with -1:
      // fetch each line once, already exclusive, a fixed distance ahead
      // of the cell being resolved. Scalar claims (k = 1) skip it.
      if constexpr (Bulk) {
        if (k > 1) {
          for (std::int64_t i = 0; i < std::min(k, kClaimPrefetchDistance);
               ++i) {
            prefetch_cell(first + i);
          }
        }
      }
      return {first, k};
    }
  }

  /// Take one rank of a claimed run that ends at `end`: keep the run's
  /// prefetches kClaimPrefetchDistance cells ahead, as the take loop
  /// does, then resolve the rank, waiting on it. `sink` receives the item
  /// by rvalue on `taken`.
  template <typename Sink>
  rank_state take_rank(std::int64_t rank, std::int64_t end,
                       Sink&& sink) noexcept {
    prefetch_ahead(rank, end);
    return this->template resolve_rank<true>(rank, sink);
  }

 private:
  template <bool Try, typename OutIt>
  std::size_t bulk(OutIt out, std::size_t max_n) noexcept {
    if (max_n == 0) return 0;
    // A count past INT64_MAX (SIZE_MAX: "take everything") would turn
    // negative in the claim's signed rank arithmetic.
    max_n = std::min<std::size_t>(max_n, INT64_MAX);
    const std::size_t n = take<Try, true>(out, max_n);
    if (n > 0) this->tel_.on_bulk(n);
    return n;
  }

  /// The one take loop: claim a run, resolve its ranks in order, writing
  /// taken items to `out`, and claim again when the whole run was gaps
  /// (the paper's skip-and-redraw, amortized; a try claim re-checks
  /// availability first). Try calls return 0 when nothing is published,
  /// blocking calls only once closed and drained.
  template <bool Try, bool Bulk, typename OutIt>
  std::size_t take(OutIt out, std::size_t max_n) noexcept {
    for (;;) {
      const rank_run run = claim_run<Try, Bulk>(max_n);
      if (Try && run.size == 0) return 0;
      const std::int64_t end = run.first + run.size;
      std::size_t taken = 0;
      for (std::int64_t rank = run.first; rank < end; ++rank) {
        if constexpr (Bulk) prefetch_ahead(rank, end);
        const rank_state st =
            this->template resolve_rank<true>(rank, [&](T&& v) {
              *out = std::move(v);
              ++out;
            });
        if (st == rank_state::taken) {
          ++taken;
        } else if (st == rank_state::drained) {
          return taken;  // later ranks are past the final tail too
        }  // skipped: dropped in place, no fresh claim
      }
      if (taken > 0) return taken;
    }
  }

  void prefetch_cell(std::int64_t rank) const noexcept {
    ffq::runtime::prefetch_for_write(
        &this->cells_[this->cap_.template slot<Layout>(rank)]);
  }

  /// While resolving `rank` of a run that ends at `end`, prefetch the
  /// cell kClaimPrefetchDistance ranks ahead.
  void prefetch_ahead(std::int64_t rank, std::int64_t end) const noexcept {
    if (rank + kClaimPrefetchDistance < end) {
      prefetch_cell(rank + kClaimPrefetchDistance);
    }
  }
};

}  // namespace ffq::core::detail
