// spmc.hpp — FFQ^s: the single-producer/multiple-consumer FIFO queue
// (paper Algorithm 1).
//
// Operating principles (paper §III-A):
//  * A bounded circular array of cells, each holding (data, rank, gap).
//    `rank` is the monotonically-increasing insertion number of the item
//    in the cell (-1 when the cell is free); `gap` announces ranks the
//    producer skipped.
//  * The producer owns `tail`; it enqueues at rank `tail` if the mapped
//    cell is free, otherwise it announces a gap and moves on. Wait-free
//    under the paper's standing assumption that the array never fills
//    (Proposition 1).
//  * Consumers draw unique ranks from the shared `head` with
//    fetch-and-increment and then synchronize only through the cell:
//    rank == mine → take it; gap ≥ mine (and rank ≠ mine on re-check) →
//    my rank was skipped, draw a new one; otherwise the producer is still
//    writing → back off. Lock-free (Proposition 2).
//
// Synchronization points (paper footnote 3: "Ordering is enforced ...
// using memory barriers"):
//  * producer:  construct data, then rank.store(tail, release)
//  * consumer:  rank.load(acquire); move data out; rank.store(-1, release)
//  * producer free-check: rank.load(acquire) pairs with the consumer's
//    release so the data slot is safely reusable.
//  * head is a relaxed fetch-and-add (or, for try_ claims, a relaxed
//    CAS): a pure ticket dispenser; all data synchronization goes
//    through the cell fields.
//
// Library extension beyond the paper (DESIGN.md §5.6): `close()` lets
// consumers parked on a never-to-be-produced rank return false instead of
// spinning forever. The check sits only on the back-off path.
//
// The producer loop, the consumer claim and take loops and the one
// consumer step they resolve ranks with are the shared cores in ring.hpp
// (DESIGN.md §5.8): scalar calls are bulk calls of one item.
// `enqueue_bulk` stores `tail` once per batch (and before any full-ring
// wait); `dequeue_bulk` claims a *run* of ranks with a single
// fetch-and-add on `head`, so the per-item atomic RMW that dominates
// dequeue cost (§III-A) is paid once per batch, then takes the run's
// ranks in order, claiming again only when the whole run was gaps.
#pragma once

#include <cstddef>

#include "ffq/core/layout.hpp"
#include "ffq/core/ring.hpp"

namespace ffq::core {

/// FFQ^s. `T` must be nothrow-move-constructible; `Layout` is one of the
/// policies in layout.hpp. Capacity must be a power of two and must
/// exceed the maximum number of in-flight items (the paper's implicit
/// flow-control assumption) for enqueue to stay wait-free.
template <typename T, typename Layout = layout_aligned,
          typename Telemetry = ffq::telemetry::default_policy,
          typename Trace = ffq::trace::default_policy>
class spmc_queue : public detail::mc_ring<T, detail::spmc_cell_fields, Layout,
                                          Telemetry, Trace> {
  using base =
      detail::mc_ring<T, detail::spmc_cell_fields, Layout, Telemetry, Trace>;

 public:
  static constexpr const char* kName = "ffq-spmc";

  explicit spmc_queue(std::size_t capacity) : base(capacity, kName) {}

  /// Enqueue one item (producer thread only). Wait-free while the queue
  /// has free cells; skips occupied cells, announcing gaps.
  void enqueue(T value) noexcept { this->publish(&value, 1); }

  /// Enqueue `n` items from `first` (producer thread only): the same
  /// cell protocol, one `tail` store per batch. Blocks only in the
  /// full-ring regime.
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    this->tel_.on_bulk(n);
    this->publish(first, n);
  }
};

}  // namespace ffq::core
