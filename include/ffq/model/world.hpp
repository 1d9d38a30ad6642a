// world.hpp — state-machine model of FFQ executions for exhaustive
// interleaving checking.
//
// The real queues run on hardware atomics and cannot be stepped
// deterministically; this module models Algorithms 1 and 2 as explicit
// state machines in which every shared-memory action (one load, one
// store, one fetch-and-add, one double-word CAS) is a single atomic
// *step*. The explorer (check/explore.hpp) then walks the interleavings
// of those steps for small configurations and validates:
//   * exactly-once delivery (no lost, duplicated, or uninitialized item),
//   * per-consumer FIFO order,
//   * completion: every reachable state can still reach one in which
//     all threads are done (no lost item, no wedged protocol).
//
// Because the model follows the paper's pseudo-code line by line, the
// explorer doubles as a machine-checked argument for the subtle details
// the paper calls out — each has a "mutation" switch that disables it,
// and tests assert the explorer then finds a violation (see
// ffq_alg1.hpp / ffq_alg2.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ffq::model {

/// A modelled queue cell. Values mirror the implementation: rank -1 =
/// free, -2 = reserved by an MPMC producer; data 0 = never written.
struct cell_m {
  int rank = -1;
  int gap = -1;
  int data = 0;
};

class world;

/// One modelled thread: a program counter plus local registers. step()
/// performs exactly one shared-memory action (or a purely local
/// transition) and returns.
class thread_m {
 public:
  virtual ~thread_m() = default;

  virtual bool done() const = 0;

  /// Perform one atomic step against the shared state.
  virtual void step(world& w) = 0;

  /// Append this thread's full local state to the encoding.
  virtual void encode(std::vector<int>& out) const = 0;

  virtual std::unique_ptr<thread_m> clone() const = 0;

  /// Producer machines answer true, so the idle-producer oracle knows
  /// when every producer has returned.
  virtual bool is_producer() const { return false; }
};

/// The shared state plus all threads: one node of the execution graph.
class world {
 public:
  /// `shards` equal cell segments of `shard_cells` cells each, with one
  /// head and one tail per shard. A plain ring is shard 0 of a one-shard
  /// world.
  world(std::size_t shard_cells, int num_values, std::size_t shards = 1)
      : cells_(shards * shard_cells),
        shard_cells_(shard_cells),
        heads_(shards, 0),
        tails_(shards, 0),
        tail_seen_(shards, 0),
        consumed_count_(static_cast<std::size_t>(num_values) + 1, 0) {}

  world(const world& o)
      : cells_(o.cells_),
        shard_cells_(o.shard_cells_),
        heads_(o.heads_),
        tails_(o.tails_),
        tail_seen_(o.tail_seen_),
        producer_ranges_(o.producer_ranges_),
        consumed_count_(o.consumed_count_),
        violation_(o.violation_),
        gaps_announced_(o.gaps_announced_),
        published_ranks_(o.published_ranks_),
        taken_ranks_(o.taken_ranks_),
        skipped_ranks_(o.skipped_ranks_) {
    threads_.reserve(o.threads_.size());
    for (const auto& t : o.threads_) threads_.push_back(t->clone());
  }

  world& operator=(const world&) = delete;

  // --- shared memory ----------------------------------------------------
  // Ranks are namespaced per shard: shard s's local rank r appears
  // everywhere (cells, monitors) as the global rank s * kShardRankStride
  // + r, and slot() maps it into its shard's segment. So the
  // gap-accounting monitor's slot/rank comparisons stay exact: ranks from
  // different shards never share a slot, and ranks within a shard compare
  // in shard order. In a one-shard world the global rank is the local
  // one; the stride is far above any rank the small model programs reach.
  static constexpr int kShardRankStride = 1 << 20;
  std::vector<cell_m> cells_;
  std::size_t shard_cells_;
  std::vector<int> heads_;  ///< local (un-namespaced) per-shard heads
  std::vector<int> tails_;  ///< local per-shard tails; shared in the MPMC model
  /// Per-shard copy of a tail some consumer loaded: the snapshot that run
  /// and try_ claims read on the consumers' head line (core/ring.hpp).
  std::vector<int> tail_seen_;

  static int rank_of(int shard, int local) {
    return shard * kShardRankStride + local;
  }

  std::size_t slot(int rank) const {
    const auto s = static_cast<std::size_t>(rank / kShardRankStride);
    const auto r = static_cast<std::size_t>(rank % kShardRankStride);
    return s * shard_cells_ + r % shard_cells_;
  }

  // --- threads ------------------------------------------------------------
  std::vector<std::unique_ptr<thread_m>> threads_;

  bool all_done() const {
    for (const auto& t : threads_) {
      if (!t->done()) return false;
    }
    return true;
  }

  /// Inclusive value intervals per producer, for the per-producer FIFO
  /// monitor (values within one producer's interval must be consumed in
  /// increasing order by any single consumer).
  std::vector<std::pair<int, int>> producer_ranges_;

  int producer_of(int value) const {
    for (std::size_t p = 0; p < producer_ranges_.size(); ++p) {
      if (value >= producer_ranges_[p].first && value <= producer_ranges_[p].second) {
        return static_cast<int>(p);
      }
    }
    return -1;
  }

  // --- incremental invariants ----------------------------------------------
  // Monitors (consumed_count_, violation_) are deliberately NOT part of
  // encode(): they are functions of the execution history, not of future
  // behaviour, and including them multiplies equivalent states. A
  // violation aborts the search on the edge where it occurs, before the
  // state would be interned.

  /// Record a consumed value; flags duplicates and uninitialized reads.
  void record_consume(int value) {
    if (value <= 0 || value >= static_cast<int>(consumed_count_.size())) {
      violation_ = "consumed uninitialized or out-of-range value " +
                   std::to_string(value);
      return;
    }
    if (++consumed_count_[static_cast<std::size_t>(value)] > 1) {
      violation_ = "value " + std::to_string(value) + " consumed twice";
    }
  }

  std::vector<int> consumed_count_;
  std::string violation_;  ///< empty = no safety violation so far

  // --- gap-accounting monitor ---------------------------------------------
  // Execution-history logs (like consumed_count_, not encoded): every gap
  // the producer side announced, every rank a consumer took, every rank a
  // consumer skipped. check_gap_accounting() validates the protocol's
  // bookkeeping at a terminal state: a consumer may abandon a rank only
  // if a gap covering it was announced at that rank's cell, and a rank
  // that was announced as a gap can never also deliver an item.
  std::vector<int> gaps_announced_;
  std::vector<int> published_ranks_;
  std::vector<int> taken_ranks_;
  std::vector<int> skipped_ranks_;

  void record_gap(int rank) { gaps_announced_.push_back(rank); }

  /// A producer published an item at `rank`. Publishing at a rank some
  /// consumer has already abandoned is the paper's "enqueue in the past"
  /// — the item can never be delivered; flag it immediately.
  void record_publish(int rank) {
    published_ranks_.push_back(rank);
    if (violation_.empty()) {
      for (int s : skipped_ranks_) {
        if (s == rank) {
          violation_ = "gap-accounting: item published at rank " +
                       std::to_string(rank) +
                       " after a consumer already skipped it (enqueue in "
                       "the past)";
          return;
        }
      }
    }
  }

  void record_taken_rank(int rank) { taken_ranks_.push_back(rank); }

  /// A consumer abandoned `rank`. Every rank has a unique fate (each tail
  /// value becomes either a gap or a publication, never both, and a
  /// published rank is owned by exactly one consumer), so skipping a rank
  /// that holds a published item is an immediate loss — flagged here as a
  /// safety violation so the explorer gets a witness schedule.
  void record_skip(int rank) {
    skipped_ranks_.push_back(rank);
    if (violation_.empty()) {
      for (int p : published_ranks_) {
        if (p == rank) {
          violation_ = "gap-accounting: rank " + std::to_string(rank) +
                       " skipped by a consumer but holds a published item";
          return;
        }
      }
    }
  }

  // --- liveness monitors (DESIGN.md §5.8) ----------------------------------
  // The explorer sees a wedge (a spin loop is a memoized self-loop) only
  // in its liveness phase, on a whole exhausted graph and one-sidedly
  // under a preemption bound, so the two rules that keep try_ consumers
  // live are checked as safety properties on the edge where they break.
  // Both watch a plain ring: shard 0's tail.

  bool producers_idle() const {
    for (const auto& t : threads_) {
      if (t->is_producer() && !t->done()) return false;
    }
    return true;
  }

  /// A single producer with next rank `private_tail` starts waiting for a
  /// full-ring cell to drain. Publish before stall: every rank it decided
  /// must be below the shared tail, or try_ consumers (which claim only
  /// below it) see an empty ring and the wait never ends.
  void record_full_stall(int private_tail) {
    if (violation_.empty() && tails_[0] < private_tail) {
      violation_ = "publish-before-stall: producer waits on a full ring "
                   "while ranks " + std::to_string(tails_[0]) + ".." +
                   std::to_string(private_tail - 1) +
                   " are hidden above the shared tail";
    }
  }

  /// A consumer inside a try_ call finds its claimed `rank` neither
  /// published nor skipped. Idle-producer oracle: once every producer has
  /// returned, nothing will ever decide that rank, so the call would never
  /// return — a try_ claim must stay below the tail it observed.
  void record_try_wait(int rank) {
    if (violation_.empty() && producers_idle()) {
      violation_ = "idle-producer: a try_ consumer waits on rank " +
                   std::to_string(rank) + " at or past the final tail " +
                   std::to_string(tails_[0]);
    }
  }

  /// Empty string = accounting consistent; otherwise a description of the
  /// first inconsistency. Meaningful at any point, exact at terminals.
  std::string check_gap_accounting() const {
    for (int s : skipped_ranks_) {
      bool covered = false;
      for (int g : gaps_announced_) {
        if (slot(g) == slot(s) && g >= s) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        return "gap-accounting: rank " + std::to_string(s) +
               " skipped by a consumer but no announced gap covers it";
      }
    }
    for (int t : taken_ranks_) {
      for (int g : gaps_announced_) {
        if (g == t) {
          return "gap-accounting: rank " + std::to_string(t) +
                 " both announced as a gap and consumed";
        }
      }
    }
    return {};
  }

  /// Canonical encoding of the full state (shared memory + every
  /// thread's local state) for the visited set.
  std::string encode() const {
    std::vector<int> v;
    v.reserve(cells_.size() * 3 + 8 + threads_.size() * 8);
    for (const auto& c : cells_) {
      v.push_back(c.rank);
      v.push_back(c.gap);
      v.push_back(c.data);
    }
    v.insert(v.end(), heads_.begin(), heads_.end());
    v.insert(v.end(), tails_.begin(), tails_.end());
    v.insert(v.end(), tail_seen_.begin(), tail_seen_.end());
    for (const auto& t : threads_) t->encode(v);
    return std::string(reinterpret_cast<const char*>(v.data()),
                       v.size() * sizeof(int));
  }
};

}  // namespace ffq::model
