// ffq_alg1.hpp — step-machine model of Algorithm 1 (FFQ^s).
//
// Every pc transition performs at most one shared-memory access, so the
// checker's interleavings are exactly the architectural interleavings of
// the pseudo-code (under SC; the implementation's acquire/release pairs
// reconstruct SC for this communication pattern).
//
// Mutations (each reverts a detail the paper argues is necessary; tests
// prove the checker flags the resulting bug):
//   * consumer_mutation::skip_line29_recheck — drop the "cell.rank ≠
//     rank" re-check after observing gap ≥ rank (§III-A: the producer
//     might have inserted the expected element before announcing a later
//     gap; skipping it loses the item).
//   * producer_mutation::publish_before_data — swap lines 16/17: publish
//     the rank before storing data ("the order of the two operations is
//     important"); a consumer can then read uninitialized data.
//   * producer_mutation::tail_after_batch — the bulk producer stores the
//     shared tail only after the whole batch, even when it waits on a
//     full ring first; try_ consumers then see an empty ring that never
//     drains (world::record_full_stall).
//   * consumer_mutation::faa_try_claim — the try_ consumer claims its run
//     with a fetch-and-add sized from a stale head instead of a CAS, so a
//     racing claim pushes it past the tail, onto ranks an idle producer
//     never writes (world::record_try_wait).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "ffq/model/world.hpp"

namespace ffq::model {

enum class producer_mutation { none, publish_before_data, tail_after_batch };
enum class consumer_mutation { none, skip_line29_recheck, faa_try_claim };

/// Single producer of Algorithm 1: enqueues values first..first+count-1.
/// `tail` lives in world::tail_ but is producer-private (consumers never
/// read it), so combining a cell store with the tail increment in one
/// step does not hide any observable interleaving.
class alg1_producer : public thread_m {
 public:
  alg1_producer(int first, int count, producer_mutation mut = producer_mutation::none)
      : next_(first), last_(first + count - 1), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }
  bool is_producer() const override { return true; }

  void step(world& w) override {
    switch (pc_) {
      case pc::load_rank: {
        const int r = w.cells_[w.slot(w.tail_)].rank;  // one load
        if (r >= 0) {
          // Occupied. The shipped implementation (and this model — the
          // verbatim pseudo-code would grow `tail` without bound while
          // the ring is full, making the state space infinite) stops
          // announcing gaps after one full fruitless sweep and waits for
          // the current cell to drain.
          pc_ = consec_gaps_ >= static_cast<int>(w.cells_.size())
                    ? pc::load_rank  // spin in place (self-loop state)
                    : pc::announce_gap;
        } else {
          consec_gaps_ = 0;
          pc_ = pc::store_data;
        }
        break;
      }
      case pc::announce_gap: {
        cell_m& c = w.cells_[w.slot(w.tail_)];
        c.gap = w.tail_;  // one store (+ private tail bump)
        w.record_gap(w.tail_);
        w.tail_ += 1;
        ++consec_gaps_;
        pc_ = pc::load_rank;
        break;
      }
      case pc::store_data: {
        if (mut_ == producer_mutation::publish_before_data) {
          // MUTATION: publish first (wrong), write data after.
          w.cells_[w.slot(w.tail_)].rank = w.tail_;
          w.record_publish(w.tail_);
          pc_ = pc::store_data_late;
        } else {
          w.cells_[w.slot(w.tail_)].data = next_;  // one store
          pc_ = pc::publish;
        }
        break;
      }
      case pc::store_data_late: {
        w.cells_[w.slot(w.tail_)].data = next_;
        w.tail_ += 1;
        advance_item();
        break;
      }
      case pc::publish: {
        w.cells_[w.slot(w.tail_)].rank = w.tail_;  // linearization store
        w.record_publish(w.tail_);
        w.tail_ += 1;
        advance_item();
        break;
      }
      case pc::finished:
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(next_);
    out.push_back(consec_gaps_);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_producer>(*this);
  }

 private:
  enum class pc { load_rank, announce_gap, store_data, store_data_late, publish, finished };

  void advance_item() {
    if (next_ == last_) {
      pc_ = pc::finished;
    } else {
      ++next_;
      pc_ = pc::load_rank;
    }
  }

  pc pc_ = pc::load_rank;
  int next_;
  int last_;
  int consec_gaps_ = 0;
  producer_mutation mut_;
};

/// Consumer of Algorithm 1 with a fixed dequeue quota.
class alg1_consumer : public thread_m {
 public:
  explicit alg1_consumer(int quota, consumer_mutation mut = consumer_mutation::none)
      : quota_(quota), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }

  void step(world& w) override {
    switch (pc_) {
      case pc::faa_head: {
        rank_ = w.head_;  // fetch-and-increment: one RMW
        w.head_ += 1;
        pc_ = pc::check_rank;
        break;
      }
      case pc::check_rank: {
        const int r = w.cells_[w.slot(rank_)].rank;  // one load
        pc_ = r == rank_ ? pc::read_data : pc::check_gap;
        break;
      }
      case pc::read_data: {
        val_ = w.cells_[w.slot(rank_)].data;  // one load
        pc_ = pc::release_cell;
        break;
      }
      case pc::release_cell: {
        w.cells_[w.slot(rank_)].rank = -1;  // linearization store
        w.record_consume(val_);
        w.record_taken_rank(rank_);
        // Per-producer FIFO monitor: a consumer's successive values from
        // one producer must increase (ranks are drawn in order).
        const int p = w.producer_of(val_);
        if (p >= 0) {
          if (static_cast<std::size_t>(p) >= last_from_.size()) {
            last_from_.resize(static_cast<std::size_t>(p) + 1, 0);
          }
          if (val_ <= last_from_[static_cast<std::size_t>(p)]) {
            w.violation_ = "per-producer FIFO violated: saw " +
                           std::to_string(val_) + " after " +
                           std::to_string(last_from_[static_cast<std::size_t>(p)]);
          }
          last_from_[static_cast<std::size_t>(p)] = val_;
        }
        ++taken_;
        pc_ = taken_ == quota_ ? pc::finished : pc::faa_head;
        break;
      }
      case pc::check_gap: {
        const int g = w.cells_[w.slot(rank_)].gap;  // one load
        if (g >= rank_) {
          if (mut_ == consumer_mutation::skip_line29_recheck) {
            w.record_skip(rank_);  // MUTATION: no rank re-check
            pc_ = pc::faa_head;
          } else {
            pc_ = pc::recheck_rank;
          }
        } else {
          pc_ = pc::check_rank;  // back off and re-examine (spin)
        }
        break;
      }
      case pc::recheck_rank: {
        const int r = w.cells_[w.slot(rank_)].rank;  // one load
        // gap >= rank AND rank != rank  => the rank was truly skipped.
        if (r != rank_) {
          w.record_skip(rank_);
          pc_ = pc::faa_head;
        } else {
          pc_ = pc::check_rank;
        }
        break;
      }
      case pc::finished:
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(rank_);
    out.push_back(val_);
    out.push_back(taken_);
    for (int v : last_from_) out.push_back(v);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_consumer>(*this);
  }

  int taken() const { return taken_; }

 private:
  enum class pc {
    faa_head,
    check_rank,
    read_data,
    release_cell,
    check_gap,
    recheck_rank,
    finished
  };

  pc pc_ = pc::faa_head;
  int rank_ = -1;
  int val_ = 0;
  int taken_ = 0;
  int quota_;
  consumer_mutation mut_;
  std::vector<int> last_from_;  ///< FIFO monitor: last value per producer
};

/// Producer issuing enqueue_bulk(batch) (DESIGN.md §5.8). Per-cell
/// behaviour — gap announcements and data-before-rank publication — is
/// identical to alg1_producer, but the producer works against a private
/// tail register and stores the SHARED tail once per batch. Scalar
/// consumers never read the tail, so for them this is indistinguishable
/// from Algorithm 1; bulk consumers bound their run claims by the
/// published tail and fall back to single-rank claims between
/// publications. Unlike the scalar model, the tail store here is a real
/// separate shared step because bulk consumers observe it.
///
/// Full ring (the shared publish loop in core/ring.hpp): the producer
/// waits on a cell that holds an item of its own batch, or after a whole
/// fruitless sweep — and stores the shared tail before it starts waiting
/// (publish before stall), unless producer_mutation::tail_after_batch.
class alg1_bulk_producer : public thread_m {
 public:
  alg1_bulk_producer(int first, int count, int batch,
                     producer_mutation mut = producer_mutation::none)
      : next_(first), last_(first + count - 1), batch_(batch), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }
  bool is_producer() const override { return true; }

  void step(world& w) override {
    switch (pc_) {
      case pc::load_rank: {
        const int r = w.cells_[w.slot(pt_)].rank;  // one load
        if (r >= 0) {
          if (r < batch_start_ &&
              consec_gaps_ < static_cast<int>(w.cells_.size())) {
            pc_ = pc::announce_gap;
          } else if (w.tail_ < pt_ &&
                     mut_ != producer_mutation::tail_after_batch) {
            pc_ = pc::stall_publish_tail;
          } else {
            w.record_full_stall(pt_);  // wait in place (self-loop state)
          }
        } else {
          consec_gaps_ = 0;
          pc_ = pc::store_data;
        }
        break;
      }
      case pc::announce_gap: {
        w.cells_[w.slot(pt_)].gap = pt_;  // one store (+ private tail bump)
        w.record_gap(pt_);
        pt_ += 1;
        ++consec_gaps_;
        pc_ = pc::load_rank;
        break;
      }
      case pc::store_data: {
        if (mut_ == producer_mutation::publish_before_data) {
          w.cells_[w.slot(pt_)].rank = pt_;  // MUTATION: publish first
          w.record_publish(pt_);
          pc_ = pc::store_data_late;
        } else {
          w.cells_[w.slot(pt_)].data = next_;  // one store
          pc_ = pc::publish;
        }
        break;
      }
      case pc::store_data_late: {
        w.cells_[w.slot(pt_)].data = next_;
        pt_ += 1;
        advance_item();
        break;
      }
      case pc::publish: {
        w.cells_[w.slot(pt_)].rank = pt_;  // per-cell publication store
        w.record_publish(pt_);
        pt_ += 1;
        advance_item();
        break;
      }
      case pc::stall_publish_tail: {
        w.tail_ = pt_;  // publish before stall
        pc_ = pc::load_rank;
        break;
      }
      case pc::publish_tail: {
        w.tail_ = pt_;  // ONE shared tail store per batch
        in_batch_ = 0;
        batch_start_ = pt_;
        if (next_ == last_) {
          pc_ = pc::finished;
        } else {
          ++next_;
          pc_ = pc::load_rank;
        }
        break;
      }
      case pc::finished:
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(next_);
    out.push_back(pt_);
    out.push_back(in_batch_);
    out.push_back(batch_start_);
    out.push_back(consec_gaps_);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_bulk_producer>(*this);
  }

 private:
  enum class pc {
    load_rank,
    announce_gap,
    store_data,
    store_data_late,
    publish,
    stall_publish_tail,
    publish_tail,
    finished
  };

  void advance_item() {
    ++in_batch_;
    if (next_ == last_ || in_batch_ == batch_) {
      pc_ = pc::publish_tail;
    } else {
      ++next_;
      pc_ = pc::load_rank;
    }
  }

  pc pc_ = pc::load_rank;
  int next_;
  int last_;
  int batch_;
  int pt_ = 0;  ///< private tail; w.tail_ lags until publish_tail
  int in_batch_ = 0;
  int batch_start_ = 0;  ///< first rank of the current batch
  int consec_gaps_ = 0;
  producer_mutation mut_;
};

/// Consumer issuing dequeue_bulk(batch) with a fixed total quota. The
/// claim is modelled with the implementation's exact access sequence —
/// tail load, head load, then the head fetch-and-add — so the checker
/// explores the stale-head race where another consumer advances the head
/// between the load and the RMW. The claimed run [rank_, end_) is then
/// resolved rank by rank with the scalar cell protocol; ranks that turn
/// out to be gaps are dropped in place (no fresh fetch-and-add), which is
/// the property consumer_mutation::skip_line29_recheck breaks inside a
/// run (a just-published item in the run is silently dropped).
class alg1_bulk_consumer : public thread_m {
 public:
  alg1_bulk_consumer(int quota, int batch,
                     consumer_mutation mut = consumer_mutation::none)
      : quota_(quota), batch_(batch), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }

  void step(world& w) override {
    switch (pc_) {
      case pc::load_tail: {
        t_ = w.tail_;  // one load (acquire in the implementation)
        pc_ = pc::load_head;
        break;
      }
      case pc::load_head: {
        h0_ = w.head_;  // one load; may be stale by claim time
        pc_ = pc::claim;
        break;
      }
      case pc::claim: {
        const int avail = t_ - h0_;
        const int k = avail > 1
                          ? std::min({batch_, avail, quota_ - taken_})
                          : 1;  // empty/near-empty: claim one and park
        rank_ = w.head_;  // fetch-and-add: one RMW
        w.head_ += k;
        end_ = rank_ + k;
        pc_ = pc::check_rank;
        break;
      }
      case pc::check_rank: {
        const int r = w.cells_[w.slot(rank_)].rank;  // one load
        pc_ = r == rank_ ? pc::read_data : pc::check_gap;
        break;
      }
      case pc::read_data: {
        val_ = w.cells_[w.slot(rank_)].data;  // one load
        pc_ = pc::release_cell;
        break;
      }
      case pc::release_cell: {
        w.cells_[w.slot(rank_)].rank = -1;  // linearization store
        w.record_consume(val_);
        w.record_taken_rank(rank_);
        const int p = w.producer_of(val_);
        if (p >= 0) {
          if (static_cast<std::size_t>(p) >= last_from_.size()) {
            last_from_.resize(static_cast<std::size_t>(p) + 1, 0);
          }
          if (val_ <= last_from_[static_cast<std::size_t>(p)]) {
            w.violation_ = "per-producer FIFO violated: saw " +
                           std::to_string(val_) + " after " +
                           std::to_string(last_from_[static_cast<std::size_t>(p)]);
          }
          last_from_[static_cast<std::size_t>(p)] = val_;
        }
        ++taken_;
        advance_rank();
        break;
      }
      case pc::check_gap: {
        const int g = w.cells_[w.slot(rank_)].gap;  // one load
        if (g >= rank_) {
          if (mut_ == consumer_mutation::skip_line29_recheck) {
            w.record_skip(rank_);  // MUTATION: drop the rank without re-check
            advance_rank();
          } else {
            pc_ = pc::recheck_rank;
          }
        } else {
          pc_ = pc::check_rank;  // back off and re-examine (spin)
        }
        break;
      }
      case pc::recheck_rank: {
        const int r = w.cells_[w.slot(rank_)].rank;  // one load
        if (r != rank_) {
          w.record_skip(rank_);
          advance_rank();  // truly skipped: drop in place, stay in run
        } else {
          pc_ = pc::check_rank;
        }
        break;
      }
      case pc::finished:
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(t_);
    out.push_back(h0_);
    out.push_back(rank_);
    out.push_back(end_);
    out.push_back(val_);
    out.push_back(taken_);
    for (int v : last_from_) out.push_back(v);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_bulk_consumer>(*this);
  }

  int taken() const { return taken_; }

 private:
  enum class pc {
    load_tail,
    load_head,
    claim,
    check_rank,
    read_data,
    release_cell,
    check_gap,
    recheck_rank,
    finished
  };

  /// A rank in the claimed run is decided (consumed or dropped): move to
  /// the next one, or re-claim / finish when the run is exhausted.
  void advance_rank() {
    ++rank_;
    if (rank_ != end_) {
      pc_ = pc::check_rank;
    } else if (taken_ == quota_) {
      pc_ = pc::finished;
    } else {
      pc_ = pc::load_tail;
    }
  }

  pc pc_ = pc::load_tail;
  int t_ = 0;
  int h0_ = 0;
  int rank_ = -1;
  int end_ = -1;
  int val_ = 0;
  int taken_ = 0;
  int quota_;
  int batch_;
  consumer_mutation mut_;
  std::vector<int> last_from_;  ///< FIFO monitor: last value per producer
};

/// Consumer polling try_dequeue_bulk(batch) until the producers are idle
/// and the ring is empty. Same access sequence as the implementation's
/// claim loop (core/ring.hpp): tail load, head load, then a CAS of head
/// from the observed h to h + k with k = min(batch, t - h) — a failed CAS
/// re-reads both. Nothing published (t <= h) claims no rank. The claimed
/// run is resolved with the scalar cell protocol, gaps dropped in place.
/// consumer_mutation::faa_try_claim replaces the CAS with the old
/// fetch-and-add of k, which a racing claim can push past the tail.
class alg1_try_consumer : public thread_m {
 public:
  explicit alg1_try_consumer(int batch,
                             consumer_mutation mut = consumer_mutation::none)
      : batch_(batch), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }

  void step(world& w) override {
    switch (pc_) {
      case pc::load_tail: {
        // The harness's close: producers idle before this tail load means
        // t_ is the final tail. (A monitor read, not a memory access.)
        idle_ = w.producers_idle();
        t_ = w.tail_;  // one load
        pc_ = pc::load_head;
        break;
      }
      case pc::load_head: {
        h0_ = w.head_;  // one load
        if (t_ > h0_) {
          pc_ = pc::claim;
        } else {
          pc_ = idle_ ? pc::finished : pc::load_tail;  // try_ returned 0
        }
        break;
      }
      case pc::claim: {
        const int k = std::min(batch_, t_ - h0_);
        if (mut_ == consumer_mutation::faa_try_claim) {
          rank_ = w.head_;  // MUTATION: fetch-and-add from a stale size
        } else if (w.head_ == h0_) {
          rank_ = h0_;  // CAS h0 -> h0 + k succeeded: one RMW
        } else {
          pc_ = pc::load_tail;  // CAS failed: re-read tail and head
          break;
        }
        w.head_ = rank_ + k;
        end_ = rank_ + k;
        pc_ = pc::check_rank;
        break;
      }
      case pc::check_rank: {
        const int r = w.cells_[w.slot(rank_)].rank;  // one load
        pc_ = r == rank_ ? pc::read_data : pc::check_gap;
        break;
      }
      case pc::read_data: {
        val_ = w.cells_[w.slot(rank_)].data;  // one load
        pc_ = pc::release_cell;
        break;
      }
      case pc::release_cell: {
        w.cells_[w.slot(rank_)].rank = -1;  // linearization store
        w.record_consume(val_);
        w.record_taken_rank(rank_);
        const int p = w.producer_of(val_);
        if (p >= 0) {
          if (static_cast<std::size_t>(p) >= last_from_.size()) {
            last_from_.resize(static_cast<std::size_t>(p) + 1, 0);
          }
          if (val_ <= last_from_[static_cast<std::size_t>(p)]) {
            w.violation_ = "per-producer FIFO violated: saw " +
                           std::to_string(val_) + " after " +
                           std::to_string(last_from_[static_cast<std::size_t>(p)]);
          }
          last_from_[static_cast<std::size_t>(p)] = val_;
        }
        advance_rank();
        break;
      }
      case pc::check_gap: {
        const int g = w.cells_[w.slot(rank_)].gap;  // one load
        if (g >= rank_) {
          pc_ = pc::recheck_rank;
        } else {
          w.record_try_wait(rank_);
          pc_ = pc::check_rank;  // back off and re-examine (spin)
        }
        break;
      }
      case pc::recheck_rank: {
        const int r = w.cells_[w.slot(rank_)].rank;  // one load
        if (r != rank_) {
          w.record_skip(rank_);
          advance_rank();  // truly skipped: drop in place, stay in run
        } else {
          pc_ = pc::check_rank;
        }
        break;
      }
      case pc::finished:
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(idle_ ? 1 : 0);
    out.push_back(t_);
    out.push_back(h0_);
    out.push_back(rank_);
    out.push_back(end_);
    out.push_back(val_);
    for (int v : last_from_) out.push_back(v);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_try_consumer>(*this);
  }

 private:
  enum class pc {
    load_tail,
    load_head,
    claim,
    check_rank,
    read_data,
    release_cell,
    check_gap,
    recheck_rank,
    finished
  };

  /// A rank of the run is decided: resolve the next one, or start the
  /// next try_ call when the run is exhausted.
  void advance_rank() {
    ++rank_;
    pc_ = rank_ != end_ ? pc::check_rank : pc::load_tail;
  }

  pc pc_ = pc::load_tail;
  bool idle_ = false;
  int t_ = 0;
  int h0_ = 0;
  int rank_ = -1;
  int end_ = -1;
  int val_ = 0;
  int batch_;
  consumer_mutation mut_;
  std::vector<int> last_from_;  ///< FIFO monitor: last value per producer
};

}  // namespace ffq::model
