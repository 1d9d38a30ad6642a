// ffq_alg1.hpp — step-machine model of Algorithm 1 (FFQ^s).
//
// Every pc transition performs at most one shared-memory access, so the
// checker's interleavings are exactly the architectural interleavings of
// the pseudo-code (under SC; the implementation's acquire/release pairs
// reconstruct SC for this communication pattern).
//
// Like core/ring.hpp, the model writes the cell protocol once per side:
// `cell_writer` holds the producer's per-cell steps and `rank_resolver`
// the consumer's resolution of a claimed run, with the per-producer FIFO
// monitor. Each machine adds only what differs: which tail its cell steps
// advance, and how it claims ranks.
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

/// Algorithm 1's per-cell enqueue steps, written once for both producer
/// machines: load the rank at the tail; on a free cell store the data,
/// then publish the rank; on a cell still holding an older item announce
/// a gap and move on (lines 13–14). Each step is one shared access (a gap
/// store or publication also bumps the tail the machine passes in). The steps wait instead — returning `stalled` with the tail in
/// place — on a cell holding an item of the current call (rank ≥
/// own_from), or once a whole sweep found no free cell: the shipped
/// loop's bound, without which a full ring would grow the tail, and the
/// state space, without bound.
class cell_writer {
 public:
  enum class result { working, stalled, published };

  /// One step enqueuing `value` in `shard` at local rank `tail`. The
  /// current call's items hold local ranks [own_from, tail).
  result step(world& w, int shard, int& tail, int own_from, int value,
              producer_mutation mut) {
    const int rank = world::rank_of(shard, tail);
    cell_m& c = w.cells_[w.slot(rank)];
    switch (pc_) {
      case pc::load_rank: {
        const int r = c.rank;  // one load
        if (r < 0) {
          consec_gaps_ = 0;
          pc_ = pc::store_data;
        } else if (r < world::rank_of(shard, own_from) &&
                   consec_gaps_ < static_cast<int>(w.shard_cells_)) {
          pc_ = pc::announce_gap;
        } else {
          return result::stalled;
        }
        return result::working;
      }
      case pc::announce_gap:
        c.gap = rank;  // one store (+ tail bump)
        w.record_gap(rank);
        ++tail;
        ++consec_gaps_;
        pc_ = pc::load_rank;
        return result::working;
      case pc::store_data:
        if (mut == producer_mutation::publish_before_data) {
          c.rank = rank;  // MUTATION: publish first, write data after
          w.record_publish(rank);
          pc_ = pc::store_data_late;
        } else {
          c.data = value;  // one store
          pc_ = pc::publish;
        }
        return result::working;
      case pc::store_data_late:
        c.data = value;
        break;
      case pc::publish:
        c.rank = rank;  // linearization store
        w.record_publish(rank);
        break;
    }
    ++tail;
    pc_ = pc::load_rank;
    return result::published;
  }

  void encode(std::vector<int>& out) const {
    out.push_back(static_cast<int>(pc_));
    out.push_back(consec_gaps_);
  }

 private:
  enum class pc { load_rank, announce_gap, store_data, store_data_late, publish };

  pc pc_ = pc::load_rank;
  int consec_gaps_ = 0;
};

/// Algorithm 1's consumer side, written once for every consumer machine:
/// resolve each rank of a claimed run [rank, end) against its cell — take
/// the item, drop a skipped rank in place, or wait for the rank to be
/// decided — one shared access per step, with the per-producer FIFO
/// monitor. A machine starts a run with begin() and steps the resolver
/// while busy().
class rank_resolver {
 public:
  enum class result { working, waiting, taken };

  bool busy() const { return rank_ != end_; }
  int rank() const { return rank_; }

  void begin(int first, int k) {
    rank_ = first;
    end_ = first + k;
  }

  result step(world& w, consumer_mutation mut) {
    cell_m& c = w.cells_[w.slot(rank_)];
    switch (pc_) {
      case pc::check_rank:
        pc_ = c.rank == rank_ ? pc::read_data : pc::check_gap;  // one load
        return result::working;
      case pc::read_data:
        val_ = c.data;  // one load
        pc_ = pc::release_cell;
        return result::working;
      case pc::release_cell:
        c.rank = -1;  // linearization store
        w.record_consume(val_);
        w.record_taken_rank(rank_);
        check_fifo(w);
        decided();
        return result::taken;
      case pc::check_gap:
        if (c.gap < rank_) {  // one load
          pc_ = pc::check_rank;  // undecided: back off and re-examine
          return result::waiting;
        }
        if (mut != consumer_mutation::skip_line29_recheck) {
          pc_ = pc::recheck_rank;
          return result::working;
        }
        break;  // MUTATION: drop the rank without the re-check
      case pc::recheck_rank:
        if (c.rank == rank_) {  // one load: published before the gap
          pc_ = pc::check_rank;
          return result::working;
        }
        break;  // gap >= rank AND rank != rank: truly skipped
    }
    w.record_skip(rank_);
    decided();  // dropped in place: no fresh claim
    return result::working;
  }

  void encode(std::vector<int>& out) const {
    out.push_back(static_cast<int>(pc_));
    out.push_back(rank_);
    out.push_back(end_);
    out.push_back(val_);
    for (int v : last_from_) out.push_back(v);
  }

 private:
  enum class pc { check_rank, read_data, release_cell, check_gap, recheck_rank };

  void decided() {
    ++rank_;
    pc_ = pc::check_rank;
  }

  /// Per-producer FIFO monitor: a consumer's successive values from one
  /// producer must increase (ranks are drawn in order).
  void check_fifo(world& w) {
    const int p = w.producer_of(val_);
    if (p < 0) return;
    const auto i = static_cast<std::size_t>(p);
    if (i >= last_from_.size()) last_from_.resize(i + 1, 0);
    if (val_ <= last_from_[i]) {
      w.violation_ = "per-producer FIFO violated: saw " +
                     std::to_string(val_) + " after " +
                     std::to_string(last_from_[i]);
    }
    last_from_[i] = val_;
  }

  pc pc_ = pc::check_rank;
  int rank_ = -1;
  int end_ = -1;
  int val_ = 0;
  std::vector<int> last_from_;  ///< last value taken per producer
};

/// Single producer of Algorithm 1 driving `shard` (0 for a plain ring):
/// enqueues values first..first+count-1, one enqueue call per item. Its
/// cell steps advance the world's shard tail directly: consumers of the
/// plain ring never read it and the shard scheduler only probes it, so
/// bumping it in the step that stores a cell hides no interleaving.
class alg1_producer : public thread_m {
 public:
  alg1_producer(int first, int count,
                producer_mutation mut = producer_mutation::none, int shard = 0)
      : shard_(shard), next_(first), last_(first + count - 1), mut_(mut) {}

  bool done() const override { return next_ > last_; }
  bool is_producer() const override { return true; }

  void step(world& w) override {
    int& tail = w.tails_[static_cast<std::size_t>(shard_)];
    // An enqueue of one has no item of its own in the ring: own_from is
    // the tail. A stall waits in place (self-loop state).
    if (cell_.step(w, shard_, tail, tail, next_, mut_) ==
        cell_writer::result::published) {
      ++next_;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(next_);
    cell_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_producer>(*this);
  }

 private:
  int shard_;
  int next_;
  int last_;
  producer_mutation mut_;
  cell_writer cell_;
};

/// Producer issuing enqueue_bulk(batch) (DESIGN.md §5.8): the same cell
/// steps as alg1_producer, run on a private tail register, plus the two
/// stores of the shared tail the shipped publish loop makes — once per
/// batch, and before any full-ring wait (publish before stall; skipped
/// under producer_mutation::tail_after_batch). Scalar consumers never
/// read the tail, so for them this is indistinguishable from Algorithm 1;
/// bulk and try_ consumers bound their claims by it, so each store is a
/// separate shared step. On a full ring the producer waits on a cell that
/// holds an item of its own batch, or after a whole fruitless sweep.
class alg1_bulk_producer : public thread_m {
 public:
  alg1_bulk_producer(int first, int count, int batch,
                     producer_mutation mut = producer_mutation::none)
      : next_(first), last_(first + count - 1), batch_(batch), mut_(mut) {}

  bool done() const override { return next_ > last_ && pc_ == pc::cells; }
  bool is_producer() const override { return true; }

  void step(world& w) override {
    int& shared = w.tails_[0];
    switch (pc_) {
      case pc::cells:
        break;
      case pc::stall_publish_tail:
        shared = pt_;  // publish before stall
        pc_ = pc::cells;
        return;
      case pc::publish_tail:
        shared = pt_;  // one shared tail store per batch
        in_batch_ = 0;
        batch_start_ = pt_;
        pc_ = pc::cells;
        return;
    }
    switch (cell_.step(w, 0, pt_, batch_start_, next_, mut_)) {
      case cell_writer::result::working:
        break;
      case cell_writer::result::stalled:
        if (shared < pt_ && mut_ != producer_mutation::tail_after_batch) {
          pc_ = pc::stall_publish_tail;
        } else {
          w.record_full_stall(pt_);  // wait in place (self-loop state)
        }
        break;
      case cell_writer::result::published:
        ++next_;
        ++in_batch_;
        if (next_ > last_ || in_batch_ == batch_) pc_ = pc::publish_tail;
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(next_);
    out.push_back(pt_);
    out.push_back(in_batch_);
    out.push_back(batch_start_);
    cell_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_bulk_producer>(*this);
  }

 private:
  enum class pc { cells, stall_publish_tail, publish_tail };

  pc pc_ = pc::cells;
  int next_;
  int last_;
  int batch_;
  int pt_ = 0;  ///< private tail; the shared tail lags until a tail store
  int in_batch_ = 0;
  int batch_start_ = 0;  ///< first rank of the current batch
  producer_mutation mut_;
  cell_writer cell_;
};

/// Consumer of Algorithm 1 with a fixed dequeue quota: claims one rank
/// per fetch-and-increment of the head.
class alg1_consumer : public thread_m {
 public:
  explicit alg1_consumer(int quota, consumer_mutation mut = consumer_mutation::none)
      : quota_(quota), mut_(mut) {}

  bool done() const override { return taken_ == quota_ && !run_.busy(); }

  void step(world& w) override {
    if (!run_.busy()) {
      run_.begin(w.heads_[0]++, 1);  // fetch-and-increment: one RMW
    } else if (run_.step(w, mut_) == rank_resolver::result::taken) {
      ++taken_;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(taken_);
    run_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_consumer>(*this);
  }

  int taken() const { return taken_; }

 private:
  int taken_ = 0;
  int quota_;
  consumer_mutation mut_;
  rank_resolver run_;
};

/// Consumer issuing dequeue_bulk(batch) with a fixed total quota. The
/// claim is modelled with the implementation's exact access sequence —
/// tail load, head load, then the head fetch-and-add — so the checker
/// explores the stale-head race where another consumer advances the head
/// between the load and the RMW. Ranks of the run that turn out to be
/// gaps are dropped in place (no fresh fetch-and-add), which is the
/// property consumer_mutation::skip_line29_recheck breaks inside a run (a
/// just-published item in the run is silently dropped).
class alg1_bulk_consumer : public thread_m {
 public:
  alg1_bulk_consumer(int quota, int batch,
                     consumer_mutation mut = consumer_mutation::none)
      : quota_(quota), batch_(batch), mut_(mut) {}

  bool done() const override { return taken_ == quota_ && !run_.busy(); }

  void step(world& w) override {
    if (run_.busy()) {
      if (run_.step(w, mut_) == rank_resolver::result::taken) ++taken_;
      return;
    }
    switch (pc_) {
      case pc::load_tail:
        t_ = w.tails_[0];  // one load (acquire in the implementation)
        pc_ = pc::load_head;
        break;
      case pc::load_head:
        h0_ = w.heads_[0];  // one load; may be stale by claim time
        pc_ = pc::claim;
        break;
      case pc::claim: {
        const int avail = t_ - h0_;
        const int k = avail > 1
                          ? std::min({batch_, avail, quota_ - taken_})
                          : 1;  // empty/near-empty: claim one and park
        run_.begin(w.heads_[0], k);  // fetch-and-add: one RMW
        w.heads_[0] += k;
        pc_ = pc::load_tail;
        break;
      }
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(t_);
    out.push_back(h0_);
    out.push_back(taken_);
    run_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_bulk_consumer>(*this);
  }

  int taken() const { return taken_; }

 private:
  enum class pc { load_tail, load_head, claim };

  pc pc_ = pc::load_tail;
  int t_ = 0;
  int h0_ = 0;
  int taken_ = 0;
  int quota_;
  int batch_;
  consumer_mutation mut_;
  rank_resolver run_;
};

/// Consumer polling try_dequeue_bulk(batch) until the producers are idle
/// and the ring is empty. Same access sequence as the implementation's
/// claim loop (core/ring.hpp): tail load, head load, then a CAS of head
/// from the observed h to h + k with k = min(batch, t - h) — a failed CAS
/// re-reads both. Nothing published (t <= h) claims no rank. A wait on an
/// undecided rank of the run feeds the idle-producer oracle
/// (world::record_try_wait). consumer_mutation::faa_try_claim replaces
/// the CAS with the old fetch-and-add of k, which a racing claim can push
/// past the tail.
class alg1_try_consumer : public thread_m {
 public:
  explicit alg1_try_consumer(int batch,
                             consumer_mutation mut = consumer_mutation::none)
      : batch_(batch), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }

  void step(world& w) override {
    if (run_.busy()) {
      if (run_.step(w, mut_) == rank_resolver::result::waiting) {
        w.record_try_wait(run_.rank());
      }
      return;
    }
    switch (pc_) {
      case pc::load_tail:
        // The harness's close: producers idle before this tail load means
        // t_ is the final tail. (A monitor read, not a memory access.)
        idle_ = w.producers_idle();
        t_ = w.tails_[0];  // one load
        pc_ = pc::load_head;
        break;
      case pc::load_head:
        h0_ = w.heads_[0];  // one load
        if (t_ > h0_) {
          pc_ = pc::claim;
        } else {
          pc_ = idle_ ? pc::finished : pc::load_tail;  // try_ returned 0
        }
        break;
      case pc::claim: {
        int& head = w.heads_[0];
        pc_ = pc::load_tail;
        if (mut_ != consumer_mutation::faa_try_claim && head != h0_) {
          break;  // CAS failed: re-read tail and head
        }
        // CAS h0 -> h0 + k succeeded (MUTATION: fetch-and-add from a
        // stale size): one RMW.
        const int k = std::min(batch_, t_ - h0_);
        run_.begin(head, k);
        head += k;
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
    run_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_try_consumer>(*this);
  }

 private:
  enum class pc { load_tail, load_head, claim, finished };

  pc pc_ = pc::load_tail;
  bool idle_ = false;
  int t_ = 0;
  int h0_ = 0;
  int batch_;
  consumer_mutation mut_;
  rank_resolver run_;
};

}  // namespace ffq::model
