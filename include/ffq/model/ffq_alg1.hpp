// ffq_alg1.hpp — step-machine model of Algorithm 1 (FFQ^s).
//
// Every pc transition performs at most one shared-memory access, so the
// checker's interleavings are exactly the architectural interleavings of
// the pseudo-code (under SC; the implementation's acquire/release pairs
// reconstruct SC for this communication pattern).
//
// The model has one machine per loop of core/ring.hpp: `alg1_producer`
// is publish, `run_claim` is claim_run and `rank_resolver` is
// resolve_rank; `alg1_consumer` is the take loop over the last two, and
// the shard scheduler (shard_sched.hpp) claims through the same
// run_claim. Scalar calls are the batch-of-one case, as in the code.
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
//   * producer_mutation::tail_after_batch — the producer stores the
//     shared tail only after the whole call, even when it waits on a
//     full ring first; try_ consumers then see an empty ring that never
//     drains (world::record_full_stall).
//   * consumer_mutation::faa_try_claim — a try claim takes its run with a
//     fetch-and-add sized from a stale head instead of a CAS, so a racing
//     claim pushes it past the tail, onto ranks an idle producer never
//     writes (world::record_try_wait).
//   * consumer_mutation::snapshot_ahead — a refresh of the tail snapshot
//     stores tail + 1, a rank the producer has not published; a later
//     claim sized by the snapshot waits on it (world::record_try_wait).
//   * consumer_mutation::stale_empty — "nothing published" is decided on
//     the snapshot without loading the tail, so a try_ consumer reports
//     an empty ring while items wait below the tail; they stay unconsumed.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "ffq/model/world.hpp"

namespace ffq::model {

enum class producer_mutation { none, publish_before_data, tail_after_batch };
enum class consumer_mutation {
  none,
  skip_line29_recheck,
  faa_try_claim,
  snapshot_ahead,
  stale_empty
};

/// core/ring.hpp's publish: a single producer driving `shard` (0 for a
/// plain ring) enqueues values first..first+count-1 in calls of up to
/// `batch` items (1: the scalar enqueue). Its cell steps run on a private
/// tail: load the rank at the tail; on a free cell store the data, then
/// publish the rank; on a cell still holding an older item announce a gap
/// and move on (lines 13–14). It waits instead, with the tail in place, on
/// a cell holding an item of the current call, or once a whole sweep found
/// no free cell: the shipped loop's bound, without which a full ring
/// would grow the tail, and the state space, without bound. The shared
/// tail is stored once per call, and before a full-ring wait when it lags
/// the private one (publish before stall). Each store is its own step,
/// since run and try_ claims, and the shard scheduler's size probes, read
/// the tail.
class alg1_producer : public thread_m {
 public:
  alg1_producer(int first, int count, int batch = 1,
                producer_mutation mut = producer_mutation::none, int shard = 0)
      : shard_(shard),
        next_(first),
        last_(first + count - 1),
        batch_(batch),
        mut_(mut) {}

  bool done() const override { return next_ > last_ && pc_ == pc::load_rank; }
  bool is_producer() const override { return true; }

  void step(world& w) override {
    int& shared = w.tails_[static_cast<std::size_t>(shard_)];
    const int rank = world::rank_of(shard_, pt_);
    cell_m& c = w.cells_[w.slot(rank)];
    switch (pc_) {
      case pc::load_rank: {
        const int r = c.rank;  // one load
        if (r < 0) {
          consec_gaps_ = 0;
          pc_ = pc::store_data;
        } else if (r < world::rank_of(shard_, call_start_) &&
                   consec_gaps_ < static_cast<int>(w.shard_cells_)) {
          pc_ = pc::announce_gap;
        } else if (shared < pt_ &&
                   mut_ != producer_mutation::tail_after_batch) {
          pc_ = pc::stall_store_tail;
        } else {
          w.record_full_stall(shard_, pt_);  // wait in place (self-loop)
        }
        return;
      }
      case pc::announce_gap:
        c.gap = rank;  // one store
        w.record_gap(rank);
        ++pt_;
        ++consec_gaps_;
        pc_ = pc::load_rank;
        return;
      case pc::store_data:
        if (mut_ == producer_mutation::publish_before_data) {
          c.rank = rank;  // MUTATION: publish first, write data after
          w.record_publish(rank);
          pc_ = pc::store_data_late;
        } else {
          c.data = next_;  // one store
          pc_ = pc::publish;
        }
        return;
      case pc::store_data_late:
        c.data = next_;
        break;
      case pc::publish:
        c.rank = rank;  // linearization store
        w.record_publish(rank);
        break;
      case pc::stall_store_tail:
        shared = pt_;  // publish before stall
        pc_ = pc::load_rank;
        return;
      case pc::store_tail:
        shared = pt_;  // the call's one shared tail store
        in_call_ = 0;
        call_start_ = pt_;
        pc_ = pc::load_rank;
        return;
    }
    ++pt_;  // published
    ++next_;
    ++in_call_;
    pc_ = next_ > last_ || in_call_ == batch_ ? pc::store_tail : pc::load_rank;
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(next_);
    out.push_back(pt_);
    out.push_back(in_call_);
    out.push_back(call_start_);
    out.push_back(consec_gaps_);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_producer>(*this);
  }

 private:
  enum class pc {
    load_rank,
    announce_gap,
    store_data,
    store_data_late,
    publish,
    stall_store_tail,
    store_tail
  };

  pc pc_ = pc::load_rank;
  int shard_;
  int next_;
  int last_;
  int batch_;
  int pt_ = 0;  ///< private tail; the shared tail lags until a tail store
  int in_call_ = 0;
  int call_start_ = 0;  ///< first rank of the current call
  int consec_gaps_ = 0;
  producer_mutation mut_;
};

/// core/ring.hpp's resolve_rank over a claimed run [rank, end), written
/// once for every consumer machine: take each rank's item, drop a skipped
/// rank in place, or wait for the rank to be decided, one shared access
/// per step, with the per-producer FIFO monitor. A machine starts a run
/// with begin() and steps the resolver while busy().
class rank_resolver {
 public:
  enum class result { working, waiting, taken };

  bool busy() const { return rank_ != end_; }
  int rank() const { return rank_; }
  /// Ranks of the run not yet decided.
  int left() const { return end_ - rank_; }

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

/// core/ring.hpp's claim_run<Try, Bulk>(max_n) on one shard, one shared
/// access per step. A blocking claim of one rank (a scalar call, or
/// max_n == 1) is the paper's bare fetch-and-increment. Every other claim
/// first loads the indices as the shipped loop does: head, the shard's
/// tail snapshot and, only when the snapshot does not cover a run of
/// max_n ranks (t − h < max_n, which includes "nothing published"), the
/// tail, storing it into the snapshot if it differs. Then one RMW sized
/// by the pair it loaded: a blocking claim fetch-and-adds
/// k = max(1, min(max_n, t − h)), so on an empty ring it takes one rank
/// and waits on it; a try claim (Try) claims nothing when nothing is
/// published (t <= h) and otherwise CASes head from h to h + k, re-reading
/// the indices when the CAS fails. The step that claims begins the run on
/// the caller's rank_resolver.
class run_claim {
 public:
  enum class result { working, claimed, empty };

  explicit run_claim(bool try_claim) : try_(try_claim) {}

  /// True before the claim's first access.
  bool starting() const { return pc_ == pc::load_head; }

  result step(world& w, int shard, int max_n, consumer_mutation mut,
              rank_resolver& run) {
    const auto s = static_cast<std::size_t>(shard);
    int& head = w.heads_[s];
    switch (pc_) {
      case pc::load_head:
        if (!try_ && max_n == 1) {
          run.begin(world::rank_of(shard, head++), 1);  // fetch-and-increment
          return result::claimed;
        }
        h_ = head;  // one load
        pc_ = pc::load_snapshot;
        return result::working;
      case pc::load_snapshot:
        t_ = w.tail_seen_[s];  // one load (acquire)
        seen_ = t_;
        // MUTATION stale_empty: an empty-looking snapshot is believed.
        if (t_ - h_ >= max_n ||
            (mut == consumer_mutation::stale_empty && t_ <= h_)) {
          return sized();
        }
        pc_ = pc::load_tail;
        return result::working;
      case pc::load_tail:
        t_ = w.tails_[s];  // one load (acquire)
        if (t_ == seen_) return sized();
        pc_ = pc::store_snapshot;
        return result::working;
      case pc::store_snapshot:
        // One store (release). MUTATION snapshot_ahead: one rank past the
        // tail the refresh loaded.
        w.tail_seen_[s] =
            mut == consumer_mutation::snapshot_ahead ? t_ + 1 : t_;
        return sized();
      case pc::claim:
        break;
    }
    pc_ = pc::load_head;
    if (try_ && mut != consumer_mutation::faa_try_claim && head != h_) {
      return result::working;  // CAS failed: re-read the indices
    }
    // One RMW: the fetch-and-add, or the CAS h -> h + k that succeeded.
    // MUTATION faa_try_claim: a try claim fetch-and-adds that k, sized
    // from a head a racing claim may have moved.
    const int k = std::max(1, std::min(max_n, t_ - h_));
    run.begin(world::rank_of(shard, head), k);
    head += k;
    return result::claimed;
  }

  void encode(std::vector<int>& out) const {
    out.push_back(static_cast<int>(pc_));
    out.push_back(h_);
    out.push_back(t_);
    out.push_back(seen_);
  }

 private:
  enum class pc { load_head, load_snapshot, load_tail, store_snapshot, claim };

  /// The indices are loaded: a try claim with nothing published ends
  /// with no rank, every other claim makes its RMW next.
  result sized() {
    if (try_ && t_ <= h_) {
      pc_ = pc::load_head;
      return result::empty;
    }
    pc_ = pc::claim;
    return result::working;
  }

  bool try_;
  pc pc_ = pc::load_head;
  int h_ = 0;
  int t_ = 0;
  int seen_ = 0;  ///< the snapshot this claim loaded
};

/// core/ring.hpp's take loop on a plain ring: claim a run through
/// run_claim, resolve its ranks in order with rank_resolver (gap ranks
/// are dropped in place, and a run that was all gaps claims again). A
/// blocking consumer makes dequeue (batch 1) or dequeue_bulk(batch) calls
/// until it has taken `quota` items. A polling consumer (quota kPoll)
/// makes try_dequeue_bulk(batch) calls until one claims nothing after the
/// producers went idle; a wait on an undecided rank of its run feeds the
/// idle-producer oracle (world::record_try_wait).
class alg1_consumer : public thread_m {
 public:
  static constexpr int kPoll = 0;

  explicit alg1_consumer(int quota, int batch = 1,
                         consumer_mutation mut = consumer_mutation::none)
      : quota_(quota), batch_(batch), mut_(mut), claim_(quota == kPoll) {}

  bool done() const override {
    return polling() ? finished_ : taken_ == quota_ && !run_.busy();
  }

  void step(world& w) override {
    if (run_.busy()) {
      const auto r = run_.step(w, mut_);
      if (polling()) {
        if (r == rank_resolver::result::waiting) w.record_try_wait(run_.rank());
      } else if (r == rank_resolver::result::taken) {
        ++taken_;
      }
      return;
    }
    // The harness's close: producers idle before the head load means any
    // tail this claim loads is the final tail. (A monitor read, not a
    // memory access.)
    if (polling() && claim_.starting()) idle_ = w.producers_idle();
    const int max_n = polling() ? batch_ : std::min(batch_, quota_ - taken_);
    if (claim_.step(w, 0, max_n, mut_, run_) == run_claim::result::empty &&
        idle_) {
      finished_ = true;  // try_ returned 0 on a finished producer
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(taken_);
    out.push_back(idle_ ? 1 : 0);
    out.push_back(finished_ ? 1 : 0);
    claim_.encode(out);
    run_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg1_consumer>(*this);
  }

 private:
  bool polling() const { return quota_ == kPoll; }

  int taken_ = 0;
  int quota_;
  int batch_;
  bool idle_ = false;
  bool finished_ = false;
  consumer_mutation mut_;
  run_claim claim_;
  rank_resolver run_;
};

}  // namespace ffq::model
