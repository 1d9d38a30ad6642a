// shard_sched.hpp — step-machine model of the shard fabric's consumer
// scheduler (ffq::shard::fabric, DESIGN.md §11).
//
// The fabric's producer side is Algorithm 1 verbatim (one shard per
// producer), so the producer machine here is alg1_producer re-targeted at
// a shard segment of a sharded world (world::sharded): private tail in
// shard_tails_[s], ranks namespaced via world::kShardRankStride. What is
// genuinely new — and what this model exists to check — is the consumer
// scheduler: the round-robin cursor visit with its non-committal
// emptiness check, the quota-bounded bulk claim, the steal scan over the
// other shards' approximate sizes, and the steal claim against a shard
// whose size estimate may be stale by claim time. Each shared-memory
// access is one step, mirroring the FFQ_CHECK_YIELD sites in shard.hpp.
//
// Modeling choices:
//   * approx_size (one tail load + one head load in the implementation)
//     is coarsened to a single step per probed shard — the probe is
//     read-only and its only role is steering, so splitting it doubles
//     scan states without exposing new protocol behaviour;
//   * the claim is one RMW bounded by the head it observes
//     (k = min(batch, tail_seen - head_now)) — one of the outcomes of the
//     implementation's CAS loop (core/ring.hpp), which re-reads the
//     indices after a lost race; either way a claim never passes a tail
//     it observed. The stale-head pre-check race (another consumer
//     draining the shard between the emptiness check and the claim) is
//     still fully explored.
//
// Mutations: the machines accept the alg1 mutations
// (producer_mutation::publish_before_data,
// consumer_mutation::skip_line29_recheck), and the checker proves a
// *differential* property about them: both races are MASKED in the
// scheduler. Because the shared tail is stored only after the cell is
// fully published (and gaps become tail-visible only with the next
// publication), every rank inside a tail-bounded claim is already
// decided when claimed — the §III-A consumer race and the data/rank
// store order are unobservable through the scheduler's bulk path. The
// same mutations ARE caught by the scalar alg1 models (whose committal
// fetch-and-add reaches undecided ranks), so tests assert the pair:
// flagged on --model spmc, clean on --model shard. The scalar paths
// remain reachable on a live fabric (ordered-mode refill, a scalar
// consumer sharing a shard); the masking claim is about the unordered
// scheduler only.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "ffq/model/ffq_alg1.hpp"
#include "ffq/model/world.hpp"

namespace ffq::model {

/// Single producer of Algorithm 1 driving shard `s` of a sharded world:
/// enqueues values first..first+count-1 into its own segment. Tail is
/// producer-private (shard_tails_[s] is published for size probes but
/// only this thread writes it).
class shard_producer : public thread_m {
 public:
  shard_producer(int s, int first, int count,
                 producer_mutation mut = producer_mutation::none)
      : s_(s), next_(first), last_(first + count - 1), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }
  bool is_producer() const override { return true; }

  void step(world& w) override {
    const int lt = w.shard_tails_[static_cast<std::size_t>(s_)];
    const int nrank = s_ * world::kShardRankStride + lt;
    switch (pc_) {
      case pc::load_rank: {
        const int r = w.cells_[w.slot(nrank)].rank;  // one load
        if (r >= 0) {
          pc_ = consec_gaps_ >= static_cast<int>(w.shard_cells_)
                    ? pc::load_rank  // full fruitless sweep: wait in place
                    : pc::announce_gap;
        } else {
          consec_gaps_ = 0;
          pc_ = pc::store_data;
        }
        break;
      }
      case pc::announce_gap: {
        w.cells_[w.slot(nrank)].gap = nrank;  // one store (+ tail bump)
        w.record_gap(nrank);
        w.shard_tails_[static_cast<std::size_t>(s_)] = lt + 1;
        ++consec_gaps_;
        pc_ = pc::load_rank;
        break;
      }
      case pc::store_data: {
        if (mut_ == producer_mutation::publish_before_data) {
          w.cells_[w.slot(nrank)].rank = nrank;  // MUTATION: publish first
          w.record_publish(nrank);
          pc_ = pc::store_data_late;
        } else {
          w.cells_[w.slot(nrank)].data = next_;  // one store
          pc_ = pc::publish;
        }
        break;
      }
      case pc::store_data_late: {
        w.cells_[w.slot(nrank)].data = next_;
        w.shard_tails_[static_cast<std::size_t>(s_)] = lt + 1;
        advance_item();
        break;
      }
      case pc::publish: {
        w.cells_[w.slot(nrank)].rank = nrank;  // linearization store
        w.record_publish(nrank);
        w.shard_tails_[static_cast<std::size_t>(s_)] = lt + 1;
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
    return std::make_unique<shard_producer>(*this);
  }

 private:
  enum class pc {
    load_rank,
    announce_gap,
    store_data,
    store_data_late,
    publish,
    finished
  };

  void advance_item() {
    if (next_ == last_) {
      pc_ = pc::finished;
    } else {
      ++next_;
      pc_ = pc::load_rank;
    }
  }

  pc pc_ = pc::load_rank;
  int s_;
  int next_;
  int last_;
  int consec_gaps_ = 0;
  producer_mutation mut_;
};

/// Consumer running the fabric's shard scheduler with a fixed total
/// quota: visit the cursor's shard (non-committal emptiness check, then a
/// batch-bounded claim), resolve the claimed run with the Algorithm 1
/// cell protocol, steal from the largest other shard when the cursor's
/// shard is dry, and advance the cursor when a visit under-fills.
class shard_consumer : public thread_m {
 public:
  shard_consumer(int start_cursor, int quota, int batch,
                 consumer_mutation mut = consumer_mutation::none)
      : cursor_(start_cursor), quota_(quota), batch_(batch), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }

  void step(world& w) override {
    const int nshards = static_cast<int>(w.shard_heads_.size());
    switch (pc_) {
      case pc::visit_load_tail: {
        active_ = cursor_;
        t_ = w.shard_tails_[static_cast<std::size_t>(active_)];  // one load
        pc_ = pc::visit_load_head;
        break;
      }
      case pc::visit_load_head: {
        h0_ = w.shard_heads_[static_cast<std::size_t>(active_)];  // one load
        // Non-committal: nothing published at probe time claims no rank.
        pc_ = t_ - h0_ <= 0 ? pc::scan_begin : pc::claim;
        break;
      }
      case pc::claim: {
        // Tail-bounded claim on the shard head: one RMW (see header).
        const int h = w.shard_heads_[static_cast<std::size_t>(active_)];
        const int avail = t_ - h;
        if (avail <= 0) {
          // A racing consumer drained the shard after our emptiness
          // check — the stale-head race, fully explored.
          pc_ = pc::scan_begin;
          break;
        }
        claimed_ = std::min({batch_, avail, quota_ - taken_});
        w.shard_heads_[static_cast<std::size_t>(active_)] = h + claimed_;
        rank_ = active_ * world::kShardRankStride + h;
        end_ = rank_ + claimed_;
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
        advance_rank(nshards);
        break;
      }
      case pc::check_gap: {
        const int g = w.cells_[w.slot(rank_)].gap;  // one load
        if (g >= rank_) {
          if (mut_ == consumer_mutation::skip_line29_recheck) {
            w.record_skip(rank_);  // MUTATION: drop without the re-check
            advance_rank(nshards);
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
          advance_rank(nshards);  // truly skipped: drop in place
        } else {
          pc_ = pc::check_rank;
        }
        break;
      }
      case pc::scan_begin: {
        // Local transition into the steal scan (no shared access — the
        // implementation's empty-poll bookkeeping).
        scan_i_ = 1;
        best_ = -1;
        best_sz_ = 0;
        pc_ = nshards > 1 ? pc::scan_probe : pc::visit_load_tail;
        if (nshards <= 1) cursor_ = 0;
        break;
      }
      case pc::scan_probe: {
        // approx_size of one shard: coarsened to a single step (see
        // header). Steering only — never claims.
        const int s = (cursor_ + scan_i_) % nshards;
        const int sz = w.shard_tails_[static_cast<std::size_t>(s)] -
                       w.shard_heads_[static_cast<std::size_t>(s)];
        if (sz > best_sz_) {
          best_sz_ = sz;
          best_ = s;
        }
        ++scan_i_;
        if (scan_i_ < nshards) break;
        if (best_sz_ > 0) {
          pc_ = pc::steal_load_tail;
        } else {
          cursor_ = (cursor_ + 1) % nshards;  // empty sweep: move on
          pc_ = pc::visit_load_tail;
        }
        break;
      }
      case pc::steal_load_tail: {
        active_ = best_;
        t_ = w.shard_tails_[static_cast<std::size_t>(active_)];  // one load
        pc_ = pc::steal_claim;
        break;
      }
      case pc::steal_claim: {
        // Same bounded RMW as claim; the target may have drained since
        // the size probe (stale-steal race, fully explored).
        const int h = w.shard_heads_[static_cast<std::size_t>(active_)];
        const int avail = t_ - h;
        if (avail <= 0) {
          cursor_ = (cursor_ + 1) % nshards;
          pc_ = pc::visit_load_tail;
          break;
        }
        claimed_ = std::min({batch_, avail, quota_ - taken_});
        w.shard_heads_[static_cast<std::size_t>(active_)] = h + claimed_;
        rank_ = active_ * world::kShardRankStride + h;
        end_ = rank_ + claimed_;
        cursor_ = active_;  // keep draining the stolen shard next visit
        pc_ = pc::check_rank;
        break;
      }
      case pc::finished:
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(cursor_);
    out.push_back(active_);
    out.push_back(t_);
    out.push_back(h0_);
    out.push_back(rank_);
    out.push_back(end_);
    out.push_back(val_);
    out.push_back(taken_);
    out.push_back(claimed_);
    out.push_back(scan_i_);
    out.push_back(best_);
    out.push_back(best_sz_);
    for (int v : last_from_) out.push_back(v);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<shard_consumer>(*this);
  }

  int taken() const { return taken_; }

 private:
  enum class pc {
    visit_load_tail,
    visit_load_head,
    claim,
    check_rank,
    read_data,
    release_cell,
    check_gap,
    recheck_rank,
    scan_begin,
    scan_probe,
    steal_load_tail,
    steal_claim,
    finished
  };

  /// A rank in the claimed run is decided: next rank, or end the visit —
  /// an under-filled visit advances the round-robin cursor.
  void advance_rank(int nshards) {
    ++rank_;
    if (rank_ != end_) {
      pc_ = pc::check_rank;
    } else if (taken_ == quota_) {
      pc_ = pc::finished;
    } else {
      if (claimed_ < batch_) cursor_ = (cursor_ + 1) % nshards;
      pc_ = pc::visit_load_tail;
    }
  }

  pc pc_ = pc::visit_load_tail;
  int cursor_;
  int active_ = 0;
  int t_ = 0;
  int h0_ = 0;
  int rank_ = -1;
  int end_ = -1;
  int val_ = 0;
  int taken_ = 0;
  int claimed_ = 0;
  int scan_i_ = 0;
  int best_ = -1;
  int best_sz_ = 0;
  int quota_;
  int batch_;
  consumer_mutation mut_;
  std::vector<int> last_from_;  ///< FIFO monitor: last value per producer
};

}  // namespace ffq::model
