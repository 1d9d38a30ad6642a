// ffq_alg2.hpp — step-machine model of Algorithm 2 (FFQ^m producers).
//
// Consumers are Algorithm 1's alg1_consumer (run_claim, then
// rank_resolver): the dequeue protocol is identical, and a -2 reservation
// simply fails both the rank and gap comparisons, i.e. "producer still
// writing — back off".
//
// Mutations (paper §III-B explains why each safeguard exists; tests
// prove the checker finds the bug when it is removed):
//   * alg2_mutation::claim_publishes_directly — skip the -2 reservation:
//     CAS rank straight from -1 to the final rank and write data
//     afterwards. A consumer can read the cell between the two steps and
//     consume uninitialized data (the producer/consumer race that
//     motivates the "-2" in the paper).
//   * alg2_mutation::gap_ignores_rank — announce gaps with a single-word
//     update of `gap` that does not validate `rank`. This re-enables the
//     "enqueue in the past" scenario: a producer can deposit an item at
//     a rank consumers have already skipped, losing it forever.
//   * alg2_mutation::claim_ignores_gap — claim free cells validating
//     only rank == -1, not gap. A concurrent gap announcement covering
//     our rank then slips in under the claim and the item is again
//     enqueued in the past.
#pragma once

#include <memory>
#include <vector>

#include "ffq/model/ffq_alg1.hpp"
#include "ffq/model/world.hpp"

namespace ffq::model {

enum class alg2_mutation {
  none,
  claim_publishes_directly,
  gap_ignores_rank,
  claim_ignores_gap,
  /// Re-introduces the full-ring-throttle deadlock the checker found in
  /// this repository's own MPMC implementation: waiting at an occupied
  /// cell even when it holds a LATER rank than ours (a consumer can then
  /// be parked on our rank forever). Kept as a regression memorial.
  throttle_ignores_rank_order,
};

/// One MPMC producer: enqueues values first..first+count-1; shard 0's
/// tail is the shared fetch-and-add counter.
class alg2_producer : public thread_m {
 public:
  alg2_producer(int first, int count, alg2_mutation mut = alg2_mutation::none)
      : next_(first), last_(first + count - 1), mut_(mut) {}

  bool done() const override { return pc_ == pc::finished; }
  bool is_producer() const override { return true; }

  void step(world& w) override {
    switch (pc_) {
      case pc::faa_tail: {
        rank_ = w.tails_[0]++;  // fetch-and-increment: one RMW
        pc_ = pc::load_gap;
        break;
      }
      case pc::load_gap: {
        g_ = w.cells_[w.slot(rank_)].gap;  // one load
        // gap >= rank: the rank is already in the past — abandon it.
        pc_ = g_ >= rank_ ? pc::faa_tail : pc::load_rank;
        break;
      }
      case pc::load_rank: {
        r_ = w.cells_[w.slot(rank_)].rank;  // one load
        if (r_ >= 0) {
          // Same full-ring throttle as the implementation (and as the
          // Alg. 1 model): after one sweep's worth of gap announcements
          // within an enqueue, wait at the current cell instead of
          // burning more ranks (bounds the model's state space).
          //
          // The wait is sound only while the cell holds an OLDER rank;
          // if a later rank already sits here, a consumer may be parked
          // on ours and the gap must be announced. The checker found the
          // deadlock when this condition was missing — the implementation
          // carries the same fix (core/mpmc.hpp).
          const bool wait_ok =
              mut_ == alg2_mutation::throttle_ignores_rank_order || r_ < rank_;
          pc_ = (gaps_this_call_ >= static_cast<int>(w.cells_.size()) && wait_ok)
                    ? pc::load_gap
                    : pc::gap_dwcas;
        } else if (r_ == -1) {
          pc_ = pc::claim_dwcas;
        } else {  // -2: another producer is mid-write; re-examine
          pc_ = pc::load_gap;
        }
        break;
      }
      case pc::gap_dwcas: {
        cell_m& c = w.cells_[w.slot(rank_)];
        const bool rank_ok =
            mut_ == alg2_mutation::gap_ignores_rank || c.rank == r_;
        if (rank_ok && c.gap == g_) {  // one DWCAS
          c.gap = rank_;
          w.record_gap(rank_);
          ++gaps_this_call_;
          pc_ = pc::faa_tail;  // gap announced; acquire a fresh rank
        } else {
          pc_ = pc::load_gap;  // contention: re-examine the cell
        }
        break;
      }
      case pc::claim_dwcas: {
        cell_m& c = w.cells_[w.slot(rank_)];
        const bool gap_ok =
            mut_ == alg2_mutation::claim_ignores_gap || c.gap == g_;
        if (c.rank == -1 && gap_ok) {  // one DWCAS
          if (mut_ == alg2_mutation::claim_publishes_directly) {
            c.rank = rank_;  // MUTATION: publish before the data exists
            w.record_publish(rank_);
            pc_ = pc::store_data_late;
          } else {
            c.rank = -2;  // reserve
            pc_ = pc::store_data;
          }
        } else {
          pc_ = pc::load_gap;
        }
        break;
      }
      case pc::store_data: {
        w.cells_[w.slot(rank_)].data = next_;  // one store
        pc_ = pc::publish;
        break;
      }
      case pc::store_data_late: {
        w.cells_[w.slot(rank_)].data = next_;
        advance_item();
        break;
      }
      case pc::publish: {
        w.cells_[w.slot(rank_)].rank = rank_;  // linearization store
        w.record_publish(rank_);
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
    out.push_back(rank_);
    out.push_back(g_);
    out.push_back(r_);
    out.push_back(gaps_this_call_);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<alg2_producer>(*this);
  }

 private:
  enum class pc {
    faa_tail,
    load_gap,
    load_rank,
    gap_dwcas,
    claim_dwcas,
    store_data,
    store_data_late,
    publish,
    finished
  };

  void advance_item() {
    gaps_this_call_ = 0;
    if (next_ == last_) {
      pc_ = pc::finished;
    } else {
      ++next_;
      pc_ = pc::faa_tail;
    }
  }

  pc pc_ = pc::faa_tail;
  int next_;
  int last_;
  int rank_ = -1;
  int g_ = -1;
  int r_ = -1;
  int gaps_this_call_ = 0;
  alg2_mutation mut_;
};

}  // namespace ffq::model
