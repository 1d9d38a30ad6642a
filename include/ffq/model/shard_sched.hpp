// shard_sched.hpp — step-machine model of the shard fabric's consumer
// scheduler (ffq::shard::fabric, DESIGN.md §11).
//
// The fabric's producer side is Algorithm 1 verbatim (one shard per
// producer), so its machine is alg1_producer driving one shard of a
// multi-shard world: tail in world::tails_[s], ranks namespaced via
// world::kShardRankStride. What is genuinely new — and what this model
// exists to check — is the consumer scheduler's claim steps: the
// round-robin cursor visit with its non-committal emptiness check, the
// quota-bounded bulk claim, the steal scan over the other shards'
// approximate sizes, and the steal claim against a shard whose size
// estimate may be stale by claim time. Each shared-memory
// access is one step, mirroring the FFQ_CHECK_YIELD sites in shard.hpp.
//
// Modeling choices:
//   * approx_size (one tail load + one head load in the implementation)
//     is coarsened to a single step per probed shard — the probe is
//     read-only and its only role is steering, so splitting it doubles
//     scan states without exposing new protocol behaviour;
//   * each visit and steal opens with the claim_indices steps of the
//     shard's try_dequeue_bulk (head load, tail snapshot load, and the
//     tail load and snapshot store when a refresh is due), each its own
//     step;
//   * the claim is one RMW bounded by the head it finds
//     (k = min(batch, t - head_now) for the observed tail t) — one of the
//     outcomes of the implementation's CAS loop (core/ring.hpp), which
//     re-reads the indices after a lost race; either way a claim never
//     passes a published tail. The stale-head pre-check race (another
//     consumer draining the shard between the emptiness check and the
//     claim) is still fully explored.
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

/// Consumer running the fabric's shard scheduler with a fixed total
/// quota: visit the cursor's shard (non-committal emptiness check, then a
/// batch-bounded claim), resolve the claimed run with Algorithm 1's
/// rank_resolver, steal from the largest other shard when the cursor's
/// shard is dry, and advance the cursor when a visit under-fills.
class shard_consumer : public thread_m {
 public:
  shard_consumer(int start_cursor, int quota, int batch,
                 consumer_mutation mut = consumer_mutation::none)
      : cursor_(start_cursor), quota_(quota), batch_(batch), mut_(mut) {}

  bool done() const override { return taken_ == quota_ && !run_.busy(); }

  void step(world& w) override {
    const int nshards = static_cast<int>(w.heads_.size());
    if (run_.busy()) {
      if (run_.step(w, mut_) == rank_resolver::result::taken) ++taken_;
      if (!run_.busy() && taken_ != quota_ && claimed_ < batch_) {
        cursor_ = (cursor_ + 1) % nshards;  // under-filled visit: move on
      }
      return;
    }
    switch (pc_) {
      case pc::visit:
        if (idx_.starting()) active_ = cursor_;
        if (!observe(w)) break;
        // Non-committal: nothing published at probe time claims no rank.
        pc_ = idx_.t() - idx_.h() <= 0 ? pc::scan_begin : pc::claim;
        break;
      case pc::claim:
        // A racing consumer may have drained the shard after our
        // emptiness check — the stale-head race, fully explored.
        if (!claim_run(w)) pc_ = pc::scan_begin;
        break;
      case pc::scan_begin:
        // Local transition into the steal scan (no shared access — the
        // implementation's empty-poll bookkeeping).
        scan_i_ = 1;
        best_ = -1;
        best_sz_ = 0;
        pc_ = nshards > 1 ? pc::scan_probe : pc::visit;
        if (nshards <= 1) cursor_ = 0;
        break;
      case pc::scan_probe: {
        // approx_size of one shard: coarsened to a single step (see
        // header). Steering only — never claims.
        const auto s = static_cast<std::size_t>((cursor_ + scan_i_) % nshards);
        const int sz = w.tails_[s] - w.heads_[s];
        if (sz > best_sz_) {
          best_sz_ = sz;
          best_ = static_cast<int>(s);
        }
        ++scan_i_;
        if (scan_i_ < nshards) break;
        if (best_sz_ > 0) {
          pc_ = pc::steal;
        } else {
          cursor_ = (cursor_ + 1) % nshards;  // empty sweep: move on
          pc_ = pc::visit;
        }
        break;
      }
      case pc::steal:
        if (idx_.starting()) active_ = best_;
        if (observe(w)) pc_ = pc::steal_claim;
        break;
      case pc::steal_claim:
        // The target may have drained since the size probe (stale-steal
        // race, fully explored).
        if (claim_run(w)) {
          cursor_ = active_;  // keep draining the stolen shard next visit
        } else {
          cursor_ = (cursor_ + 1) % nshards;
          pc_ = pc::visit;
        }
        break;
    }
  }

  void encode(std::vector<int>& out) const override {
    out.push_back(static_cast<int>(pc_));
    out.push_back(cursor_);
    out.push_back(active_);
    out.push_back(taken_);
    out.push_back(claimed_);
    out.push_back(scan_i_);
    out.push_back(best_);
    out.push_back(best_sz_);
    idx_.encode(out);
    run_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<shard_consumer>(*this);
  }

  int taken() const { return taken_; }

 private:
  enum class pc { visit, claim, scan_begin, scan_probe, steal, steal_claim };

  /// One claim_indices step on the active shard; true once the indices
  /// are observed.
  bool observe(world& w) {
    return idx_.step(w, active_, std::min(batch_, quota_ - taken_), mut_) ==
           claim_indices::result::ready;
  }

  /// Tail-bounded claim on the active shard's head: one RMW (see header).
  /// False, claiming nothing, when the shard holds no rank below the
  /// observed tail.
  bool claim_run(world& w) {
    int& head = w.heads_[static_cast<std::size_t>(active_)];
    const int avail = idx_.t() - head;
    if (avail <= 0) return false;
    claimed_ = std::min({batch_, avail, quota_ - taken_});
    run_.begin(world::rank_of(active_, head), claimed_);
    head += claimed_;
    pc_ = pc::visit;
    return true;
  }

  pc pc_ = pc::visit;
  int cursor_;
  int active_ = 0;
  int taken_ = 0;
  int claimed_ = 0;
  int scan_i_ = 0;
  int best_ = -1;
  int best_sz_ = 0;
  int quota_;
  int batch_;
  consumer_mutation mut_;
  claim_indices idx_;
  rank_resolver run_;
};

}  // namespace ffq::model
