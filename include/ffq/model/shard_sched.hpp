// shard_sched.hpp — step-machine model of the shard fabric's consumer
// scheduler (ffq::shard::fabric, DESIGN.md §11).
//
// The fabric's producer side is Algorithm 1 verbatim (one shard per
// producer), so its machine is alg1_producer driving one shard of a
// multi-shard world: tail in world::tails_[s], ranks namespaced via
// world::kShardRankStride. Its claims are core/ring.hpp's try claim
// (fabric::claim_from calls claim_run<true, true>), so the consumer claims
// through run_claim, step for step. What is genuinely new, and what this
// model exists to check, is the scheduler around the claim: the
// round-robin cursor visit, whose claim finds nothing published without
// claiming a rank, the steal scan over the other shards' approximate
// sizes, the steal claim against a shard whose size estimate may be stale
// by claim time, and the cursor's move after a visit that under-fills.
// Each shared-memory access is one step, mirroring the FFQ_CHECK_YIELD
// sites in shard.hpp.
//
// Modeling choice: approx_size (one tail load + one head load in the
// implementation) is coarsened to a single step per probed shard. The
// probe is read-only and its only role is steering, so splitting it
// doubles scan states without exposing new protocol behaviour.
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
/// quota: claim from the cursor's shard through run_claim (the try claim,
/// as fabric::claim_from makes it), resolve the claimed run with
/// Algorithm 1's rank_resolver, steal from the largest other shard when
/// the cursor's shard is dry, and advance the cursor when a visit
/// under-fills.
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
        if (claim_.starting()) active_ = cursor_;
        // Nothing published claims no rank: steal instead.
        if (claim(w) == run_claim::result::empty) pc_ = pc::scan_begin;
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
        if (claim_.starting()) active_ = best_;
        // The target may have drained since the size probe (stale-steal
        // race, fully explored).
        switch (claim(w)) {
          case run_claim::result::working:
            return;
          case run_claim::result::claimed:
            cursor_ = active_;  // keep draining the stolen shard next visit
            break;
          case run_claim::result::empty:
            cursor_ = (cursor_ + 1) % nshards;
            break;
        }
        pc_ = pc::visit;
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
    claim_.encode(out);
    run_.encode(out);
  }

  std::unique_ptr<thread_m> clone() const override {
    return std::make_unique<shard_consumer>(*this);
  }

 private:
  enum class pc { visit, scan_begin, scan_probe, steal };

  /// One step of the active shard's try claim; a claimed run's size is
  /// the visit's fill.
  run_claim::result claim(world& w) {
    const auto r = claim_.step(w, active_, std::min(batch_, quota_ - taken_),
                               mut_, run_);
    if (r == run_claim::result::claimed) claimed_ = run_.left();
    return r;
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
  run_claim claim_{true};
  rank_resolver run_;
};

}  // namespace ffq::model
