// Model-checking tests: exhaustively explore every interleaving of the
// Algorithm 1 / Algorithm 2 state machines for small configurations
// (dfs_explore with an unbounded preemption budget).
//
// Two kinds of assertions:
//  * the faithful models PASS (no safety violation, every reachable
//    state can complete) — a machine-checked version of the paper's
//    Propositions 1–3 for bounded configurations;
//  * each mutation that removes one of the paper's §III safeguards is
//    CAUGHT — which both validates the safeguards and proves the explorer
//    is actually capable of finding these bugs.
#include <gtest/gtest.h>

#include <memory>

#include "ffq/check/explore.hpp"
#include "ffq/model/ffq_alg1.hpp"
#include "ffq/model/ffq_alg2.hpp"

using namespace ffq::model;
using ffq::check::dfs_options;
using ffq::check::explore_result;

namespace {

/// Every interleaving from `w` (no preemption bound), safety and liveness.
explore_result explore_all(const world& w, std::size_t max_states = 4'000'000) {
  dfs_options opt;
  opt.preemption_bound = dfs_options::kUnbounded;
  opt.max_states = max_states;
  return ffq::check::dfs_explore(w, opt);
}

/// 1 producer of `items` values, consumers with the given quotas.
world make_alg1(std::size_t cells, int items, std::vector<int> quotas,
                producer_mutation pmut = producer_mutation::none,
                consumer_mutation cmut = consumer_mutation::none) {
  world w(cells, items);
  w.producer_ranges_ = {{1, items}};
  w.threads_.push_back(std::make_unique<alg1_producer>(1, items, 1, pmut));
  for (int q : quotas) {
    w.threads_.push_back(std::make_unique<alg1_consumer>(q, 1, cmut));
  }
  return w;
}

/// Bulk variant of make_alg1: 1 producer enqueueing `items` values in
/// batches of `pbatch` (single tail store per batch); consumers run
/// dequeue_bulk with run size `cbatch` (1: scalar dequeues).
world make_alg1_bulk(std::size_t cells, int items, int pbatch, int cbatch,
                     std::vector<int> quotas,
                     producer_mutation pmut = producer_mutation::none,
                     consumer_mutation cmut = consumer_mutation::none) {
  world w(cells, items);
  w.producer_ranges_ = {{1, items}};
  w.threads_.push_back(std::make_unique<alg1_producer>(1, items, pbatch, pmut));
  for (int q : quotas) {
    w.threads_.push_back(std::make_unique<alg1_consumer>(q, cbatch, cmut));
  }
  return w;
}

/// `producers` MPMC producers with `per` values each + consumers.
world make_alg2(std::size_t cells, int producers, int per,
                std::vector<int> quotas,
                alg2_mutation mut = alg2_mutation::none) {
  world w(cells, producers * per);
  for (int p = 0; p < producers; ++p) {
    w.producer_ranges_.emplace_back(p * per + 1, (p + 1) * per);
    w.threads_.push_back(std::make_unique<alg2_producer>(p * per + 1, per, mut));
  }
  for (int q : quotas) {
    w.threads_.push_back(std::make_unique<alg1_consumer>(q));
  }
  return w;
}

}  // namespace

// ---------------------------------------------------------------------------
// Faithful models: must verify. The pinned counts are the full
// interleaving graph's distinct states and distinct terminal states.
// ---------------------------------------------------------------------------

TEST(ModelAlg1, SingleConsumerVerifies) {
  const auto r = explore_all(make_alg1(2, 3, {3}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 362u);
  EXPECT_EQ(r.terminals, 3u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg1, TwoConsumersVerify) {
  const auto r = explore_all(make_alg1(2, 3, {2, 1}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 3078u);
  EXPECT_EQ(r.terminals, 9u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg1, TwoConsumersLargerRingVerifies) {
  const auto r = explore_all(make_alg1(4, 4, {2, 2}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 2693u);
  EXPECT_EQ(r.terminals, 4u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg1, ThreeConsumersVerify) {
  const auto r = explore_all(make_alg1(2, 4, {2, 1, 1}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 132256u);
  EXPECT_EQ(r.terminals, 104u);
}

TEST(ModelAlg2, TwoProducersOneConsumerVerifies) {
  const auto r = explore_all(make_alg2(2, 2, 2, {4}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 389157u);
  EXPECT_EQ(r.terminals, 112u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg2, TwoProducersTwoConsumersVerify) {
  // One item per producer keeps two consumers tractable (the 2x2-item
  // two-consumer graph exceeds the state budget).
  const auto r = explore_all(make_alg2(2, 2, 1, {1, 1}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 1537u);
  EXPECT_EQ(r.terminals, 4u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg2, SingleCellRingVerifies) {
  // One cell maximizes collisions: every rank maps to the same cell.
  const auto r = explore_all(make_alg2(1, 2, 2, {4}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 510315u);
  EXPECT_EQ(r.terminals, 138u);
  EXPECT_TRUE(r.exhausted);
}

// ---------------------------------------------------------------------------
// Batched operations (DESIGN.md §5.8): the bulk machines keep Algorithm 1's
// cell protocol, so the scalar invariants must carry over verbatim.
// ---------------------------------------------------------------------------

TEST(ModelAlg1Bulk, BulkProducerWithScalarConsumersVerifies) {
  // enqueue_bulk defers the shared tail store to the batch boundary;
  // scalar consumers never read the tail, so every interleaving must
  // still deliver exactly once in FIFO order.
  const auto r =
      explore_all(make_alg1_bulk(2, 3, /*pbatch=*/2, /*cbatch=*/1, {2, 1}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 3037u);
  EXPECT_EQ(r.terminals, 9u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg1Bulk, BulkProducerWithBulkConsumerVerifies) {
  const auto r =
      explore_all(make_alg1_bulk(2, 3, /*pbatch=*/2, /*cbatch=*/2, {3}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 989u);
  EXPECT_EQ(r.terminals, 11u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg1Bulk, TwoBulkConsumersVerify) {
  // A run claim racing the quota-1 consumer's bare fetch-and-add, and
  // runs that land on gap ranks; both must preserve exactly-once and
  // liveness.
  const auto r =
      explore_all(make_alg1_bulk(2, 3, /*pbatch=*/2, /*cbatch=*/2, {2, 1}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 7620u);
  EXPECT_EQ(r.terminals, 28u);
  EXPECT_TRUE(r.exhausted);
}

TEST(ModelAlg1Bulk, TwoRunClaimsVerify) {
  // Two consumers whose claims are both runs expose the stale-head race
  // between two run claims (head loaded, then fetched-and-added in a
  // separate step).
  const auto r =
      explore_all(make_alg1_bulk(2, 4, /*pbatch=*/2, /*cbatch=*/2, {2, 2}));
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(r.states, 134534u);
  EXPECT_EQ(r.terminals, 306u);
  EXPECT_TRUE(r.exhausted);
}

// ---------------------------------------------------------------------------
// Mutations: the explorer must catch each removed safeguard.
// ---------------------------------------------------------------------------

TEST(ModelAlg1, PublishBeforeDataIsCaught) {
  // Swapping lines 16/17 lets a consumer read data that was never
  // written (or a stale value from a previous round).
  const auto r = explore_all(make_alg1(2, 3, {2, 1},
                                       producer_mutation::publish_before_data));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("safety"), std::string::npos) << r.violation;
}

TEST(ModelAlg1, SkippingLine29RecheckIsCaught) {
  // Without the rank != rank re-check, a consumer abandons a rank whose
  // item was already published. The gap-accounting monitor flags the
  // skip-of-a-published-rank on the exact edge (it used to surface only
  // downstream, as a liveness wedge).
  const auto r = explore_all(make_alg1(2, 4, {2, 2}, producer_mutation::none,
                                       consumer_mutation::skip_line29_recheck));
  EXPECT_FALSE(r.ok) << "states=" << r.states;
  EXPECT_NE(r.violation.find("safety"), std::string::npos) << r.violation;
  EXPECT_NE(r.violation.find("gap-accounting"), std::string::npos)
      << r.violation;
}

TEST(ModelAlg1Bulk, PublishBeforeDataInBulkIsCaught) {
  // The line 16/17 ordering is per cell, not per batch: deferring the
  // tail store buys no licence to publish a rank before its data.
  const auto r = explore_all(
      make_alg1_bulk(2, 3, /*pbatch=*/2, /*cbatch=*/1, {2, 1},
                     producer_mutation::publish_before_data));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("safety"), std::string::npos) << r.violation;
}

TEST(ModelAlg1Bulk, SkippingRecheckInsideClaimedRunIsCaught) {
  // Dropping a rank of the claimed run on gap >= rank alone (without the
  // line-29 rank re-check) loses a just-published item exactly as in the
  // scalar protocol; the claimed-run bookkeeping must not mask it.
  const auto r = explore_all(
      make_alg1_bulk(2, 4, /*pbatch=*/2, /*cbatch=*/2, {2, 2},
                     producer_mutation::none,
                     consumer_mutation::skip_line29_recheck));
  EXPECT_FALSE(r.ok) << "states=" << r.states;
  EXPECT_FALSE(r.violation.empty());
}

TEST(ModelAlg2, DirectPublishWithoutReserveIsCaught) {
  const auto r = explore_all(make_alg2(2, 2, 2, {2, 2},
                                       alg2_mutation::claim_publishes_directly));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("safety"), std::string::npos) << r.violation;
}

TEST(ModelAlg2, GapIgnoringRankIsCaught) {
  // The "enqueue in the past" race of §III-B, now named as such: the
  // monitor flags the publish onto an already-skipped rank on the exact
  // edge (previously only visible as the downstream liveness wedge).
  const auto r = explore_all(make_alg2(1, 2, 2, {4},
                                       alg2_mutation::gap_ignores_rank));
  EXPECT_FALSE(r.ok) << "states=" << r.states;
  EXPECT_NE(r.violation.find("safety"), std::string::npos) << r.violation;
  EXPECT_NE(r.violation.find("enqueue in the past"), std::string::npos)
      << r.violation;
}

TEST(ModelAlg2, ClaimIgnoringGapIsCaught) {
  const auto r = explore_all(make_alg2(1, 2, 2, {4},
                                       alg2_mutation::claim_ignores_gap));
  EXPECT_FALSE(r.ok) << "states=" << r.states;
  EXPECT_NE(r.violation.find("safety"), std::string::npos) << r.violation;
}

TEST(ModelAlg2, ThrottleDeadlockRegressionIsCaught) {
  // Regression memorial: the checker found this deadlock in our own
  // MPMC implementation (full-ring throttle waiting on a cell that
  // holds a LATER rank). The mutation re-introduces the bug; the fixed
  // model/implementation pass the Verifies tests above.
  const world w = make_alg2(1, 2, 2, {4},
                            alg2_mutation::throttle_ignores_rank_order);
  const auto r = explore_all(w);
  EXPECT_FALSE(r.ok) << "states=" << r.states;
  EXPECT_NE(r.violation.find("liveness: 30692 reachable state(s) cannot "
                             "reach completion"),
            std::string::npos)
      << r.violation;
  ASSERT_FALSE(r.witness.picks.empty());

  // The witness leads to a wedged state: from there no schedule at all
  // completes.
  world stuck(w);
  for (const int tid : r.witness.picks) {
    stuck.threads_[static_cast<std::size_t>(tid)]->step(stuck);
  }
  const auto from_stuck = explore_all(stuck);
  EXPECT_EQ(from_stuck.violation, "liveness: no schedule completes at all");
}

// ---------------------------------------------------------------------------
// Checker mechanics.
// ---------------------------------------------------------------------------

TEST(ModelChecker, ReportsInexhaustiveOnTinyBudget) {
  const auto r = explore_all(make_alg1(2, 3, {2, 1}), /*max_states=*/50);
  EXPECT_FALSE(r.exhausted);

  // A truncated graph skips the liveness phase: the throttle deadlock,
  // found on the full graph, gets no verdict either way.
  const auto t = explore_all(
      make_alg2(1, 2, 2, {4}, alg2_mutation::throttle_ignores_rank_order),
      /*max_states=*/50);
  EXPECT_FALSE(t.exhausted);
  EXPECT_TRUE(t.ok) << t.violation;
}

TEST(ModelChecker, WorldEncodingDistinguishesStates) {
  world a = make_alg1(2, 2, {2});
  world b = make_alg1(2, 2, {2});
  EXPECT_EQ(a.encode(), b.encode());
  b.threads_[0]->step(b);
  EXPECT_NE(a.encode(), b.encode());
}

TEST(ModelChecker, DuplicateConsumeIsFlaggedByWorld) {
  world w(2, 3);
  w.record_consume(2);
  EXPECT_TRUE(w.violation_.empty());
  w.record_consume(2);
  EXPECT_FALSE(w.violation_.empty());
}

TEST(ModelChecker, OutOfRangeConsumeIsFlagged) {
  world w(2, 3);
  w.record_consume(0);  // "uninitialized data" marker
  EXPECT_FALSE(w.violation_.empty());
}
