// Differential checking across the FFQ family: the same seeded program,
// run to completion over every queue that supports its shape, must hand
// out the same dequeue multiset (exactly what went in) and the same
// per-producer orders. Any divergence localizes a bug to one variant —
// the queues implement one contract, so they must agree item-for-item.
//
// The programs run under the cooperative scheduler with live
// FFQ_CHECK_YIELD() points (defined before any include), so every run is
// a deterministic function of (queue type, seed): failures reproduce
// from the printed schedule via `check_explore --queue <q> --replay`.
#ifndef FFQ_CHECK
#define FFQ_CHECK 1
#endif

#include "ffq/check/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/shard/shard.hpp"

namespace chk = ffq::check;

namespace {

using q_spsc = ffq::core::spsc_queue<long long>;
using q_spmc = ffq::core::spmc_queue<long long>;
using q_mpmc = ffq::core::mpmc_queue<long long>;
using q_wait = ffq::core::waitable_spsc_queue<long long>;
using q_shard = ffq::shard::fabric<long long, false>;
using q_shard_ord = ffq::shard::fabric<long long, true>;

/// What one run of the fixed program handed out.
struct run_output {
  std::vector<long long> dequeued_sorted;       ///< ascending
  std::vector<std::vector<long long>> streams;  ///< per consumer, in order
};

/// One run of the fixed program over Queue under the given seed; the run
/// must already satisfy the oracles on its own (the harness checks them)
/// — the differential layer then compares runs *across* queues.
template <typename Queue>
run_output run_seeded(const chk::program_config& cfg, std::uint64_t seed) {
  chk::random_driver d(seed);
  chk::program<Queue> p(cfg);
  const chk::explore_result r = chk::run_schedule(p, d);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
  run_output out{{}, p.streams};
  for (const auto& s : p.streams) {
    out.dequeued_sorted.insert(out.dequeued_sorted.end(), s.begin(), s.end());
  }
  std::sort(out.dequeued_sorted.begin(), out.dequeued_sorted.end());
  return out;
}

/// Each producer's items in the order the consumer streams delivered
/// them, streams taken in consumer order. With one consumer this is the
/// whole observable per-producer order.
std::map<long long, std::vector<long long>> per_producer_orders(
    const run_output& r) {
  std::map<long long, std::vector<long long>> out;
  for (const auto& s : r.streams) {
    for (long long v : s) out[v / chk::kProducerStride].push_back(v);
  }
  return out;
}

/// The seeded program run twice over Queue — scalar calls, then
/// enqueue_bulk / try_dequeue_bulk batches — must hand out the same
/// multiset and, with one consumer, the same per-producer orders.
template <typename Queue>
void expect_scalar_and_bulk_agree(chk::program_config scalar) {
  auto bulk = scalar;
  bulk.enqueue_batch = 3;
  bulk.dequeue_batch = 2;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto a = run_seeded<Queue>(scalar, seed);
    const auto b = run_seeded<Queue>(bulk, seed);
    ASSERT_EQ(a.dequeued_sorted, b.dequeued_sorted) << "seed " << seed;
    if (scalar.consumers == 1) {
      ASSERT_EQ(per_producer_orders(a), per_producer_orders(b))
          << "seed " << seed;
    }
  }
}

chk::program_config shape(int producers, int consumers, int items) {
  chk::program_config cfg;
  cfg.capacity = 4;  // smaller than the item count: wraps and full-ring
  cfg.producers = producers;
  cfg.consumers = consumers;
  cfg.items_per_producer = items;
  return cfg;
}

}  // namespace

// Single-producer / single-consumer program: every queue in the family
// supports it, and with one consumer the per-producer-FIFO guarantee
// collapses to *exact stream equality* — all four queues must emit the
// identical sequence, not just the identical multiset.
TEST(Differential, SpscShapeAgreesAcrossAllFourQueues) {
  const auto cfg = shape(1, 1, 10);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto a = run_seeded<q_spsc>(cfg, seed);
    const auto b = run_seeded<q_spmc>(cfg, seed);
    const auto c = run_seeded<q_mpmc>(cfg, seed);
    const auto d = run_seeded<q_wait>(cfg, seed);
    ASSERT_EQ(a.dequeued_sorted, b.dequeued_sorted) << "seed " << seed;
    ASSERT_EQ(a.dequeued_sorted, c.dequeued_sorted) << "seed " << seed;
    ASSERT_EQ(a.dequeued_sorted, d.dequeued_sorted) << "seed " << seed;
    ASSERT_EQ(a.streams, b.streams) << "seed " << seed;
    ASSERT_EQ(a.streams, c.streams) << "seed " << seed;
    ASSERT_EQ(a.streams, d.streams) << "seed " << seed;
  }
}

// Single-producer / two-consumer program over the multi-consumer queues:
// streams may split differently between consumers (schedules differ per
// queue type), but the multiset and each stream's per-producer order are
// pinned by the oracles, and the multisets must agree across queues.
TEST(Differential, SpmcShapeAgreesBetweenSpmcAndMpmc) {
  const auto cfg = shape(1, 2, 10);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto a = run_seeded<q_spmc>(cfg, seed);
    const auto b = run_seeded<q_mpmc>(cfg, seed);
    ASSERT_EQ(a.dequeued_sorted.size(), 10u) << "seed " << seed;
    ASSERT_EQ(a.dequeued_sorted, b.dequeued_sorted) << "seed " << seed;
  }
}

// Two-producer / two-consumer program (MPMC only in the family, but the
// bulk and scalar paths of the same queue must also agree with each
// other): scalar vs batched enqueue/dequeue is a program-level detail
// the queue contract must not observe.
TEST(Differential, ScalarAndBulkPathsAgreeOnMpmc) {
  expect_scalar_and_bulk_agree<q_mpmc>(shape(2, 2, 8));
}

// Every variant, scalar against bulk: the scalar calls are the bulk-of-one
// case of the shared publish and claim loops, so the program-level choice
// between them must not be observable. One consumer pins the per-producer
// orders exactly; two consumers (where the contract allows them) add the
// racing try_ claims.
TEST(Differential, ScalarAndBulkPathsAgreeOnEveryVariant) {
  expect_scalar_and_bulk_agree<q_spsc>(shape(1, 1, 10));
  expect_scalar_and_bulk_agree<q_wait>(shape(1, 1, 10));
  expect_scalar_and_bulk_agree<q_spmc>(shape(1, 1, 10));
  expect_scalar_and_bulk_agree<q_spmc>(shape(1, 2, 10));
  expect_scalar_and_bulk_agree<q_mpmc>(shape(2, 1, 8));
  auto fabric = shape(2, 1, 8);
  fabric.check_linearizability = false;  // sharded: not one FIFO by design
  expect_scalar_and_bulk_agree<q_shard>(fabric);
  expect_scalar_and_bulk_agree<q_shard_ord>(fabric);
  fabric.consumers = 2;
  expect_scalar_and_bulk_agree<q_shard>(fabric);
  expect_scalar_and_bulk_agree<q_shard_ord>(fabric);
}

// The shard fabric against the scalar queues: same two-producer program,
// same multiset out. The fabric is a composition (one FFQ^s per producer
// + a consumer-side scheduler), not a single queue, so it is not
// linearizable to one FIFO — linearizability checking is off for its
// runs and agreement is on the multiset plus the per-stream oracles the
// harness already enforced. Both fabric modes must agree with FFQ^m and
// with each other, scalar and bulk paths alike.
TEST(Differential, ShardFabricAgreesWithMpmcOnMultiset) {
  auto cfg = shape(2, 2, 8);
  cfg.check_linearizability = false;  // sharded: not one FIFO by design
  auto bulk = cfg;
  bulk.enqueue_batch = 3;
  bulk.dequeue_batch = 2;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto m = run_seeded<q_mpmc>(cfg, seed);
    const auto f = run_seeded<q_shard>(cfg, seed);
    const auto o = run_seeded<q_shard_ord>(cfg, seed);
    const auto fb = run_seeded<q_shard>(bulk, seed);
    const auto ob = run_seeded<q_shard_ord>(bulk, seed);
    ASSERT_EQ(m.dequeued_sorted, f.dequeued_sorted) << "seed " << seed;
    ASSERT_EQ(m.dequeued_sorted, o.dequeued_sorted) << "seed " << seed;
    ASSERT_EQ(m.dequeued_sorted, fb.dequeued_sorted) << "seed " << seed;
    ASSERT_EQ(m.dequeued_sorted, ob.dequeued_sorted) << "seed " << seed;
  }
}

// With one producer the fabric degenerates to a single FFQ^s shard and
// both fabric modes become strict FIFOs: a single consumer must see the
// exact SPSC stream, and the ordered merge must not perturb it.
TEST(Differential, SingleProducerFabricIsExactlyFifo) {
  auto cfg = shape(1, 1, 10);
  cfg.check_linearizability = false;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto a = run_seeded<q_spsc>(cfg, seed);
    const auto f = run_seeded<q_shard>(cfg, seed);
    const auto o = run_seeded<q_shard_ord>(cfg, seed);
    ASSERT_EQ(a.streams, f.streams) << "seed " << seed;
    ASSERT_EQ(a.streams, o.streams) << "seed " << seed;
  }
}

// The waitable wrapper must be transparent: same program, same seed,
// same stream as the raw SPSC queue underneath (its wake-signal windows
// add yield points, so the schedules differ — the output must not).
TEST(Differential, WaitableWrapperIsTransparentOverSpsc) {
  auto cfg = shape(1, 1, 10);
  cfg.enqueue_batch = 2;
  cfg.dequeue_batch = 3;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto a = run_seeded<q_spsc>(cfg, seed);
    const auto b = run_seeded<q_wait>(cfg, seed);
    ASSERT_EQ(a.streams, b.streams) << "seed " << seed;
  }
}
