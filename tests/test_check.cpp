// Tests for ffq::check — the cooperative scheduler (determinism, yield
// hooks), the schedule codec, the three oracles (conservation,
// per-producer FIFO, Wing–Gong linearizability), preemption-bounded DFS
// over the model machines (clean passes and mutation catches with
// replayable witnesses), seeded fuzzing of the real queues under the
// FFQ_CHECK_YIELD() instrumentation, and the one replay rule both
// substrates share.
//
// FFQ_CHECK is defined before any include so the queues in this TU carry
// live yield points in every preset, not just `check`. The mirror-struct
// static_asserts below prove the instrumentation is layout-neutral: the
// instrumented queues still match the member-sequence mirrors
// (layout_mirrors.hpp) that test_trace.cpp pins for the uninstrumented
// build.
#ifndef FFQ_CHECK
#define FFQ_CHECK 1
#endif

#include "ffq/check/check.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/model/shapes.hpp"
#include "ffq/shard/shard.hpp"
#include "layout_mirrors.hpp"

namespace chk = ffq::check;
namespace model = ffq::model;

namespace {

// Policies pinned to disabled so the mirror asserts below hold in every
// preset (the telemetry/trace presets flip the *defaults*, which would
// legitimately grow the queues — that is their own suites' concern).
using ffq::core::layout_aligned;
using tel_off = ffq::telemetry::disabled;
using trc_off = ffq::trace::disabled;
using q_spsc = ffq::core::spsc_queue<long long, layout_aligned, tel_off, trc_off>;
using q_spmc = ffq::core::spmc_queue<long long, layout_aligned, tel_off, trc_off>;
using q_mpmc = ffq::core::mpmc_queue<long long, layout_aligned, tel_off, trc_off>;
using q_wait =
    ffq::core::waitable_spsc_queue<long long, layout_aligned, tel_off, trc_off>;

// ---------------------------------------------------------------------------
// Layout neutrality: FFQ_CHECK=1 in this TU, yet the queues still match
// the uninstrumented member-sequence mirrors — FFQ_CHECK_YIELD() adds
// code, never data.
// ---------------------------------------------------------------------------

using spsc_mirror = ffq_test::spsc_mirror<long long>;
using spmc_mirror = ffq_test::spmc_mirror<long long>;
using mpmc_mirror = ffq_test::mpmc_mirror<long long>;
using waitable_mirror = ffq_test::waitable_mirror<q_spsc>;

static_assert(sizeof(q_spsc) == sizeof(spsc_mirror),
              "FFQ_CHECK yield points must not grow spsc_queue");
static_assert(sizeof(q_spmc) == sizeof(spmc_mirror),
              "FFQ_CHECK yield points must not grow spmc_queue");
static_assert(sizeof(q_mpmc) == sizeof(mpmc_mirror),
              "FFQ_CHECK yield points must not grow mpmc_queue");
static_assert(sizeof(q_wait) == sizeof(waitable_mirror),
              "FFQ_CHECK yield points must not grow waitable_spsc_queue");
static_assert(alignof(q_spsc) == alignof(spsc_mirror));
static_assert(alignof(q_spmc) == alignof(spmc_mirror));
static_assert(alignof(q_mpmc) == alignof(mpmc_mirror));
static_assert(alignof(q_wait) == alignof(waitable_mirror));

}  // namespace

// ---------------------------------------------------------------------------
// Schedule codec.
// ---------------------------------------------------------------------------

TEST(CheckSchedule, FormatUsesRunLengthEncoding) {
  EXPECT_EQ(chk::format_schedule({{0, 0, 0, 1, 0, 2, 2}}), "0*3.1.0.2*2");
  EXPECT_EQ(chk::format_schedule({{5}}), "5");
  EXPECT_EQ(chk::format_schedule({{}}), "-");
}

TEST(CheckSchedule, ParseIsTheExactInverse) {
  const std::vector<std::vector<int>> cases = {
      {}, {0}, {1, 1, 1}, {0, 1, 0, 1}, {2, 2, 0, 0, 0, 1}};
  for (const auto& picks : cases) {
    const chk::schedule s{picks};
    const auto back = chk::parse_schedule(chk::format_schedule(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
}

TEST(CheckSchedule, ParseRejectsMalformedInput) {
  for (const char* bad : {"0..1", "*3", "1*", "1*0", "a", "0.1x", "1.*2"}) {
    EXPECT_FALSE(chk::parse_schedule(bad).has_value()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Cooperative scheduler: externally driven, deterministic, yield hooks.
// ---------------------------------------------------------------------------

TEST(CheckSched, StepsTasksInExactlyTheOrderDriven) {
  auto run = [](const std::vector<int>& picks) {
    chk::coop_sched s;
    std::vector<int> log;
    for (int t = 0; t < 3; ++t) {
      s.spawn([&log, t] {
        log.push_back(t);
        chk::coop_sched::yield();
        log.push_back(t + 10);
      });
    }
    for (int p : picks) s.step(p);
    return log;
  };
  // Same schedule twice: bitwise-identical logs (determinism).
  const std::vector<int> picks = {2, 0, 2, 1, 0, 1};
  EXPECT_EQ(run(picks), run(picks));
  EXPECT_EQ(run(picks), (std::vector<int>{2, 0, 12, 1, 10, 11}));
}

TEST(CheckSched, StepOnFinishedTaskIsANoOp) {
  chk::coop_sched s;
  int runs = 0;
  s.spawn([&] { ++runs; });
  EXPECT_FALSE(s.step(0));  // runs to completion, no yield
  EXPECT_TRUE(s.done(0));
  EXPECT_FALSE(s.step(0));
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(s.all_done());
  EXPECT_TRUE(s.runnable().empty());
}

TEST(CheckSched, QueueYieldPointsRouteToTheScheduler) {
  // An instrumented enqueue/try_dequeue hits FFQ_CHECK_YIELD() inside the
  // queue; the hook must bounce control back to the driver mid-operation.
  chk::coop_sched s;
  q_spsc q(4);
  std::vector<std::string> log;
  s.spawn([&] {
    q.enqueue(7);
    log.push_back("enqueued");
  });
  s.spawn([&] {
    long long v = 0;
    while (!q.try_dequeue(v)) chk::coop_sched::yield();
    log.push_back("dequeued " + std::to_string(v));
  });
  // The producer's first step must stop at a yield point *inside*
  // enqueue — i.e. before "enqueued" is logged.
  EXPECT_TRUE(s.step(0));
  EXPECT_TRUE(log.empty());
  while (!s.all_done()) {
    for (int t : s.runnable()) s.step(t);
  }
  EXPECT_EQ(log, (std::vector<std::string>{"enqueued", "dequeued 7"}));
}

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

TEST(CheckOracles, ConservationCatchesLossAndDuplication) {
  std::string why;
  EXPECT_TRUE(chk::check_conservation({1, 2, 3}, {3, 1, 2}, &why));
  EXPECT_FALSE(chk::check_conservation({1, 2, 3}, {1, 2}, &why));
  EXPECT_NE(why.find("lost"), std::string::npos);
  EXPECT_FALSE(chk::check_conservation({1, 2}, {1, 2, 2}, &why));
  EXPECT_NE(why.find("never enqueued"), std::string::npos);
}

TEST(CheckOracles, PerProducerFifoCatchesReordering) {
  std::string why;
  using S = std::vector<std::vector<long long>>;
  const auto v = [](long long p, long long s) {
    return p * chk::kProducerStride + s;
  };
  // Interleaving producers within a stream is fine; going backwards
  // within one producer is not.
  EXPECT_TRUE(chk::check_per_producer_fifo(
      S{{v(0, 0), v(1, 0), v(0, 1), v(1, 1)}}, &why));
  EXPECT_FALSE(
      chk::check_per_producer_fifo(S{{v(0, 1), v(1, 0), v(0, 0)}}, &why));
  EXPECT_NE(why.find("fifo"), std::string::npos);
  // Ordering across consumers is unconstrained.
  EXPECT_TRUE(chk::check_per_producer_fifo(S{{v(0, 1)}, {v(0, 0)}}, &why));
}

TEST(CheckOracles, LinearizabilityAcceptsAWitnessableHistory) {
  std::string why;
  // enq(1) and enq(2) overlap, then both are dequeued 2-first: legal,
  // because the overlapping enqueues may linearize in either order.
  const std::vector<chk::lin_op> h = {
      {0, true, 1, 0, 3},
      {1, true, 2, 1, 2},
      {2, false, 2, 4, 5},
      {2, false, 1, 6, 7},
  };
  EXPECT_TRUE(chk::check_linearizable(h, &why)) << why;
}

TEST(CheckOracles, LinearizabilityRejectsReorderedSequentialEnqueues) {
  std::string why;
  // enq(1) returns before enq(2) is invoked, so 1 precedes 2 in every
  // linearization — yet 2 came out first. No witness exists.
  const std::vector<chk::lin_op> h = {
      {0, true, 1, 0, 1},
      {0, true, 2, 2, 3},
      {1, false, 2, 4, 5},
      {1, false, 1, 6, 7},
  };
  EXPECT_FALSE(chk::check_linearizable(h, &why));
  EXPECT_NE(why.find("linearizability"), std::string::npos);
}

TEST(CheckOracles, LinearizabilityRejectsDequeueBeforeAnyEnqueue) {
  std::string why;
  const std::vector<chk::lin_op> h = {
      {0, false, 1, 0, 1},  // dequeue of 1 completed...
      {1, true, 1, 2, 3},   // ...before its enqueue was even invoked
  };
  EXPECT_FALSE(chk::check_linearizable(h, &why));
}

// ---------------------------------------------------------------------------
// Model exploration: clean DFS passes, mutation catches, witness replay.
// ---------------------------------------------------------------------------

// The model shapes are check_explore's (model/shapes.hpp), kept tiny so
// DFS bound 2 finishes in milliseconds.

namespace {

chk::explore_result replay_world(const model::world& w,
                                 const chk::schedule& s) {
  return chk::replay([&w] { return chk::model_target(w); }, s);
}

}  // namespace

TEST(CheckExplore, CleanSpscModelPassesExhaustiveBound2) {
  const auto r = chk::dfs_explore(model::make_shape("spsc"), {});
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.terminals, 0u);
}

TEST(CheckExplore, CleanSpmcModelPassesExhaustiveBound2) {
  const auto r = chk::dfs_explore(model::make_shape("spmc"), {});
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.terminals, 0u);
}

TEST(CheckExplore, InjectedLine29BugIsCaughtWithReplayableWitness) {
  // The paper's line-29 re-check omitted: a consumer skips a rank the
  // producer already published. DFS must find it within preemption bound
  // 2 and hand back a schedule that reproduces it exactly.
  const auto w = model::make_shape("spmc", "skip_line29_recheck");
  const auto r = chk::dfs_explore(w, {});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("gap-accounting"), std::string::npos)
      << r.violation;
  ASSERT_FALSE(r.witness.picks.empty());

  // The witness string round-trips through the codec and replays to the
  // same violation — this is the workflow a human uses from the CLI.
  const auto parsed =
      chk::parse_schedule(chk::format_schedule(r.witness));
  ASSERT_TRUE(parsed.has_value());
  const auto replay = replay_world(w, *parsed);
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.violation, r.violation);

  // The same schedule on the *unmutated* model trips no safety monitor:
  // the witness pins the bug, not the schedule shape. (The witness is
  // truncated at the violating edge, so on the clean model the only
  // acceptable complaint is that the schedule ends early.)
  const auto clean = replay_world(model::make_shape("spmc"), *parsed);
  EXPECT_EQ(clean.violation.find("safety"), std::string::npos)
      << clean.violation;
}

TEST(CheckExplore, CleanTryConsumerModelsPassExhaustiveBound2) {
  for (const char* shape : {"spmc_bulk", "spmc_try"}) {
    const auto r = chk::dfs_explore(model::make_shape(shape), {});
    EXPECT_TRUE(r.ok) << shape << ": " << r.violation;
    EXPECT_TRUE(r.exhausted);
    EXPECT_GT(r.terminals, 0u);
  }
}

/// The mutation is caught by bound-2 DFS with `expected` in the verdict,
/// and its witness replays to the same violation.
void expect_caught_and_replayed(const model::world& w,
                                const std::string& expected) {
  const auto r = chk::dfs_explore(w, {});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.violation.find(expected), std::string::npos) << r.violation;
  const auto parsed = chk::parse_schedule(chk::format_schedule(r.witness));
  ASSERT_TRUE(parsed.has_value());
  const auto replay = replay_world(w, *parsed);
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.violation, r.violation);
}

// Defect: the bulk producer stores tail only after its batch, so when the
// batch wraps the ring it waits for a cell no try_ consumer can see.
TEST(CheckExplore, TailStoredOnlyAfterTheBatchIsCaught) {
  expect_caught_and_replayed(
      model::make_shape("spmc_bulk", "tail_after_batch"),
      "publish-before-stall");
}

// Defect: a try_ claim by fetch-and-add, sized from a stale head, lands
// past the tail once a racing claim got there first.
TEST(CheckExplore, FaaTryClaimIsCaught) {
  expect_caught_and_replayed(model::make_shape("spmc_try", "faa_try_claim"),
                             "idle-producer");
}

// Defect: a refresh of the shared tail snapshot stores one rank past the
// tail it loaded, so a later claim sized by the snapshot waits on a rank
// the idle producer never writes.
TEST(CheckExplore, SnapshotAheadOfTheTailIsCaught) {
  expect_caught_and_replayed(model::make_shape("spmc_try", "snapshot_ahead"),
                             "idle-producer");
}

// Defect: "nothing published" is decided on the snapshot without loading
// the tail, so try_ consumers report an empty ring for good and the
// items stay unconsumed.
TEST(CheckExplore, EmptyDecidedOnAStaleSnapshotIsCaught) {
  expect_caught_and_replayed(model::make_shape("spmc_try", "stale_empty"),
                             "consumed 0 times");
}

TEST(CheckExplore, CleanMpmcModelPassesExhaustiveBound2) {
  const auto r = chk::dfs_explore(model::make_shape("mpmc"), {});
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.terminals, 0u);
}

// Algorithm 2 defect (§III-B): a producer claims a free cell by CAS of
// rank straight to its final value, skipping the -2 reservation, and
// writes the data afterwards; a consumer reads the cell in between.
TEST(CheckExplore, Alg2ClaimPublishingDirectlyIsCaught) {
  expect_caught_and_replayed(
      model::make_shape("mpmc", "claim_publishes_directly"), "consumed twice");
}

// Algorithm 2 defect (§III-B): a claim validates only rank == -1, not
// gap, so a racing gap announcement over its rank slips under it and
// the item is enqueued in the past.
TEST(CheckExplore, Alg2ClaimIgnoringGapIsCaught) {
  expect_caught_and_replayed(model::make_shape("mpmc", "claim_ignores_gap"),
                             "enqueue in the past");
}

TEST(CheckExplore, CleanShardSchedulerModelPassesExhaustiveBound2) {
  const auto r = chk::dfs_explore(model::make_shape("shard"), {});
  EXPECT_TRUE(r.ok) << r.violation;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.terminals, 0u);
}

// Differential masking claim (model/shard_sched.hpp): a tail-bounded
// claim decides every rank before it is claimed, so the line-29 consumer
// race — which the scalar SPMC model catches above — is unreachable
// through the fabric's scheduler and through the CAS-bounded try_ claim.
// The results (flagged scalar, clean tail-bounded claims) are the
// machine-checked statement.
TEST(CheckExplore, ShardSchedulerMasksTheLine29RaceTheScalarPathHas) {
  const auto scalar =
      chk::dfs_explore(model::make_shape("spmc", "skip_line29_recheck"), {});
  ASSERT_FALSE(scalar.ok);
  for (const char* shape : {"shard", "spmc_try"}) {
    const auto bounded =
        chk::dfs_explore(model::make_shape(shape, "skip_line29_recheck"), {});
    EXPECT_TRUE(bounded.ok) << shape << ": " << bounded.violation;
    EXPECT_TRUE(bounded.exhausted) << shape;
  }
}

// Full liveness: with no preemption bound nothing is pruned, so every
// reachable state must reach completion. mpmc and shard pass 4M states
// unbounded and stay at bound 2 (DESIGN.md §10).
TEST(CheckExplore, CleanSmallShapesPassUnboundedLiveness) {
  chk::dfs_options opt;
  opt.preemption_bound = chk::dfs_options::kUnbounded;
  for (const char* shape : {"spsc", "spmc", "spmc_bulk", "spmc_try"}) {
    const auto r = chk::dfs_explore(model::make_shape(shape), opt);
    EXPECT_TRUE(r.ok) << shape << ": " << r.violation;
    EXPECT_TRUE(r.exhausted) << shape;
    EXPECT_GT(r.terminals, 0u) << shape;
  }
}

TEST(CheckExplore, ModelFuzzPassesAndIsSeedDeterministic) {
  const auto w = model::make_shape("spmc");
  const auto make = [&w] { return chk::model_target(w); };
  const auto a = chk::fuzz(make, 7, 300);
  EXPECT_TRUE(a.ok) << a.violation;
  const auto b = chk::fuzz(make, 7, 300);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.terminals, b.terminals);
}

// ---------------------------------------------------------------------------
// Real queues under the harness: seeded fuzz + schedule replay.
// ---------------------------------------------------------------------------

namespace {

chk::program_config small_cfg(int producers, int consumers) {
  chk::program_config cfg;
  cfg.capacity = 4;
  cfg.producers = producers;
  cfg.consumers = consumers;
  cfg.items_per_producer = 5;
  return cfg;
}

/// Fuzz `schedules` runs of the program over Queue from `seed`.
template <typename Queue>
chk::explore_result fuzz_program(const chk::program_config& cfg,
                                 std::uint64_t seed,
                                 std::uint64_t schedules) {
  return chk::fuzz([&cfg] { return chk::program<Queue>(cfg); }, seed,
                   schedules);
}

}  // namespace

TEST(CheckQueues, FuzzSpscPasses) {
  const auto r = fuzz_program<q_spsc>(small_cfg(1, 1), 11, 300);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
}

TEST(CheckQueues, FuzzSpmcPasses) {
  const auto r = fuzz_program<q_spmc>(small_cfg(1, 2), 12, 300);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
}

TEST(CheckQueues, FuzzMpmcPasses) {
  const auto r = fuzz_program<q_mpmc>(small_cfg(2, 2), 13, 300);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
}

TEST(CheckQueues, FuzzWaitablePasses) {
  const auto r = fuzz_program<q_wait>(small_cfg(1, 1), 14, 300);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
}

TEST(CheckQueues, BulkPathsFuzzCleanToo) {
  auto cfg = small_cfg(1, 1);
  cfg.enqueue_batch = 3;
  cfg.dequeue_batch = 2;
  const auto r = fuzz_program<q_spsc>(cfg, 15, 300);
  EXPECT_TRUE(r.ok) << r.violation;
}

TEST(CheckQueues, TryBulkClaimsOnMultiConsumerQueuesFuzzClean) {
  auto cfg = small_cfg(1, 2);
  cfg.enqueue_batch = 5;  // one batch wraps the 4-cell ring
  cfg.dequeue_batch = 4;
  const auto s = fuzz_program<q_spmc>(cfg, 18, 300);
  EXPECT_TRUE(s.ok) << s.violation
                    << "\nschedule: " << chk::format_schedule(s.witness);
  auto two = small_cfg(2, 2);
  two.items_per_producer = 3;  // keeps the Wing-Gong search small
  two.enqueue_batch = 3;
  two.dequeue_batch = 4;
  const auto m = fuzz_program<q_mpmc>(two, 19, 300);
  EXPECT_TRUE(m.ok) << m.violation
                    << "\nschedule: " << chk::format_schedule(m.witness);
}

namespace {

/// A try_dequeue that commits like the blocking dequeue: on an idle,
/// empty ring it waits forever, which is what the idle-producer oracle
/// exists to report.
struct committing_try_queue : q_spmc {
  using q_spmc::q_spmc;
  bool try_dequeue(long long& v) noexcept { return dequeue(v); }
};

}  // namespace

TEST(CheckQueues, IdleProducerOracleFlagsATryCallThatWaits) {
  chk::random_driver d(20);
  chk::program<committing_try_queue> p(small_cfg(1, 2));
  const auto r = chk::run_schedule(p, d);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.violation.find("idle-producer"), std::string::npos)
      << r.violation;
}

TEST(CheckQueues, FuzzShardFabricBothModesPass) {
  using q_shard = ffq::shard::fabric<long long, false, layout_aligned,
                                     tel_off, trc_off>;
  using q_shard_ord = ffq::shard::fabric<long long, true, layout_aligned,
                                         tel_off, trc_off>;
  auto cfg = small_cfg(2, 2);
  cfg.dequeue_batch = 2;  // exercise the scheduler's bulk drain
  cfg.check_linearizability = false;  // sharded: not one FIFO by design
  const auto r = fuzz_program<q_shard>(cfg, 16, 300);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
  const auto o = fuzz_program<q_shard_ord>(cfg, 17, 300);
  EXPECT_TRUE(o.ok) << o.violation
                    << "\nschedule: " << chk::format_schedule(o.witness);
}

// Bulk producers pack runs of 3 and one-item drains split them: the rest
// of each run waits in the consumer's leftover, which must be served
// before the consumer claims a newer cell (per-producer FIFO).
TEST(CheckQueues, FuzzShardFabricRunsSplitAcrossCallsPass) {
  using q_shard = ffq::shard::fabric<long long, false, layout_aligned,
                                     tel_off, trc_off>;
  auto cfg = small_cfg(2, 2);
  cfg.enqueue_batch = 3;
  cfg.dequeue_batch = 1;
  cfg.check_linearizability = false;  // sharded: not one FIFO by design
  const auto r = fuzz_program<q_shard>(cfg, 18, 300);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
}

// Runs of 2 through 2-cell shards, drained two items per call: each claim
// of two cells leaves the second claimed but unread, and the producers
// wrap onto it (a gap over it, or a wait for it). Every claimed cell must
// still be read, in rank order, before the consumer claims again.
TEST(CheckQueues, FuzzShardFabricWrapsPastClaimedCellsPass) {
  using q_shard = ffq::shard::fabric<long long, false, layout_aligned,
                                     tel_off, trc_off>;
  auto cfg = small_cfg(2, 2);
  cfg.capacity = 2;
  cfg.items_per_producer = 8;
  cfg.enqueue_batch = 2;
  cfg.dequeue_batch = 2;
  cfg.check_linearizability = false;  // sharded: not one FIFO by design
  const auto r = fuzz_program<q_shard>(cfg, 19, 300);
  EXPECT_TRUE(r.ok) << r.violation
                    << "\nschedule: " << chk::format_schedule(r.witness);
}

TEST(CheckQueues, RecordedScheduleReplaysToTheIdenticalRun) {
  const auto cfg = small_cfg(2, 2);
  chk::random_driver d(99);
  chk::program<q_mpmc> first(cfg);
  const auto r = chk::run_schedule(first, d);
  ASSERT_TRUE(r.ok) << r.violation;

  chk::replay_driver rd(r.witness);
  chk::program<q_mpmc> again(cfg);
  const auto a = chk::run_schedule(again, rd);
  ASSERT_TRUE(a.ok) << a.violation;
  EXPECT_EQ(again.streams, first.streams);
  EXPECT_EQ(a.states, r.states);
  EXPECT_EQ(a.witness, r.witness);
}

// ---------------------------------------------------------------------------
// One replay rule on both substrates, and pinned schedules: the program
// check_explore runs for `--queue spsc` (1x6 items, 1 consumer, 4 cells)
// and the model `spsc` shape, each under random_driver(5).
// ---------------------------------------------------------------------------

namespace {

/// The recorded schedule replays; one extra pick, one pick short, and a
/// pick naming a task that does not exist each fail with the shared
/// replay wording.
template <typename MakeTarget>
void expect_replay_rule(const MakeTarget& make, const chk::schedule& s) {
  const auto ok = chk::replay(make, s);
  EXPECT_TRUE(ok.ok) << ok.violation;
  EXPECT_EQ(ok.witness, s);

  const std::size_t n = s.picks.size();
  auto longer = s;
  longer.picks.push_back(0);
  EXPECT_EQ(chk::replay(make, longer).violation,
            "replay: program finished after " + std::to_string(n) +
                " picks, 1 pick(s) left over");

  auto shorter = s;
  shorter.picks.pop_back();
  EXPECT_EQ(chk::replay(make, shorter).violation,
            "replay: schedule ended after " + std::to_string(n - 1) +
                " picks, before the program finished");

  auto stranger = s;
  stranger.picks[1] = 7;
  EXPECT_EQ(chk::replay(make, stranger).violation,
            "replay: pick 1 names task 7, which is finished or does not "
            "exist");
}

}  // namespace

TEST(CheckReplay, RealSpscScheduleIsPinnedAndReplaysExactly) {
  chk::program_config cfg;
  cfg.capacity = 4;
  cfg.producers = 1;
  cfg.consumers = 1;
  cfg.items_per_producer = 6;
  chk::random_driver d(5);
  chk::program<q_spsc> p(cfg);
  const auto r = chk::run_schedule(p, d);
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(chk::format_schedule(r.witness),
            "0.1*7.0*2.1.0*2.1*5.0.1.0*3.1*3.0*2.1*3.0.1.0.1*2.0.1.0.1*2");
  EXPECT_EQ(r.witness.picks.size(), 41u);
  expect_replay_rule([&cfg] { return chk::program<q_spsc>(cfg); }, r.witness);
}

TEST(CheckReplay, ModelSpscScheduleIsPinnedAndReplaysExactly) {
  const auto w = model::make_shape("spsc");
  chk::random_driver d(5);
  chk::model_target t(w);
  const auto r = chk::run_schedule(t, d);
  ASSERT_TRUE(r.ok) << r.violation;
  EXPECT_EQ(chk::format_schedule(r.witness),
            "0.1*7.0*2.1.0*2.1*5.0.1.0*3.1*3.0*2.1*3.0.1*2");
  EXPECT_EQ(r.witness.picks.size(), 34u);
  expect_replay_rule([&w] { return chk::model_target(w); }, r.witness);
}
