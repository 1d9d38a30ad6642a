// Tests for ffq::trace — the zero-cost claim (sizeof parity of the
// disabled policy vs the untraced layouts), the per-thread ring
// (wrap-around, seqlock snapshots), the registry, timestamp merging,
// tracer hooks on real queues, the offline validator, the Chrome trace
// export (golden file + RFC 8259 round-trip through the strict JSON
// reader), and the progress watchdog (synthetic verdicts plus a live
// stuck-consumer demo). Everything instantiates the trace policy
// explicitly, so the suite is meaningful in both FFQ_TRACE build modes.
#include "ffq/trace/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/runtime/eventcount.hpp"
#include "ffq/telemetry/telemetry.hpp"
#include "layout_mirrors.hpp"

namespace trc = ffq::trace;
namespace tel = ffq::telemetry;
using ffq::core::layout_aligned;

// ---------------------------------------------------------------------------
// Zero-cost OFF: the disabled tracer is empty and [[no_unique_address]]
// keeps every queue's size and alignment byte-identical to the untraced
// layout. The mirrors replicate the pre-trace member sequences verbatim
// (layout_mirrors.hpp, the structs test_telemetry.cpp pins too).
// ---------------------------------------------------------------------------

namespace {

using u64 = std::uint64_t;
template <typename Trace>
using spsc_q =
    ffq::core::spsc_queue<u64, layout_aligned, tel::disabled, Trace>;
template <typename Trace>
using spmc_q =
    ffq::core::spmc_queue<u64, layout_aligned, tel::disabled, Trace>;
template <typename Trace>
using mpmc_q =
    ffq::core::mpmc_queue<u64, layout_aligned, tel::disabled, Trace>;
template <typename Trace>
using waitable_q =
    ffq::core::waitable_spsc_queue<u64, layout_aligned, tel::disabled, Trace>;

using spsc_mirror = ffq_test::spsc_mirror<u64>;
using spmc_mirror = ffq_test::spmc_mirror<u64>;
using mpmc_mirror = ffq_test::mpmc_mirror<u64>;
using waitable_mirror = ffq_test::waitable_mirror<spsc_q<trc::disabled>>;

static_assert(std::is_empty_v<trc::queue_tracer<trc::disabled>>,
              "the disabled tracer must be an empty class");

static_assert(sizeof(spsc_q<trc::disabled>) == sizeof(spsc_mirror),
              "disabled trace must not grow spsc_queue");
static_assert(sizeof(spmc_q<trc::disabled>) == sizeof(spmc_mirror),
              "disabled trace must not grow spmc_queue");
static_assert(sizeof(mpmc_q<trc::disabled>) == sizeof(mpmc_mirror),
              "disabled trace must not grow mpmc_queue");
static_assert(sizeof(waitable_q<trc::disabled>) == sizeof(waitable_mirror),
              "disabled trace must not grow waitable_spsc_queue");

static_assert(alignof(spsc_q<trc::disabled>) == alignof(spsc_mirror));
static_assert(alignof(spmc_q<trc::disabled>) == alignof(spmc_mirror));
static_assert(alignof(mpmc_q<trc::disabled>) == alignof(mpmc_mirror));
static_assert(alignof(waitable_q<trc::disabled>) == alignof(waitable_mirror));

trc::event_record make_rec(std::uint64_t seq, std::uint64_t tsc,
                           trc::event_type type, std::int64_t arg,
                           std::uint16_t queue = 0, std::uint32_t dur = 0) {
  trc::event_record r;
  r.seq = seq;
  r.tsc = tsc;
  r.arg = arg;
  r.type = type;
  r.queue = queue;
  r.dur = dur;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

TEST(TraceZeroCost, PolicyTagsAreCoherent) {
  EXPECT_TRUE(trc::enabled::kEnabled);
  EXPECT_FALSE(trc::disabled::kEnabled);
#if defined(FFQ_TRACE) && FFQ_TRACE
  EXPECT_TRUE(trc::default_policy::kEnabled);
#else
  EXPECT_FALSE(trc::default_policy::kEnabled);
#endif
}

// ---------------------------------------------------------------------------
// Event record packing.
// ---------------------------------------------------------------------------

TEST(TraceEvent, PackUnpackRoundTrip) {
  const std::uint64_t w3 = trc::event_record::pack_word3(
      trc::event_type::dwcas_retry, 0xBEEF, 0xDEADBEEF);
  EXPECT_EQ(trc::event_record::unpack_type(w3), trc::event_type::dwcas_retry);
  EXPECT_EQ(trc::event_record::unpack_queue(w3), 0xBEEF);
  EXPECT_EQ(trc::event_record::unpack_dur(w3), 0xDEADBEEFu);
}

TEST(TraceEvent, DurationSaturates) {
  EXPECT_EQ(trc::saturate_dur(0), 0u);
  EXPECT_EQ(trc::saturate_dur(0xffffffffULL), 0xffffffffu);
  EXPECT_EQ(trc::saturate_dur(0x1'0000'0000ULL), 0xffffffffu);
}

TEST(TraceEvent, NamesAndDurationClassification) {
  EXPECT_STREQ(trc::to_string(trc::event_type::enqueue), "enqueue");
  EXPECT_STREQ(trc::to_string(trc::event_type::gap_created), "gap");
  EXPECT_STREQ(trc::to_string(trc::event_type::consumer_skip), "skip");
  EXPECT_TRUE(trc::is_duration(trc::event_type::enqueue));
  EXPECT_TRUE(trc::is_duration(trc::event_type::dequeue));
  EXPECT_FALSE(trc::is_duration(trc::event_type::park));
  EXPECT_FALSE(trc::is_duration(trc::event_type::full_stall));
}

// ---------------------------------------------------------------------------
// The per-thread ring: snapshots, wrap-around, progress epoch.
// ---------------------------------------------------------------------------

TEST(TraceRing, SnapshotReturnsPushedRecordsOldestFirst) {
  trc::trace_ring ring(7, "t7", 16);
  ring.push(trc::event_type::enqueue, 3, 41, 1000, 12);
  ring.push(trc::event_type::dequeue, 3, 41, 2000, 7);
  ring.push(trc::event_type::gap_created, 3, 42, 3000, 0);

  const auto snap = ring.snapshot();
  EXPECT_EQ(snap.tid, 7u);
  EXPECT_EQ(snap.name, "t7");
  EXPECT_EQ(snap.written, 3u);
  ASSERT_EQ(snap.records.size(), 3u);
  EXPECT_EQ(snap.records[0].seq, 1u);
  EXPECT_EQ(snap.records[0].type, trc::event_type::enqueue);
  EXPECT_EQ(snap.records[0].tsc, 1000u);
  EXPECT_EQ(snap.records[0].arg, 41);
  EXPECT_EQ(snap.records[0].queue, 3u);
  EXPECT_EQ(snap.records[0].dur, 12u);
  EXPECT_EQ(snap.records[2].seq, 3u);
  EXPECT_EQ(snap.records[2].type, trc::event_type::gap_created);
}

// Satellite: wrap-around must overwrite the oldest records, keep the
// newest capacity-many, and keep seq numbers monotonic across the wrap
// so the loss is observable downstream.
TEST(TraceRing, WrapAroundKeepsNewestWithMonotonicSeqs) {
  constexpr std::size_t kCap = 8;
  trc::trace_ring ring(0, "wrap", kCap);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.push(trc::event_type::enqueue, 1, static_cast<std::int64_t>(i),
              100 + i, 1);
  }
  EXPECT_EQ(ring.written(), 20u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.records.size(), kCap);
  // Newest 8 of 20: seqs 13..20 (1-based), args 12..19, oldest first.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(snap.records[i].seq, 13 + i);
    EXPECT_EQ(snap.records[i].arg, static_cast<std::int64_t>(12 + i));
    EXPECT_EQ(snap.records[i].tsc, 112 + i);
  }
}

TEST(TraceRing, ProgressEpochCountsDequeues) {
  trc::trace_ring ring(0, "p", 8);
  EXPECT_EQ(ring.progress(), 0u);
  ring.mark_progress();
  ring.mark_progress();
  EXPECT_EQ(ring.progress(), 2u);
}

// A snapshot taken while another thread hammers the ring must only ever
// contain internally-consistent records (the seqlock contract): seq
// strictly increasing, payloads matching the generator's pattern.
TEST(TraceRing, ConcurrentSnapshotSeesOnlyConsistentRecords) {
  trc::trace_ring ring(0, "hot", 64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Payload pattern: arg == tsc == i, dur == i & 0xffff.
      ring.push(trc::event_type::enqueue, 9, static_cast<std::int64_t>(i), i,
                static_cast<std::uint32_t>(i & 0xffff));
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    const auto snap = ring.snapshot();
    std::uint64_t prev_seq = 0;
    for (const auto& r : snap.records) {
      EXPECT_GT(r.seq, prev_seq);
      prev_seq = r.seq;
      // seq is 1-based over the same counter that generates the payload.
      EXPECT_EQ(r.tsc, r.seq - 1);
      EXPECT_EQ(r.arg, static_cast<std::int64_t>(r.seq - 1));
      EXPECT_EQ(r.dur, static_cast<std::uint32_t>((r.seq - 1) & 0xffff));
      EXPECT_EQ(r.queue, 9u);
    }
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Registry: queue ids, thread rings, reset.
// ---------------------------------------------------------------------------

TEST(TraceRegistry, QueueIdsCountPerKind) {
  auto& reg = trc::registry::instance();
  reg.reset();
  const auto a = reg.register_queue("ffq-mpmc");
  const auto b = reg.register_queue("ffq-mpmc");
  const auto c = reg.register_queue("ffq-spsc");
  EXPECT_EQ(reg.queue_name(a), "ffq-mpmc#0");
  EXPECT_EQ(reg.queue_name(b), "ffq-mpmc#1");
  EXPECT_EQ(reg.queue_name(c), "ffq-spsc#0");
  EXPECT_EQ(reg.queue_name(999), "?");
}

TEST(TraceRegistry, ThreadRingIsCachedAndNameable) {
  auto& reg = trc::registry::instance();
  reg.reset();
  auto& r1 = reg.ring_for_this_thread();
  auto& r2 = reg.ring_for_this_thread();
  EXPECT_EQ(&r1, &r2);
  trc::set_thread_name("gtest-main");
  const auto snaps = reg.snapshot_all();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "gtest-main");
}

TEST(TraceRegistry, ResetInvalidatesCachedRings) {
  auto& reg = trc::registry::instance();
  reg.reset();
  auto& before = reg.ring_for_this_thread();
  before.push(trc::event_type::park, 0, 0, 1, 0);
  reg.reset();
  auto& after = reg.ring_for_this_thread();
  EXPECT_EQ(after.written(), 0u) << "stale cached ring after reset";
  EXPECT_EQ(reg.snapshot_all().size(), 1u);
}

// ---------------------------------------------------------------------------
// Merging: total order by (tsc, tid, seq) even with skewed cross-thread
// timestamps (satellite: the merge test with skewed clocks).
// ---------------------------------------------------------------------------

TEST(TraceMerge, OrdersByTscThenTidThenSeq) {
  trc::thread_snapshot a;
  a.tid = 0;
  a.records = {make_rec(1, 100, trc::event_type::enqueue, 0),
               make_rec(2, 300, trc::event_type::enqueue, 1)};
  trc::thread_snapshot b;
  b.tid = 1;
  // Skewed: this thread's clock runs "backwards" relative to its seq
  // order — the merge must still produce a deterministic total order.
  b.records = {make_rec(1, 200, trc::event_type::dequeue, 0),
               make_rec(2, 100, trc::event_type::dequeue, 1)};

  const auto merged = trc::merge_snapshots({a, b});
  ASSERT_EQ(merged.size(), 4u);
  // tsc 100 ties between (tid 0, seq 1) and (tid 1, seq 2): tid breaks it.
  EXPECT_EQ(merged[0].tid, 0u);
  EXPECT_EQ(merged[0].rec.seq, 1u);
  EXPECT_EQ(merged[1].tid, 1u);
  EXPECT_EQ(merged[1].rec.seq, 2u);
  EXPECT_EQ(merged[2].tid, 1u);
  EXPECT_EQ(merged[2].rec.seq, 1u);
  EXPECT_EQ(merged[3].tid, 0u);
  EXPECT_EQ(merged[3].rec.seq, 2u);
}

TEST(TraceMerge, SameTscSameTidOrdersBySeq) {
  trc::thread_snapshot a;
  a.tid = 3;
  a.records = {make_rec(5, 42, trc::event_type::enqueue, 0),
               make_rec(6, 42, trc::event_type::enqueue, 1)};
  const auto merged = trc::merge_snapshots({a});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].rec.seq, 5u);
  EXPECT_EQ(merged[1].rec.seq, 6u);
}

// ---------------------------------------------------------------------------
// The validator as a unit: each contract violation and the drop
// downgrade, on synthetic op streams.
// ---------------------------------------------------------------------------

namespace {

trc::trace_op op(std::uint32_t tid, std::uint64_t seq, const char* type,
                 const char* queue, std::int64_t rank) {
  trc::trace_op o;
  o.tid = tid;
  o.seq = seq;
  o.type = type;
  o.queue = queue;
  o.rank = rank;
  return o;
}

}  // namespace

TEST(TraceValidate, CleanDrainedTracePasses) {
  const std::vector<trc::trace_op> ops = {
      op(0, 1, "enqueue", "q#0", 0), op(0, 2, "enqueue", "q#0", 1),
      op(1, 1, "dequeue", "q#0", 0), op(1, 2, "dequeue", "q#0", 1),
      op(1, 3, "skip", "q#0", 2),
  };
  const auto rep = trc::validate_trace(ops, /*expect_drained=*/true);
  EXPECT_TRUE(rep.ok()) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.enqueues, 2u);
  EXPECT_EQ(rep.dequeues, 2u);
  EXPECT_EQ(rep.instants, 1u);
  EXPECT_EQ(rep.dropped, 0u);
  EXPECT_EQ(rep.lost, 0u);
}

TEST(TraceValidate, ProducerFifoViolation) {
  const std::vector<trc::trace_op> ops = {
      op(0, 1, "enqueue", "q#0", 5),
      op(0, 2, "enqueue", "q#0", 3),  // rank went backwards
  };
  const auto rep = trc::validate_trace(ops, false);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors[0].find("FIFO"), std::string::npos);
}

TEST(TraceValidate, DuplicatePublishAndConsume) {
  const std::vector<trc::trace_op> ops = {
      op(0, 1, "enqueue", "q#0", 0), op(1, 1, "enqueue", "q#0", 0),
      op(2, 1, "dequeue", "q#0", 0), op(3, 1, "dequeue", "q#0", 0),
  };
  const auto rep = trc::validate_trace(ops, false);
  ASSERT_EQ(rep.errors.size(), 2u);
  EXPECT_NE(rep.errors[0].find("published twice"), std::string::npos);
  EXPECT_NE(rep.errors[1].find("consumed twice"), std::string::npos);
}

TEST(TraceValidate, FabricationDetectedOnlyWithoutDrops) {
  const std::vector<trc::trace_op> with_fabrication = {
      op(1, 1, "dequeue", "q#0", 7),
  };
  auto rep = trc::validate_trace(with_fabrication, false);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors[0].find("never published"), std::string::npos);

  // Same stream but the producer thread visibly dropped records (seq gap):
  // the fabrication check must stay quiet.
  const std::vector<trc::trace_op> with_drops = {
      op(0, 1, "enqueue", "q#0", 0),
      op(0, 5, "enqueue", "q#0", 1),  // seqs 2..4 lost to overwrite
      op(1, 1, "dequeue", "q#0", 0),
      op(1, 2, "dequeue", "q#0", 7),
  };
  rep = trc::validate_trace(with_drops, false);
  EXPECT_TRUE(rep.ok()) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.dropped, 3u);
}

// Overwrite-oldest keeps each thread's *newest* contiguous window, so a
// wrapped ring shows up as a leading seq gap (first seq > 1), never an
// interior one. That must count as drops — found live when a long bench
// run wrapped the producer's ring and the validator, seeing "0 dropped",
// flagged every surviving dequeue of an overwritten enqueue as
// fabrication.
TEST(TraceValidate, LeadingSeqGapCountsAsDropsAndMutesFabrication) {
  const std::vector<trc::trace_op> ops = {
      op(0, 101, "enqueue", "q#0", 100),  // seqs 1..100 lost to overwrite
      op(0, 102, "enqueue", "q#0", 101),
      op(1, 1, "dequeue", "q#0", 7),  // published record was overwritten
      op(1, 2, "dequeue", "q#0", 100),
  };
  const auto rep = trc::validate_trace(ops, /*expect_drained=*/true);
  EXPECT_TRUE(rep.ok()) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.dropped, 100u);
}

TEST(TraceValidate, LossFailsOnlyWhenDrainedAndComplete) {
  const std::vector<trc::trace_op> ops = {
      op(0, 1, "enqueue", "q#0", 0),
      op(0, 2, "enqueue", "q#0", 1),
      op(1, 1, "dequeue", "q#0", 0),
  };
  auto rep = trc::validate_trace(ops, /*expect_drained=*/false);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.lost, 1u);

  rep = trc::validate_trace(ops, /*expect_drained=*/true);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors[0].find("never consumed"), std::string::npos);
}

TEST(TraceValidate, DuplicateSeqIsAnError) {
  const std::vector<trc::trace_op> ops = {
      op(0, 2, "enqueue", "q#0", 0),
      op(0, 2, "enqueue", "q#0", 1),
  };
  const auto rep = trc::validate_trace(ops, false);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors[0].find("duplicate seq"), std::string::npos);
}

// Seqs are 1-based. A seq-0 record (a writer bug, or a hand-made file)
// must be reported, and must not count 2^64-1 drops, which would mute
// the fabrication and loss checks below it.
TEST(TraceValidate, SeqZeroIsAnErrorAndCountsNoDrops) {
  const std::vector<trc::trace_op> ops = {
      op(0, 1, "enqueue", "q#0", 0),  // never consumed
      op(1, 0, "dequeue", "q#0", 7),  // never published
  };
  const auto rep = trc::validate_trace(ops, /*expect_drained=*/true);
  EXPECT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.errors.size(), 3u);
  EXPECT_NE(rep.errors[0].find("seq 0"), std::string::npos);
  EXPECT_NE(rep.errors[1].find("never published"), std::string::npos);
  EXPECT_NE(rep.errors[2].find("never consumed"), std::string::npos);
}

// Program order is seq order, not timeline order: an instant emitted
// mid-operation carries a later tsc than the operation's start-stamped
// record, so a tsc-sorted merge can interleave them — that must not read
// as a seq violation or as drops.
TEST(TraceValidate, TimelineOrderWithinAThreadIsNotAViolation) {
  const std::vector<trc::trace_op> ops = {
      op(0, 2, "enqueue", "q#0", 0),          // start-stamped, sorts later
      op(0, 1, "dwcas_retry", "q#0", 0),      // mid-op instant, earlier seq
      op(1, 1, "dequeue", "q#0", 0),
  };
  const auto rep = trc::validate_trace(ops, /*expect_drained=*/true);
  EXPECT_TRUE(rep.ok()) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.dropped, 0u);
}

// ---------------------------------------------------------------------------
// Tracer hooks on real queues (single-threaded determinism first).
// ---------------------------------------------------------------------------

TEST(TraceQueues, SpscEmitsOneRecordPerOperation) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spsc_q<trc::enabled> q(64);
  for (u64 i = 1; i <= 10; ++i) q.enqueue(i);
  u64 v = 0;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_dequeue(v));
  EXPECT_FALSE(q.try_dequeue(v));

  const auto merged = trc::merge_snapshots(reg.snapshot_all());
  const auto ops = trc::to_trace_ops(
      merged, [&](std::uint16_t id) { return reg.queue_name(id); });
  const auto rep = trc::validate_trace(ops, /*expect_drained=*/true);
  EXPECT_TRUE(rep.ok()) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.enqueues, 10u);
  EXPECT_EQ(rep.dequeues, 10u);
  // Ranks are the queue protocol's: 0..9 published in order on this one
  // queue by this one thread.
  EXPECT_EQ(ops.front().queue, "ffq-spsc#0");
}

TEST(TraceQueues, BulkOperationsEmitPerItemRecords) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spmc_q<trc::enabled> q(64);
  const u64 in[5] = {1, 2, 3, 4, 5};
  q.enqueue_bulk(in, 5);
  u64 out[5] = {};
  ASSERT_EQ(q.dequeue_bulk(out, 5), 5u);

  const auto merged = trc::merge_snapshots(reg.snapshot_all());
  std::size_t enq = 0, deq = 0;
  for (const auto& e : merged) {
    enq += e.rec.type == trc::event_type::enqueue ? 1 : 0;
    deq += e.rec.type == trc::event_type::dequeue ? 1 : 0;
  }
  EXPECT_EQ(enq, 5u);
  EXPECT_EQ(deq, 5u);
}

TEST(TraceQueues, DequeueBumpsProgressEpoch) {
  auto& reg = trc::registry::instance();
  reg.reset();
  mpmc_q<trc::enabled> q(64);
  q.enqueue(11);
  q.enqueue(22);
  u64 v = 0;
  ASSERT_TRUE(q.try_dequeue(v));
  ASSERT_TRUE(q.try_dequeue(v));
  const auto snaps = reg.snapshot_all();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].progress, 2u);
}

TEST(TraceQueues, WaitableEmitsParkAndWake) {
  auto& reg = trc::registry::instance();
  reg.reset();
  waitable_q<trc::enabled> q(64);
  std::thread consumer([&] {
    trc::set_thread_name("consumer");
    u64 v = 0;
    while (q.dequeue(v)) {
    }
  });
  // Give the consumer time to spin out and park on the eventcount, so
  // the enqueue takes the traced wake path.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  q.enqueue(1);
  q.close();
  consumer.join();

  std::size_t parks = 0, wakes = 0;
  for (const auto& s : reg.snapshot_all()) {
    for (const auto& r : s.records) {
      parks += r.type == trc::event_type::park ? 1 : 0;
      wakes += r.type == trc::event_type::wake ? 1 : 0;
    }
  }
  EXPECT_GE(parks, 1u);
  EXPECT_GE(wakes, 1u);
}

// The acceptance scenario, in-process: an MPMC stress run whose merged
// trace the validator certifies (per-producer FIFO, no loss, no dup).
TEST(TraceQueues, MpmcStressTraceValidates) {
  auto& reg = trc::registry::instance();
  reg.reset();
  reg.set_ring_capacity(1 << 15);  // ample: no drops, so "no loss" is hard
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr u64 kItems = 2000;  // per producer
  mpmc_q<trc::enabled> q(256);

  std::vector<std::thread> threads;
  std::atomic<u64> consumed{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      trc::set_thread_name("consumer-" + std::to_string(c));
      u64 v = 0;
      while (q.dequeue(v)) consumed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      trc::set_thread_name("producer-" + std::to_string(p));
      for (u64 i = 0; i < kItems; ++i) {
        q.enqueue((static_cast<u64>(p) << 32) | i);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : threads) t.join();
  ASSERT_EQ(consumed.load(), kProducers * kItems);

  const auto merged = trc::merge_snapshots(reg.snapshot_all());
  const auto ops = trc::to_trace_ops(
      merged, [&](std::uint16_t id) { return reg.queue_name(id); });
  const auto rep = trc::validate_trace(ops, /*expect_drained=*/true);
  EXPECT_TRUE(rep.ok()) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.dropped, 0u) << "ring too small for a loss-checked run";
  EXPECT_EQ(rep.enqueues, kProducers * kItems);
  EXPECT_EQ(rep.dequeues, kProducers * kItems);
  reg.set_ring_capacity(trc::trace_ring::kDefaultCapacity);
}

// ---------------------------------------------------------------------------
// Export: golden file (byte-stable contract) and RFC 8259 round-trip.
// ---------------------------------------------------------------------------

namespace {

/// Deterministic fixture for the export tests: two threads over one
/// registered queue, with an escaping-hostile thread name, a cross-thread
/// tsc tie, every event class (X, i), and a counter overlay.
std::vector<trc::thread_snapshot> golden_snapshots() {
  trc::thread_snapshot p;
  p.tid = 0;
  p.name = "producer-0";
  p.written = 4;
  p.records = {
      make_rec(1, 1000, trc::event_type::enqueue, 0, 0, 250),
      make_rec(2, 2000, trc::event_type::enqueue, 1, 0, 125),
      make_rec(3, 2500, trc::event_type::gap_created, 2, 0),
      make_rec(4, 3500, trc::event_type::full_stall, 3, 0),
  };
  trc::thread_snapshot c;
  c.tid = 1;
  c.name = "consumer \"0\"\\path\n";  // exercises the JSON escaper
  c.written = 4;
  c.progress = 2;
  c.records = {
      make_rec(1, 1500, trc::event_type::dequeue, 0, 0, 500),
      make_rec(2, 2000, trc::event_type::consumer_skip, 2, 0),  // tsc tie
      make_rec(3, 2600, trc::event_type::dequeue, 1, 0, 100),
      make_rec(4, 2700, trc::event_type::park, 0, 0),
  };
  return {p, c};
}

tel::metrics_snapshot golden_metrics() {
  tel::metrics_snapshot snap;
  snap.counters["queue.ffq-mpmc/consumer_skips"] = 1;
  snap.counters["queue.ffq-mpmc/gaps_created"] = 1;
  return snap;
}

}  // namespace

TEST(TraceExport, JsonMatchesGoldenFile) {
  auto& reg = trc::registry::instance();
  reg.reset();
  ASSERT_EQ(reg.register_queue("ffq-mpmc"), 0u);

  const auto metrics = golden_metrics();
  trc::export_options opts;
  opts.ticks_per_us = 1000.0;  // pinned: 1000 ticks = 1 µs, byte-stable
  opts.metrics = &metrics;
  const std::string produced = trc::chrome_trace_json(golden_snapshots(), opts);

  // Keep the produced text inspectable (and regeneratable) on mismatch.
  {
    std::ofstream f("/tmp/ffq_trace_v1_produced.json", std::ios::binary);
    f << produced;
  }
  const std::string golden =
      slurp(std::string(FFQ_GOLDEN_DIR) + "/trace_v1.json");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  EXPECT_EQ(produced, golden)
      << "trace JSON drifted from tests/golden/trace_v1.json; if the schema "
         "changed intentionally, bump kTraceSchema and regenerate from "
         "/tmp/ffq_trace_v1_produced.json";
}

TEST(TraceExport, RoundTripsThroughStrictJsonReader) {
  auto& reg = trc::registry::instance();
  reg.reset();
  ASSERT_EQ(reg.register_queue("ffq-mpmc"), 0u);
  const auto metrics = golden_metrics();
  trc::export_options opts;
  opts.ticks_per_us = 1000.0;
  opts.metrics = &metrics;
  const std::string text = trc::chrome_trace_json(golden_snapshots(), opts);

  const auto doc = trc::json::parse(text);
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.root["schema"].as_string(), trc::kTraceSchema);
  EXPECT_EQ(doc.root["displayTimeUnit"].as_string(), "ns");
  ASSERT_TRUE(doc.root["traceEvents"].is_array());
  const auto& events = doc.root["traceEvents"].as_array();

  // 1 process + 2 thread metadata, 8 queue events, 2 counters.
  ASSERT_EQ(events.size(), 13u);

  // The hostile thread name must round-trip exactly.
  bool found_name = false;
  std::size_t queue_events = 0;
  std::vector<trc::trace_op> ops;
  for (const auto& ev : events) {
    if (ev["ph"].as_string() == "M" &&
        ev["name"].as_string() == "thread_name" && ev["tid"].as_int() == 1) {
      EXPECT_EQ(ev["args"]["name"].as_string(), "consumer \"0\"\\path\n");
      found_name = true;
    }
    if (ev["cat"].as_string() == "queue") {
      ++queue_events;
      trc::trace_op o;
      o.tid = static_cast<std::uint32_t>(ev["tid"].as_int());
      o.seq = static_cast<std::uint64_t>(ev["args"]["seq"].as_int());
      o.type = ev["name"].as_string();
      o.queue = ev["args"]["queue"].as_string();
      o.rank = ev["args"]["rank"].as_int();
      EXPECT_TRUE(ev["args"]["seq"].int_exact());
      EXPECT_TRUE(ev["ts"].is_number());
      ops.push_back(std::move(o));
    }
  }
  EXPECT_TRUE(found_name);
  EXPECT_EQ(queue_events, 8u);
  EXPECT_EQ(ops.front().queue, "ffq-mpmc#0");

  // The parsed-back ops satisfy the queue contract (what trace_check
  // runs against real files).
  const auto rep = trc::validate_trace(ops, /*expect_drained=*/false);
  EXPECT_TRUE(rep.ok()) << (rep.errors.empty() ? "" : rep.errors[0]);
  EXPECT_EQ(rep.enqueues, 2u);
  EXPECT_EQ(rep.dequeues, 2u);
}

TEST(TraceExport, TimestampsAreRebasedAndScaled) {
  auto& reg = trc::registry::instance();
  reg.reset();
  reg.register_queue("ffq-mpmc");
  trc::export_options opts;
  opts.ticks_per_us = 1000.0;
  const std::string text = trc::chrome_trace_json(golden_snapshots(), opts);
  // min tsc (1000) maps to ts 0.000; the 250-tick dur maps to 0.250 µs.
  EXPECT_NE(text.find("\"ts\":0.000,\"dur\":0.250"), std::string::npos);
  // tsc 2000 -> 1.000 µs after rebasing.
  EXPECT_NE(text.find("\"ts\":1.000"), std::string::npos);
}

TEST(TraceExport, WriteChromeTraceProducesParseableFile) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spmc_q<trc::enabled> q(64);
  trc::set_thread_name("exporter-test");
  for (u64 i = 1; i <= 4; ++i) q.enqueue(i);
  u64 v = 0;
  while (q.try_dequeue(v)) {
  }
  const std::string path = "/tmp/ffq_test_trace_export.json";
  ASSERT_TRUE(trc::write_chrome_trace(path));
  const auto doc = trc::json::parse(slurp(path));
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.root["schema"].as_string(), trc::kTraceSchema);
  EXPECT_GE(doc.root["traceEvents"].as_array().size(), 9u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The strict JSON reader itself.
// ---------------------------------------------------------------------------

TEST(TraceJsonReader, ParsesEscapesAndSurrogatePairs) {
  const auto doc = trc::json::parse(
      R"({"s":"a\"b\\c\nd\u0041\ud83d\ude00","n":-12.5e1,"i":7,)"
      R"("b":true,"z":null,"a":[1,2]})");
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_EQ(doc.root["s"].as_string(), "a\"b\\c\nd" "A" "\xF0\x9F\x98\x80");
  EXPECT_EQ(doc.root["n"].as_double(), -125.0);
  EXPECT_FALSE(doc.root["n"].int_exact());
  EXPECT_EQ(doc.root["i"].as_int(), 7);
  EXPECT_TRUE(doc.root["i"].int_exact());
  EXPECT_TRUE(doc.root["b"].as_bool());
  EXPECT_TRUE(doc.root["z"].is_null());
  EXPECT_EQ(doc.root["a"].as_array().size(), 2u);
  // Missing-key chains resolve to null, no throw.
  EXPECT_TRUE(doc.root["missing"]["deeper"].is_null());
}

TEST(TraceJsonReader, RejectsNonRfc8259Documents) {
  EXPECT_FALSE(trc::json::parse("{\"a\":1,}").ok);     // trailing comma
  EXPECT_FALSE(trc::json::parse("{\"a\":01}").ok);     // leading zero
  EXPECT_FALSE(trc::json::parse("{\"a\":NaN}").ok);    // NaN literal
  EXPECT_FALSE(trc::json::parse("{'a':1}").ok);        // single quotes
  EXPECT_FALSE(trc::json::parse("{\"a\":1} x").ok);    // trailing junk
  EXPECT_FALSE(trc::json::parse("{\"a\":\"\\ud800\"}").ok);  // lone surrogate
  EXPECT_FALSE(trc::json::parse("{\"a\":\"\x01\"}").ok);  // raw control char
  EXPECT_FALSE(trc::json::parse("").ok);
}

// ---------------------------------------------------------------------------
// Watchdog: verdict classification on synthetic probes, then the live
// stuck-consumer demo on a real traced queue.
// ---------------------------------------------------------------------------

namespace {

/// A fabricated probe describing an arbitrary queue state — classify()
/// and the dump renderer are deterministic functions of this view.
trc::queue_probe fake_probe(std::string name, std::int64_t head,
                            std::int64_t tail, std::size_t capacity,
                            trc::cell_view head_cell) {
  trc::queue_probe p;
  p.name = std::move(name);
  p.head = [head] { return head; };
  p.tail = [tail] { return tail; };
  p.closed = [] { return false; };
  p.capacity = [capacity] { return capacity; };
  p.cell = [head, head_cell](std::int64_t rank) {
    return rank == head ? head_cell : trc::cell_view{};
  };
  return p;
}

}  // namespace

TEST(TraceWatchdog, ClassifiesStuckProducer) {
  trc::registry::instance().reset();
  trc::watchdog wd;
  wd.add_probe(fake_probe("fake", 5, 10, 16, trc::cell_view{-2, -1}));
  const std::string dump = wd.dump_now();
  EXPECT_NE(dump.find("stuck_producer"), std::string::npos);
  EXPECT_NE(dump.find("-2 reservation"), std::string::npos);
}

TEST(TraceWatchdog, ClassifiesLostRank) {
  trc::registry::instance().reset();
  trc::watchdog wd;
  // Cell for rank 5 holds rank 9 and its gap (3) does not cover 5.
  wd.add_probe(fake_probe("fake", 5, 10, 16, trc::cell_view{9, 3}));
  const std::string dump = wd.dump_now();
  EXPECT_NE(dump.find("lost_rank"), std::string::npos);
  EXPECT_NE(dump.find("protocol"), std::string::npos);
}

TEST(TraceWatchdog, ClassifiesFullRingLivelock) {
  trc::registry::instance().reset();
  trc::watchdog wd;
  wd.add_probe(fake_probe("fake", 4, 20, 16, trc::cell_view{4, -1}));
  const std::string dump = wd.dump_now();
  EXPECT_NE(dump.find("full_ring_livelock"), std::string::npos);
}

TEST(TraceWatchdog, DumpContainsQueueAndCellState) {
  trc::registry::instance().reset();
  trc::watchdog wd;
  wd.add_probe(fake_probe("my-queue", 5, 10, 16, trc::cell_view{5, -1}));
  const std::string dump = wd.dump_now();
  EXPECT_NE(dump.find("queue my-queue: head=5 tail=10 pending=5 capacity=16"),
            std::string::npos);
  EXPECT_NE(dump.find("<- head"), std::string::npos);
  EXPECT_NE(dump.find("<- tail"), std::string::npos);
  EXPECT_NE(dump.find("=== end dump ==="), std::string::npos);
}

TEST(TraceWatchdog, NoProbesDumpIsOk) {
  trc::registry::instance().reset();
  trc::watchdog wd;
  const std::string dump = wd.dump_now();
  EXPECT_NE(dump.find("=== ffq watchdog: ok ==="), std::string::npos);
}

// Deterministic verdict tests: the test owns time through an injected
// clock and is the only sampler (sample_once(), no sampler thread), so
// every assertion below is a pure state-machine check — no sleeps, no
// deadline polling, no dependence on machine load.

namespace {

/// Hand-cranked time source for watchdog::config::clock.
struct fake_clock {
  // Start well past the epoch so "age since baseline" arithmetic never
  // underflows a default-constructed time_point.
  std::chrono::steady_clock::time_point t{
      std::chrono::steady_clock::time_point{} + std::chrono::hours(1)};
  void advance(std::chrono::milliseconds d) { t += d; }
  std::function<std::chrono::steady_clock::time_point()> fn() {
    return [this] { return t; };
  }
};

}  // namespace

// The acceptance demo: a consumer that consumed, then silently stopped
// with work pending. The watchdog must trigger, say stuck_consumer, and
// name the frozen thread.
TEST(TraceWatchdog, StuckConsumerIsDetectedAndNamedDeterministically) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spmc_q<trc::enabled> q(64);
  for (u64 i = 1; i <= 10; ++i) q.enqueue(i);

  std::thread consumer([&] {
    trc::set_thread_name("lazy-consumer");
    u64 v = 0;
    // Consume a little, then "hang" (exit without draining): progress
    // epoch > 0 and frozen, with pending work behind the head.
    ASSERT_TRUE(q.try_dequeue(v));
    ASSERT_TRUE(q.try_dequeue(v));
  });
  consumer.join();

  fake_clock clock;
  std::vector<std::string> dumps;
  trc::watchdog::config cfg;
  cfg.stall_threshold = std::chrono::milliseconds(40);
  cfg.clock = clock.fn();
  cfg.sink = [&](trc::verdict, const std::string& d) { dumps.push_back(d); };
  trc::watchdog wd(std::move(cfg));
  wd.add_probe(trc::make_queue_probe(q, "ffq-spmc#0"));

  wd.sample_once();  // below threshold: arms ring-progress history only
  EXPECT_EQ(wd.triggers(), 0u);

  clock.advance(std::chrono::milliseconds(41));
  wd.sample_once();  // head frozen past threshold with work pending
  ASSERT_EQ(wd.triggers(), 1u);
  EXPECT_EQ(wd.last_verdict(), trc::verdict::stuck_consumer);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("stuck_consumer"), std::string::npos);
  EXPECT_NE(dumps[0].find("ffq-spmc#0"), std::string::npos);

  // The post-mortem names the frozen consumer: its progress epoch is > 0
  // and has not moved across the (fake) stall window.
  const std::string post_mortem = wd.dump_now();
  EXPECT_NE(post_mortem.find("lazy-consumer"), std::string::npos);
  EXPECT_NE(post_mortem.find("STALLED CONSUMER"), std::string::npos);
}

TEST(TraceWatchdog, RecoversAndStaysQuietOncePerIncident) {
  auto& reg = trc::registry::instance();
  reg.reset();
  spmc_q<trc::enabled> q(64);
  q.enqueue(1);
  q.enqueue(2);

  fake_clock clock;
  int fired = 0;
  trc::watchdog::config cfg;
  cfg.stall_threshold = std::chrono::milliseconds(30);
  cfg.clock = clock.fn();
  cfg.sink = [&](trc::verdict, const std::string&) { ++fired; };
  trc::watchdog wd(std::move(cfg));
  wd.add_probe(trc::make_queue_probe(q, "q"));

  clock.advance(std::chrono::milliseconds(31));
  wd.sample_once();
  ASSERT_EQ(fired, 1);

  // Same incident, more samples: once_per_incident keeps it at one dump.
  for (int i = 0; i < 5; ++i) {
    clock.advance(std::chrono::milliseconds(31));
    wd.sample_once();
  }
  EXPECT_EQ(fired, 1);

  // Head moves (incident clears), then freezes again with work pending:
  // a second incident, a second dump.
  u64 v = 0;
  ASSERT_TRUE(q.try_dequeue(v));
  wd.sample_once();  // observes the moved head, closes the incident
  EXPECT_EQ(fired, 1);
  clock.advance(std::chrono::milliseconds(31));
  wd.sample_once();
  EXPECT_EQ(fired, 2);
}

TEST(TraceWatchdog, FullRingLivelockVerdictDeterministically) {
  trc::registry::instance().reset();
  spmc_q<trc::enabled> q(4);
  for (u64 i = 1; i <= 4; ++i) q.enqueue(i);  // ring full, nobody consumes

  fake_clock clock;
  trc::watchdog::config cfg;
  cfg.stall_threshold = std::chrono::milliseconds(30);
  cfg.clock = clock.fn();
  cfg.sink = [](trc::verdict, const std::string&) {};
  trc::watchdog wd(std::move(cfg));
  wd.add_probe(trc::make_queue_probe(q, "full"));

  clock.advance(std::chrono::milliseconds(31));
  wd.sample_once();
  EXPECT_EQ(wd.triggers(), 1u);
  EXPECT_EQ(wd.last_verdict(), trc::verdict::full_ring_livelock);
}

TEST(TraceWatchdog, IdleQueueNeverTriggers) {
  trc::registry::instance().reset();
  spmc_q<trc::enabled> q(64);  // empty: tail == head
  fake_clock clock;
  trc::watchdog::config cfg;
  cfg.stall_threshold = std::chrono::milliseconds(10);
  cfg.clock = clock.fn();
  cfg.sink = [](trc::verdict, const std::string&) {};
  trc::watchdog wd(std::move(cfg));
  wd.add_probe(trc::make_queue_probe(q, "idle"));
  for (int i = 0; i < 10; ++i) {
    clock.advance(std::chrono::milliseconds(100));
    wd.sample_once();
  }
  EXPECT_EQ(wd.triggers(), 0u);
  EXPECT_EQ(wd.last_verdict(), trc::verdict::ok);
}

// ---------------------------------------------------------------------------
// Queue introspection feeding the probes.
// ---------------------------------------------------------------------------

TEST(TraceIntrospection, RanksAndCellsReflectQueueState) {
  trc::registry::instance().reset();
  mpmc_q<trc::enabled> q(8);
  EXPECT_EQ(q.head_rank(), 0);
  EXPECT_EQ(q.tail_rank(), 0);
  q.enqueue(10);
  q.enqueue(20);
  EXPECT_EQ(q.head_rank(), 0);
  EXPECT_EQ(q.tail_rank(), 2);
  // Rank 0's cell holds rank 0 (published, unconsumed).
  EXPECT_EQ(q.inspect_rank(0).rank, 0);
  u64 v = 0;
  ASSERT_TRUE(q.try_dequeue(v));
  EXPECT_EQ(q.head_rank(), 1);
}
