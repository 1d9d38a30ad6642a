// Tests for ffq::telemetry — the zero-cost claim (sizeof parity of the
// disabled policy vs the uninstrumented pre-telemetry layouts), bucket
// math, deterministic queue event counts, and the registry/snapshot
// export pipeline. Everything here instantiates the telemetry policy
// explicitly, so the suite is meaningful in both FFQ_TELEMETRY build
// modes.
#include "ffq/telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/runtime/eventcount.hpp"
#include "layout_mirrors.hpp"

namespace tel = ffq::telemetry;
using ffq::core::layout_aligned;

// ---------------------------------------------------------------------------
// Zero-cost OFF: the disabled counter block is empty and [[no_unique_address]]
// keeps every queue's size and alignment byte-identical to the layouts that
// shipped before telemetry existed. The mirror structs (layout_mirrors.hpp)
// replicate those pre-telemetry member sequences verbatim.
// ---------------------------------------------------------------------------

namespace {

using u64 = std::uint64_t;
// Trace policy pinned to disabled: these mirrors isolate the *telemetry*
// layout claim, and must hold in FFQ_TRACE=ON builds too.
template <typename Policy>
using spsc_q =
    ffq::core::spsc_queue<u64, layout_aligned, Policy, ffq::trace::disabled>;
template <typename Policy>
using spmc_q =
    ffq::core::spmc_queue<u64, layout_aligned, Policy, ffq::trace::disabled>;
template <typename Policy>
using mpmc_q =
    ffq::core::mpmc_queue<u64, layout_aligned, Policy, ffq::trace::disabled>;
template <typename Policy>
using waitable_q =
    ffq::core::waitable_spsc_queue<u64, layout_aligned, Policy,
                                   ffq::trace::disabled>;

using spsc_mirror = ffq_test::spsc_mirror<u64>;
using spmc_mirror = ffq_test::spmc_mirror<u64>;
using mpmc_mirror = ffq_test::mpmc_mirror<u64>;
using waitable_mirror = ffq_test::waitable_mirror<spsc_q<tel::disabled>>;

static_assert(std::is_empty_v<tel::queue_counters<tel::disabled>>);

static_assert(sizeof(spsc_q<tel::disabled>) == sizeof(spsc_mirror),
              "disabled telemetry must not grow spsc_queue");
static_assert(sizeof(spmc_q<tel::disabled>) == sizeof(spmc_mirror),
              "disabled telemetry must not grow spmc_queue");
static_assert(sizeof(mpmc_q<tel::disabled>) == sizeof(mpmc_mirror),
              "disabled telemetry must not grow mpmc_queue");
static_assert(sizeof(waitable_q<tel::disabled>) == sizeof(waitable_mirror),
              "disabled telemetry must not grow waitable_spsc_queue");

static_assert(alignof(spsc_q<tel::disabled>) == alignof(spsc_mirror));
static_assert(alignof(spmc_q<tel::disabled>) == alignof(spmc_mirror));
static_assert(alignof(mpmc_q<tel::disabled>) == alignof(mpmc_mirror));
static_assert(alignof(waitable_q<tel::disabled>) == alignof(waitable_mirror));

}  // namespace

TEST(TelemetryZeroCost, PolicyTagsAreCoherent) {
  EXPECT_TRUE(tel::enabled::kEnabled);
  EXPECT_FALSE(tel::disabled::kEnabled);
  EXPECT_TRUE(tel::queue_counters<tel::enabled>::kEnabled);
  EXPECT_FALSE(tel::queue_counters<tel::disabled>::kEnabled);
}

TEST(TelemetryZeroCost, DisabledBlockReportsZeroAndVisitsNothing) {
  tel::queue_counters<tel::disabled> c;
  c.on_gap_created();
  c.on_bulk(32);
  c.on_park();
  EXPECT_EQ(c.gaps_created(), 0u);
  EXPECT_EQ(c.bulk_calls(), 0u);
  EXPECT_EQ(c.bulk_items(), 0u);
  int visits = 0;
  c.for_each([&](const char*, std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0);
}

// ---------------------------------------------------------------------------
// Bulk batch-size buckets
// ---------------------------------------------------------------------------

TEST(TelemetryBuckets, BulkBucketIsLog2WithClamp) {
  EXPECT_EQ(tel::bulk_bucket(0), 0u);  // degenerate bulk call of 0 items
  EXPECT_EQ(tel::bulk_bucket(1), 0u);
  EXPECT_EQ(tel::bulk_bucket(2), 1u);
  EXPECT_EQ(tel::bulk_bucket(3), 1u);
  EXPECT_EQ(tel::bulk_bucket(4), 2u);
  EXPECT_EQ(tel::bulk_bucket(7), 2u);
  EXPECT_EQ(tel::bulk_bucket(8), 3u);
  EXPECT_EQ(tel::bulk_bucket(127), 6u);
  EXPECT_EQ(tel::bulk_bucket(128), 7u);
  EXPECT_EQ(tel::bulk_bucket(1u << 20), 7u);  // clamped to the last bucket
}

TEST(TelemetryBuckets, BulkBucketNamesCoverEveryBucket) {
  EXPECT_STREQ(tel::bulk_bucket_name(0), "bulk_batch_1");
  EXPECT_STREQ(tel::bulk_bucket_name(7), "bulk_batch_128_up");
  for (std::size_t b = 0; b < tel::kBulkBucketCount; ++b) {
    EXPECT_NE(tel::bulk_bucket_name(b), nullptr);
  }
}

TEST(TelemetryCounters, EnabledBlockCountsAndVisits) {
  tel::queue_counters<tel::enabled> c;
  c.on_gap_created();
  c.on_gap_created();
  c.on_consumer_skip();
  c.on_dwcas_retry();
  c.on_bulk(1);
  c.on_bulk(6);
  EXPECT_EQ(c.gaps_created(), 2u);
  EXPECT_EQ(c.consumer_skips(), 1u);
  EXPECT_EQ(c.dwcas_retries(), 1u);
  EXPECT_EQ(c.bulk_calls(), 2u);
  EXPECT_EQ(c.bulk_items(), 7u);
  EXPECT_EQ(c.bulk_batches(tel::bulk_bucket(1)), 1u);
  EXPECT_EQ(c.bulk_batches(tel::bulk_bucket(6)), 1u);

  std::map<std::string, std::uint64_t> seen;
  c.for_each([&](const char* name, std::uint64_t v) { seen[name] = v; });
  // 10 scalar counters + one entry per bulk bucket.
  EXPECT_EQ(seen.size(), 10u + tel::kBulkBucketCount);
  EXPECT_EQ(seen["gaps_created"], 2u);
  EXPECT_EQ(seen["bulk_items"], 7u);
  EXPECT_EQ(seen["bulk_batch_4_7"], 1u);
  EXPECT_EQ(seen["parks"], 0u);
}

// ---------------------------------------------------------------------------
// Histogram bucket math and percentiles
// ---------------------------------------------------------------------------

TEST(TelemetryHistogram, UnitBucketsAreExactBelowSubBucketCount) {
  using h = tel::log_histogram;
  for (std::uint64_t v = 0; v < h::kSubBuckets; ++v) {
    EXPECT_EQ(h::bucket_index(v), v);
    EXPECT_EQ(h::bucket_lower(v), v);
    EXPECT_EQ(h::bucket_width(v), 1u);
    EXPECT_EQ(h::bucket_mid(v), v);
  }
}

TEST(TelemetryHistogram, BucketLowerIsInverseOfBucketIndex) {
  using h = tel::log_histogram;
  for (std::uint64_t v :
       {std::uint64_t{8}, std::uint64_t{9}, std::uint64_t{100},
        std::uint64_t{1000}, std::uint64_t{1} << 20, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 40) + 12345, ~std::uint64_t{0}}) {
    const std::size_t idx = h::bucket_index(v);
    EXPECT_LT(idx, h::kBucketCount);
    EXPECT_LE(h::bucket_lower(idx), v) << v;
    // Overflow-safe form of lower + width > v (the top bucket's
    // lower + width wraps past UINT64_MAX).
    EXPECT_LT(v - h::bucket_lower(idx), h::bucket_width(idx)) << v;
    EXPECT_EQ(h::bucket_index(h::bucket_lower(idx)), idx) << v;
  }
}

TEST(TelemetryHistogram, RelativeErrorIsBoundedBySubBucketWidth) {
  using h = tel::log_histogram;
  for (std::uint64_t v = h::kSubBuckets; v < (std::uint64_t{1} << 24);
       v = v * 2 + 7) {
    const std::size_t idx = h::bucket_index(v);
    // Bucket width ≤ value / 2^kSubBits → ≤12.5% relative error.
    EXPECT_LE(h::bucket_width(idx), v / h::kSubBuckets + 1) << v;
  }
}

TEST(TelemetryHistogram, RecordTracksCountSumMax) {
  tel::log_histogram h;
  h.record(3);
  h.record(100);
  h.record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(tel::log_histogram::bucket_index(3)), 1u);
}

TEST(TelemetryHistogram, PercentilesOnUniformDistribution) {
  tel::log_histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  tel::merged_histogram m;
  m.add(h);
  const auto s = m.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_EQ(s.mean, 500u);  // 500500/1000
  // Log-bucketed: each percentile is within one bucket (≤12.5%) of truth.
  EXPECT_NEAR(static_cast<double>(s.p50), 500.0, 500.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(s.p90), 900.0, 900.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(s.p99), 990.0, 990.0 * 0.125);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
}

TEST(TelemetryHistogram, PercentileClampsToObservedMax) {
  tel::log_histogram h;
  h.record(1000000);  // single sample: every percentile is that sample's
  tel::merged_histogram m;  // bucket mid, clamped to the exact max
  m.add(h);
  EXPECT_EQ(m.percentile(0.5), 1000000u);
  EXPECT_EQ(m.percentile(0.999), 1000000u);
  EXPECT_EQ(m.summary().p999, 1000000u);
}

TEST(TelemetryHistogram, MergeAccumulatesAcrossShards) {
  tel::log_histogram a, b;
  for (int i = 0; i < 10; ++i) a.record(10);
  for (int i = 0; i < 10; ++i) b.record(1000);
  tel::merged_histogram m;
  m.add(a);
  m.add(b);
  EXPECT_EQ(m.count(), 20u);
  const auto s = m.summary();
  EXPECT_EQ(s.max, 1000u);
  EXPECT_NEAR(static_cast<double>(s.p50), 10.0, 10.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(s.p99), 1000.0, 1000.0 * 0.125);
}

TEST(TelemetryHistogram, EmptyHistogramSummarizesToZeros) {
  tel::merged_histogram m;
  const auto s = m.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p999, 0u);
  EXPECT_EQ(m.percentile(0.99), 0u);
}

// ---------------------------------------------------------------------------
// Deterministic queue event counts (explicit enabled policy)
// ---------------------------------------------------------------------------

TEST(TelemetryQueues, SpscGapFullStallAndSkipCounts) {
  // Capacity-4 ring; the producer's 5th enqueue wraps onto occupied
  // cells, announces a gap at every slot (4 gaps), and then hits the
  // full-ring stall until the consumer frees a cell. The consumer later
  // walks over those same 4 gap ranks.
  spsc_q<tel::enabled> q(4);
  for (u64 v = 0; v < 4; ++v) q.enqueue(v);

  std::thread producer([&] { q.enqueue(4); });
  while (q.telemetry().full_stalls() == 0) std::this_thread::yield();

  std::vector<u64> got;
  u64 out = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.dequeue(out));
    got.push_back(out);
  }
  producer.join();

  EXPECT_EQ(got, (std::vector<u64>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.gaps_created(), 4u);
  EXPECT_EQ(q.consumer_skips(), 4u);
  EXPECT_GE(q.telemetry().full_stalls(), 1u);
  EXPECT_EQ(q.telemetry().dwcas_retries(), 0u);  // never in SP variants
}

TEST(TelemetryQueues, SpmcBulkCountsBatchesAndBlockFaa) {
  spmc_q<tel::enabled> q(8);
  const u64 in[4] = {1, 2, 3, 4};
  q.enqueue_bulk(in, 4);
  u64 out[4] = {};
  ASSERT_EQ(q.dequeue_bulk(out, 4), 4u);

  const auto& t = q.telemetry();
  EXPECT_EQ(t.bulk_calls(), 2u);  // one enqueue_bulk + one dequeue_bulk
  EXPECT_EQ(t.bulk_items(), 8u);
  EXPECT_EQ(t.bulk_batches(tel::bulk_bucket(4)), 2u);
  EXPECT_GE(t.rank_block_faas(), 1u);  // dequeue claimed a 4-rank block
  EXPECT_EQ(t.gaps_created(), 0u);
  EXPECT_EQ(t.consumer_skips(), 0u);
}

TEST(TelemetryQueues, MpmcBulkCountsAndNoRetriesWithoutContention) {
  mpmc_q<tel::enabled> q(8);
  const u64 in[4] = {1, 2, 3, 4};
  q.enqueue_bulk(in, 4);
  u64 out[4] = {};
  ASSERT_EQ(q.dequeue_bulk(out, 4), 4u);

  const auto& t = q.telemetry();
  EXPECT_EQ(t.bulk_calls(), 2u);
  EXPECT_EQ(t.bulk_items(), 8u);
  EXPECT_GE(t.rank_block_faas(), 2u);  // tail block(s) + head block
  EXPECT_EQ(t.dwcas_retries(), 0u);    // single thread: no lost races
  EXPECT_EQ(t.gaps_created(), 0u);
}

TEST(TelemetryQueues, WaitableCountsParksAndWakes) {
  waitable_q<tel::enabled> q(8);
  std::atomic<u64> got{0};
  std::thread consumer([&] {
    u64 out = 0;
    ASSERT_TRUE(q.dequeue(out));
    got.store(out);
  });
  // Wait until the consumer is actually parked so the enqueue both
  // counts a wake and issues a futex wake.
  while (q.approx_waiters() == 0) std::this_thread::yield();
  q.enqueue(42);
  consumer.join();

  EXPECT_EQ(got.load(), 42u);
  EXPECT_GE(q.telemetry().parks(), 1u);
  EXPECT_GE(q.telemetry().wakes(), 1u);
}

TEST(TelemetryQueues, DisabledPolicyQueueStaysSilent) {
  spsc_q<tel::disabled> q(8);
  q.enqueue(7);
  u64 out = 0;
  ASSERT_TRUE(q.try_dequeue(out));
  EXPECT_EQ(q.gaps_created(), 0u);
  int visits = 0;
  q.telemetry().for_each([&](const char*, std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0);
}

// ---------------------------------------------------------------------------
// Registry + snapshot export pipeline
// ---------------------------------------------------------------------------

TEST(TelemetryRegistry, AccumulateFoldsIntoDomainSlashName) {
  auto& reg = tel::registry::instance();
  reg.reset();
  reg.accumulate("queue.test", "gaps_created", 3);
  reg.accumulate("queue.test", "gaps_created", 2);
  reg.accumulate("queue.other", "parks", 1);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("queue.test/gaps_created"), 5u);
  EXPECT_EQ(snap.counters.at("queue.other/parks"), 1u);
  EXPECT_EQ(snap.counters.size(), 2u);
}

TEST(TelemetryRegistry, AccumulateQueueSkipsZeroCounters) {
  auto& reg = tel::registry::instance();
  reg.reset();
  tel::queue_counters<tel::enabled> c;
  c.on_gap_created();
  c.on_bulk(4);
  reg.accumulate_queue("queue.unit", c);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("queue.unit/gaps_created"), 1u);
  EXPECT_EQ(snap.counters.at("queue.unit/bulk_calls"), 1u);
  EXPECT_EQ(snap.counters.at("queue.unit/bulk_items"), 4u);
  EXPECT_EQ(snap.counters.at("queue.unit/bulk_batch_4_7"), 1u);
  // Zero-valued counters (skips, retries, parks, ...) must not pollute
  // the export.
  EXPECT_EQ(snap.counters.count("queue.unit/consumer_skips"), 0u);
  EXPECT_EQ(snap.counters.size(), 4u);
}

TEST(TelemetryRegistry, DisabledBlockAccumulatesNothing) {
  auto& reg = tel::registry::instance();
  reg.reset();
  tel::queue_counters<tel::disabled> c;
  reg.accumulate_queue("queue.unit", c);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(TelemetryRegistry, RecorderMergesShardsFromManyThreads) {
  auto& reg = tel::registry::instance();
  reg.reset();
  auto& rec = reg.recorder("unit.latency_ns");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, t] {
      tel::log_histogram* shard = rec.new_shard();
      for (int i = 0; i < kPerThread; ++i) {
        shard->record(static_cast<std::uint64_t>(100 * (t + 1)));
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto m = rec.merge();
  EXPECT_EQ(m.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.count("unit.latency_ns"), 1u);
  EXPECT_EQ(snap.histograms.at("unit.latency_ns").count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.histograms.at("unit.latency_ns").max, 400u);
}

TEST(TelemetryRegistry, SameNameReturnsSameRecorder) {
  auto& reg = tel::registry::instance();
  reg.reset();
  EXPECT_EQ(&reg.recorder("a"), &reg.recorder("a"));
  EXPECT_NE(&reg.recorder("a"), &reg.recorder("b"));
}

TEST(TelemetryRegistry, PerfSamplesLastWriteWins) {
  auto& reg = tel::registry::instance();
  reg.reset();
  reg.set_perf_sample("cycles", 100);
  reg.set_perf_sample("cycles", 200);
  reg.set_perf_sample("instructions", 50);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.perf.at("cycles"), 200u);
  EXPECT_EQ(snap.perf.at("instructions"), 50u);
}

TEST(TelemetryRegistry, ResetClearsEverything) {
  auto& reg = tel::registry::instance();
  reg.reset();
  reg.accumulate("d", "n", 1);
  reg.recorder("r").new_shard()->record(5);
  reg.set_perf_sample("cycles", 1);
  EXPECT_FALSE(reg.snapshot().empty());
  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

TEST(TelemetryJson, EscapeHandlesControlCharsQuotesAndBackslashes) {
  EXPECT_EQ(tel::json_escape("plain"), "plain");
  EXPECT_EQ(tel::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(tel::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(tel::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(tel::json_escape("\b\f\r"), "\\b\\f\\r");
  EXPECT_EQ(tel::json_escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

TEST(TelemetryJson, SnapshotSerializesDeterministically) {
  tel::metrics_snapshot snap;
  snap.counters["b/y"] = 2;
  snap.counters["a/x"] = 1;
  snap.histograms["lat"] = tel::histogram_summary{4, 40, 20, 10, 30, 39, 40};
  snap.perf["cycles"] = 123;

  const std::string expected =
      "{\n"
      "  \"schema\": \"ffq.metrics.v1\",\n"
      "  \"counters\": {\n"
      "    \"a/x\": 1,\n"
      "    \"b/y\": 2\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"lat\": {\n"
      "      \"count\": 4,\n"
      "      \"max\": 40,\n"
      "      \"mean\": 20,\n"
      "      \"p50\": 10,\n"
      "      \"p90\": 30,\n"
      "      \"p99\": 39,\n"
      "      \"p999\": 40\n"
      "    }\n"
      "  },\n"
      "  \"perf\": {\n"
      "    \"cycles\": 123\n"
      "  }\n"
      "}";
  EXPECT_EQ(snap.to_json(0), expected);
}

TEST(TelemetryJson, EmptySnapshotStillCarriesSchema) {
  tel::metrics_snapshot snap;
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.to_json(0),
            "{\n"
            "  \"schema\": \"ffq.metrics.v1\",\n"
            "  \"counters\": {},\n"
            "  \"histograms\": {},\n"
            "  \"perf\": {}\n"
            "}");
}

TEST(TelemetryJson, IndentShiftsEveryLineForEmbedding) {
  tel::metrics_snapshot snap;
  snap.counters["a"] = 1;
  const std::string j = snap.to_json(2);
  EXPECT_NE(j.find("\n    \"schema\""), std::string::npos);
  EXPECT_NE(j.find("\n      \"a\": 1"), std::string::npos);
  EXPECT_EQ(j.back(), '}');
}

// End-to-end: a real instrumented queue drained by the harness pattern —
// fold counters into the registry right before the queue dies, snapshot
// after, and the totals survive the queue's destruction.
TEST(TelemetryPipeline, CountersOutliveTheQueue) {
  auto& reg = tel::registry::instance();
  reg.reset();
  {
    spsc_q<tel::enabled> q(4);
    for (u64 v = 0; v < 4; ++v) q.enqueue(v);
    std::thread producer([&] { q.enqueue(4); });
    while (q.telemetry().full_stalls() == 0) std::this_thread::yield();
    u64 out = 0;
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.dequeue(out));
    producer.join();
    reg.accumulate_queue("queue.ffq-spsc", q.telemetry());
  }
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("queue.ffq-spsc/gaps_created"), 4u);
  EXPECT_EQ(snap.counters.at("queue.ffq-spsc/consumer_skips"), 4u);
  EXPECT_GE(snap.counters.at("queue.ffq-spsc/full_stalls"), 1u);
  reg.reset();
}
