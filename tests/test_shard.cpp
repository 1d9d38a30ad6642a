// Tests for ffq::shard — the sharded SPMC fabric (DESIGN.md §11): the
// zero-cost claim (disabled telemetry/trace leave the fabric layout
// byte-identical, asserted against mirror structs), conservation and
// per-producer FIFO under real threads in both modes, the ordered mode's
// closed-drain total order, the scheduler's telemetry counters (steals,
// drains, empty polls/sweeps), and placement-plan reuse of the runtime
// topology layer.
#include "ffq/shard/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ffq/telemetry/counters.hpp"
#include "ffq/trace/policy.hpp"

namespace sh = ffq::shard;
namespace rt = ffq::runtime;
namespace tel = ffq::telemetry;
namespace trc = ffq::trace;

namespace {

using fab_plain = sh::fabric<long long, false, ffq::core::layout_aligned,
                             tel::disabled, trc::disabled>;
using fab_plain_ord = sh::fabric<long long, true, ffq::core::layout_aligned,
                                 tel::disabled, trc::disabled>;
using fab_tel = sh::fabric<long long, false, ffq::core::layout_aligned,
                           tel::enabled, trc::disabled>;

// --- zero-cost layout: mirrors of the fully-disabled fabrics --------------
// The mirror repeats the fabric's members minus the policy blocks; equal
// size and alignment proves [[no_unique_address]] erased them.

struct fabric_mirror {
  std::size_t shard_capacity;
  sh::options opts;
  std::vector<std::unique_ptr<fab_plain::shard_type>> shards;
  sh::placement_plan plan;
  std::atomic<std::uint64_t> next_consumer;
  std::atomic<bool> closed;
};

struct fabric_ordered_mirror {
  std::size_t shard_capacity;
  sh::options opts;
  std::vector<std::unique_ptr<fab_plain_ord::shard_type>> shards;
  sh::placement_plan plan;
  std::atomic<std::uint64_t> next_consumer;
  std::atomic<bool> closed;
  rt::padded<std::atomic<std::uint64_t>> epoch;
};

static_assert(std::is_empty_v<tel::fabric_counters<tel::disabled>>);

static_assert(sizeof(fab_plain) == sizeof(fabric_mirror),
              "disabled policies must not grow the fabric");
static_assert(sizeof(fab_plain_ord) == sizeof(fabric_ordered_mirror),
              "disabled policies must not grow the ordered fabric");
static_assert(alignof(fab_plain) == alignof(fabric_mirror));
static_assert(alignof(fab_plain_ord) == alignof(fabric_ordered_mirror));

/// Value encoding: producer p's i-th item is p * kStride + i, so streams
/// decompose into per-producer subsequences without a side channel.
constexpr long long kStride = 1'000'000;

/// Assert `stream` preserves each producer's enqueue order.
void expect_per_producer_fifo(const std::vector<long long>& stream) {
  std::map<long long, long long> last_seq;  // producer -> last seq seen
  for (long long v : stream) {
    const long long p = v / kStride;
    const long long i = v % kStride;
    auto it = last_seq.find(p);
    if (it != last_seq.end()) {
      ASSERT_LT(it->second, i) << "producer " << p << " reordered";
    }
    last_seq[p] = i;
  }
}

/// Run `producers` threads enqueuing `items` each through Fabric, drain
/// with `consumers` threads, and return the per-consumer streams.
template <typename Fabric>
std::vector<std::vector<long long>> run_fabric(Fabric& fab, int producers,
                                               int items, int consumers) {
  std::vector<std::thread> pts;
  std::atomic<int> left{producers};
  for (int p = 0; p < producers; ++p) {
    pts.emplace_back([&, p] {
      auto ep = fab.producer(static_cast<std::size_t>(p));
      for (int i = 0; i < items; ++i) {
        ep.enqueue(static_cast<long long>(p) * kStride + i);
      }
      if (left.fetch_sub(1) == 1) fab.close();
    });
  }
  std::vector<std::vector<long long>> streams(
      static_cast<std::size_t>(consumers));
  std::vector<std::thread> cts;
  for (int c = 0; c < consumers; ++c) {
    cts.emplace_back([&, c] {
      auto ep = fab.consumer();
      long long v = 0;
      while (ep.dequeue(v)) streams[static_cast<std::size_t>(c)].push_back(v);
    });
  }
  for (auto& t : pts) t.join();
  for (auto& t : cts) t.join();
  return streams;
}

/// Flatten, sort, and compare against the full expected multiset.
void expect_conservation(const std::vector<std::vector<long long>>& streams,
                         int producers, int items) {
  std::vector<long long> got;
  for (const auto& s : streams) got.insert(got.end(), s.begin(), s.end());
  std::sort(got.begin(), got.end());
  std::vector<long long> want;
  for (int p = 0; p < producers; ++p) {
    for (int i = 0; i < items; ++i) {
      want.push_back(static_cast<long long>(p) * kStride + i);
    }
  }
  ASSERT_EQ(got, want);
}

}  // namespace

TEST(ShardFabric, ShapeAndLifecycle) {
  fab_plain fab(4, 64);
  EXPECT_EQ(fab.shards(), 4u);
  EXPECT_EQ(fab.shard_capacity(), 64u);
  EXPECT_FALSE(fab.closed());
  EXPECT_EQ(fab.approx_size(), 0);
  EXPECT_TRUE(fab.placement().empty());  // default policy: none
  fab.close();
  EXPECT_TRUE(fab.closed());
}

// Sizes that would divide by zero in the consumer cursor, trip only the
// ring's assert, or make every visit take nothing are refused up front.
TEST(ShardFabric, ConstructorRejectsBadSizes) {
  EXPECT_THROW(fab_plain(0, 64), std::invalid_argument);
  EXPECT_THROW(fab_plain(2, 48), std::invalid_argument);
  EXPECT_THROW(fab_plain(2, 1), std::invalid_argument);
  sh::options no_quota;
  no_quota.drain_quota = 0;
  EXPECT_THROW(fab_plain(2, 64, no_quota), std::invalid_argument);
  EXPECT_THROW(fab_plain_ord(0, 64), std::invalid_argument);
  EXPECT_NO_THROW(fab_plain(1, 2));
}

TEST(ShardFabric, UnorderedConservationAndPerProducerFifo) {
  const int kProducers = 4, kItems = 5000, kConsumers = 2;
  fab_plain fab(kProducers, 1024);
  const auto streams = run_fabric(fab, kProducers, kItems, kConsumers);
  expect_conservation(streams, kProducers, kItems);
  for (const auto& s : streams) expect_per_producer_fifo(s);
}

TEST(ShardFabric, OrderedConservationAndPerProducerFifo) {
  const int kProducers = 3, kItems = 3000, kConsumers = 2;
  fab_plain_ord fab(kProducers, 1024);
  const auto streams = run_fabric(fab, kProducers, kItems, kConsumers);
  expect_conservation(streams, kProducers, kItems);
  for (const auto& s : streams) expect_per_producer_fifo(s);
}

// Ordered mode's strongest contract: draining a *closed* fabric with a
// single consumer yields exact global epoch order. With enqueues issued
// from one thread, epoch order is enqueue order, so the drained sequence
// must equal the enqueue sequence even though it zig-zags across shards.
TEST(ShardFabric, OrderedClosedDrainIsEnqueueOrder) {
  const int kProducers = 3, kRounds = 40;
  fab_plain_ord fab(kProducers, 128);
  std::vector<long long> want;
  for (int i = 0; i < kRounds; ++i) {
    // Uneven zig-zag so the merge has to interleave shards non-trivially.
    for (int p = 0; p < kProducers; ++p) {
      const int burst = 1 + (i + p) % 3;
      auto ep = fab.producer(static_cast<std::size_t>(p));
      for (int b = 0; b < burst; ++b) {
        const long long v =
            static_cast<long long>(p) * kStride + i * 10 + b;
        ep.enqueue(v);
        want.push_back(v);
      }
    }
  }
  fab.close();
  auto c = fab.consumer();
  std::vector<long long> got;
  long long v = 0;
  while (c.dequeue(v)) got.push_back(v);
  ASSERT_EQ(got, want);
}

TEST(ShardFabric, BulkEnqueueAndBulkDequeueAgree) {
  const int kProducers = 2, kItems = 4096;
  fab_plain fab(kProducers, 512);
  std::vector<std::thread> pts;
  std::atomic<int> left{kProducers};
  for (int p = 0; p < kProducers; ++p) {
    pts.emplace_back([&, p] {
      auto ep = fab.producer(static_cast<std::size_t>(p));
      std::vector<long long> batch;
      for (int i = 0; i < kItems; ++i) {
        batch.push_back(static_cast<long long>(p) * kStride + i);
        if (batch.size() == 64) {
          ep.enqueue_bulk(batch.begin(), batch.size());
          batch.clear();
        }
      }
      if (!batch.empty()) ep.enqueue_bulk(batch.begin(), batch.size());
      if (left.fetch_sub(1) == 1) fab.close();
    });
  }
  std::vector<std::vector<long long>> streams(1);
  std::thread ct([&] {
    auto ep = fab.consumer();
    std::vector<long long> buf(128);
    for (;;) {
      const std::size_t n = ep.dequeue_bulk(buf.begin(), buf.size());
      if (n == 0) break;
      streams[0].insert(streams[0].end(), buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
  });
  for (auto& t : pts) t.join();
  ct.join();
  expect_conservation(streams, kProducers, kItems);
  expect_per_producer_fifo(streams[0]);
}

// The scheduler's telemetry: draining through the cursor counts drains
// and items; a consumer whose cursor shard is empty while another shard
// holds items must record a steal; polling a fully-empty fabric records
// empty polls and an empty sweep.
TEST(ShardFabric, SchedulerCountersCount) {
  fab_tel fab(2, 64);
  // consumer() handles rotate start cursors: first handle starts at 0.
  auto c0 = fab.consumer();
  auto p1 = fab.producer(1);
  for (int i = 0; i < 10; ++i) p1.enqueue(i);
  std::vector<long long> buf(16);
  // Cursor shard 0 is empty, shard 1 holds 10: this drain must steal.
  const std::size_t n = c0.try_dequeue_bulk(buf.begin(), buf.size());
  EXPECT_EQ(n, 10u);
  const auto& t = fab.telemetry();
  EXPECT_EQ(t.steals(), 1u);
  EXPECT_EQ(t.drains(), 1u);
  EXPECT_EQ(t.drained_items(), 10u);
  EXPECT_GE(t.empty_polls(), 1u);  // the cursor miss before the steal
  const auto sweeps_before = t.empty_sweeps();
  long long v = 0;
  EXPECT_FALSE(c0.try_dequeue(v));  // fabric empty: full sweep fails
  EXPECT_GT(t.empty_sweeps(), sweeps_before);
  // The histogram attributes the drain to its batch-size bucket.
  std::uint64_t hist_total = 0;
  t.for_each([&](const char* name, std::uint64_t val) {
    if (std::string(name).rfind("drain_batch_", 0) == 0) hist_total += val;
  });
  EXPECT_EQ(hist_total, 1u);
}

TEST(ShardFabric, ConsumerCursorsRotateAcrossHandles) {
  fab_tel fab(4, 64);
  // Fill only shard 2; the third handle starts there and drains with no
  // steal, proving consumer() spreads start cursors round-robin.
  auto p2 = fab.producer(2);
  for (int i = 0; i < 4; ++i) p2.enqueue(i);
  auto c0 = fab.consumer();
  auto c1 = fab.consumer();
  auto c2 = fab.consumer();
  std::vector<long long> buf(8);
  EXPECT_EQ(c2.try_dequeue_bulk(buf.begin(), buf.size()), 4u);
  EXPECT_EQ(fab.telemetry().steals(), 0u);
}

TEST(ShardFabric, PlacementPlanReusesTopologyLayer) {
  const auto topo = rt::cpu_topology::synthetic(1, 4, 2);
  sh::options opts;
  opts.placement = rt::placement_policy::other_core;
  opts.topology = &topo;
  fab_plain fab(3, 64, opts);
  const auto& plan = fab.placement();
  ASSERT_EQ(plan.groups.size(), 3u);
  EXPECT_EQ(plan.policy, rt::placement_policy::other_core);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_NE(fab.placement_of(s), nullptr);
    EXPECT_FALSE(fab.placement_of(s)->producer_cpus.empty());
    EXPECT_FALSE(fab.placement_of(s)->consumer_cpus.empty());
  }
  EXPECT_EQ(fab.placement_of(3), nullptr);  // out of range: no group
  // The summary names the policy and every shard's groups.
  const auto s = plan.summary();
  EXPECT_NE(s.find("policy=other-core"), std::string::npos);
  EXPECT_NE(s.find("shards=3"), std::string::npos);
  // Direct planning agrees with what the fabric stored.
  const auto direct = sh::plan_shards(topo, rt::placement_policy::other_core, 3);
  ASSERT_EQ(direct.groups.size(), plan.groups.size());
  for (std::size_t g = 0; g < direct.groups.size(); ++g) {
    EXPECT_EQ(direct.groups[g].producer_cpus, plan.groups[g].producer_cpus);
    EXPECT_EQ(direct.groups[g].consumer_cpus, plan.groups[g].consumer_cpus);
  }
}

TEST(ShardFabric, PolicyNoneSkipsPlanning) {
  fab_plain fab(2, 64);  // default options: placement none
  EXPECT_TRUE(fab.placement().empty());
  EXPECT_EQ(fab.placement_of(0), nullptr);
}

TEST(ShardFabric, BlockingDequeueReturnsFalseOnlyWhenClosedAndDrained) {
  fab_plain fab(2, 64);
  auto p0 = fab.producer(0);
  p0.enqueue(7);
  fab.close();
  auto c = fab.consumer();
  long long v = 0;
  ASSERT_TRUE(c.dequeue(v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(c.dequeue(v));
  EXPECT_FALSE(c.try_dequeue(v));
}
