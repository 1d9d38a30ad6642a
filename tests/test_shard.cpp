// Tests for ffq::shard — the sharded SPMC fabric (DESIGN.md §11): the
// zero-cost claim (disabled telemetry/trace leave the fabric layout
// byte-identical, asserted against mirror structs), conservation and
// per-producer FIFO under real threads in both modes, the ordered mode's
// closed-drain total order, the scheduler's telemetry counters (steals,
// drains, empty polls/sweeps), placement-plan reuse of the runtime
// topology layer, the unordered fabric's packed runs, claimed cells read
// across calls and leftovers (cell counts, order, gaps over claimed
// cells, item lifetimes), and move-only handles that hand held items back
// when destroyed.
#include "ffq/shard/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ffq/shard/placement.hpp"
#include "ffq/telemetry/counters.hpp"
#include "ffq/trace/policy.hpp"
#include "tail_snapshot.hpp"

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

struct alignas(rt::kCacheLineSize) fabric_mirror {
  std::size_t shard_capacity;
  std::vector<std::unique_ptr<fab_plain::shard_type>> shards;
  std::atomic<std::uint64_t> next_consumer;
  std::atomic<bool> closed;
  std::atomic<std::size_t> handed_back;
  std::mutex handed_back_mu;
  std::list<long long> handed_back_items;
};

struct alignas(rt::kCacheLineSize) fabric_ordered_mirror {
  std::size_t shard_capacity;
  std::vector<std::unique_ptr<fab_plain_ord::shard_type>> shards;
  std::atomic<std::uint64_t> next_consumer;
  std::atomic<bool> closed;
  std::atomic<std::size_t> handed_back;
  std::mutex handed_back_mu;
  std::list<long long> handed_back_items;
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
  fab.close();
  EXPECT_TRUE(fab.closed());
}

// Sizes that would divide by zero in the consumer cursor or trip only
// the ring's assert are refused up front.
TEST(ShardFabric, ConstructorRejectsBadSizes) {
  EXPECT_THROW(fab_plain(0, 64), std::invalid_argument);
  EXPECT_THROW(fab_plain(2, 48), std::invalid_argument);
  EXPECT_THROW(fab_plain(2, 1), std::invalid_argument);
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

// The scheduler's quota-capped visit is the shard's try_dequeue_bulk, so
// the tail snapshot's refresh rules hold through a consumer handle.
TEST(ShardFabric, TailSnapshotRefreshRulesThroughTheScheduler) {
  fab_plain fab(1, 256);
  auto p = fab.producer(0);
  auto c = fab.consumer();
  ffq_test::expect_tail_snapshot_rules<long long>(
      [&](long long v) { p.enqueue(v); },
      [&](long long* out, std::size_t n) { return c.try_dequeue_bulk(out, n); },
      [&](long long& v) { return c.try_dequeue(v); });
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

// A caller that pins a fabric's threads plans its shards with
// plan_shards, which reuses the runtime topology layer.
TEST(ShardFabric, PlacementPlanReusesTopologyLayer) {
  const auto topo = rt::cpu_topology::synthetic(1, 4, 2);
  const auto plan = sh::plan_shards(topo, rt::placement_policy::other_core, 3);
  ASSERT_EQ(plan.groups.size(), 3u);
  EXPECT_EQ(plan.policy, rt::placement_policy::other_core);
  for (const auto& group : plan.groups) {
    EXPECT_FALSE(group.producer_cpus.empty());
    EXPECT_FALSE(group.consumer_cpus.empty());
  }
  // The summary names the policy and every shard's groups.
  const auto s = plan.summary();
  EXPECT_NE(s.find("policy=other-core"), std::string::npos);
  EXPECT_NE(s.find("shards=3"), std::string::npos);
  // The runtime layer's plan is the shard plan, one group per shard.
  const auto direct =
      rt::plan_placement(topo, rt::placement_policy::other_core, 3);
  ASSERT_EQ(direct.size(), plan.groups.size());
  for (std::size_t g = 0; g < direct.size(); ++g) {
    EXPECT_EQ(direct[g].producer_cpus, plan.groups[g].producer_cpus);
    EXPECT_EQ(direct[g].consumer_cpus, plan.groups[g].consumer_cpus);
  }
}

TEST(ShardFabric, PolicyNoneSkipsPlanning) {
  const auto topo = rt::cpu_topology::synthetic(1, 4, 2);
  EXPECT_TRUE(sh::plan_shards(topo, rt::placement_policy::none, 2).empty());
  // Without a topology, policy none skips discovery as well.
  EXPECT_TRUE(sh::plan_shards(rt::placement_policy::none, 2).empty());
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

// --- packed runs, claimed cells, the leftover and the hand-back -------------

static_assert(!std::is_copy_constructible_v<fab_plain::consumer_handle>);
static_assert(!std::is_copy_assignable_v<fab_plain::consumer_handle>);
static_assert(!std::is_move_assignable_v<fab_plain::consumer_handle>);
static_assert(!std::is_copy_constructible_v<fab_plain_ord::consumer_handle>);
static_assert(!std::is_copy_assignable_v<fab_plain_ord::consumer_handle>);
static_assert(std::is_nothrow_move_constructible_v<fab_plain::consumer_handle>);
static_assert(fab_plain::kRunWidth == 5, "five 8-byte items per run");
static_assert(fab_plain_ord::kRunWidth == 1, "ordered cells hold one item");

namespace {

constexpr std::size_t kK = fab_plain::kRunWidth;

/// Enqueue items first, first + 1, ... first + n - 1 of producer p with
/// one enqueue_bulk call.
template <typename Fabric>
void enqueue_burst(Fabric& fab, std::size_t p, long long first,
                   std::size_t n) {
  std::vector<long long> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = first + static_cast<long long>(i);
  }
  fab.producer(p).enqueue_bulk(items.begin(), n);
}

/// Drain with try_dequeue_bulk(max_n) until a call returns 0.
template <typename Handle>
std::vector<long long> drain_all(Handle& c, std::size_t max_n) {
  std::vector<long long> got, buf(max_n);
  while (const std::size_t n = c.try_dequeue_bulk(buf.begin(), max_n)) {
    EXPECT_LE(n, max_n);
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return got;
}

std::vector<long long> iota_items(long long first, std::size_t n) {
  std::vector<long long> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = first + static_cast<long long>(i);
  return v;
}

}  // namespace

// A burst of n items takes ceil(n / K) cells, and every drain size returns
// each item exactly once, in order.
TEST(ShardRuns, BurstTakesCeilNOverKCellsAndDrainsInOrder) {
  for (const std::size_t n : {std::size_t{1}, kK - 1, kK, kK + 1, 3 * kK + 2}) {
    for (const std::size_t max_n : {std::size_t{1}, std::size_t{2}, kK,
                                    std::size_t{64}}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " max_n=" + std::to_string(max_n));
      fab_plain fab(1, 64);
      enqueue_burst(fab, 0, 100, n);
      EXPECT_EQ(fab.approx_size(),
                static_cast<std::int64_t>((n + kK - 1) / kK));
      auto c = fab.consumer();
      EXPECT_EQ(drain_all(c, max_n), iota_items(100, n));
      EXPECT_EQ(fab.approx_size(), 0);
    }
  }
}

// A call whose buffer is smaller than the run returns max_n items and
// keeps the rest as its leftover; the next call returns the leftover
// before any newer item, and claims nothing while it does.
TEST(ShardRuns, HeldItemsComeBeforeNewerItems) {
  fab_plain fab(1, 64);
  enqueue_burst(fab, 0, 0, kK);
  auto c = fab.consumer();
  std::vector<long long> buf(64);
  ASSERT_EQ(c.try_dequeue_bulk(buf.begin(), 2), 2u);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[1], 1);
  EXPECT_EQ(fab.approx_size(), 0);  // the whole run was claimed
  enqueue_burst(fab, 0, 100, 3);
  ASSERT_EQ(c.try_dequeue_bulk(buf.begin(), 64), kK - 2);
  for (std::size_t i = 0; i < kK - 2; ++i) {
    EXPECT_EQ(buf[i], static_cast<long long>(i + 2));
  }
  EXPECT_EQ(fab.approx_size(), 1);  // the leftover call claimed nothing
  ASSERT_EQ(c.try_dequeue_bulk(buf.begin(), 64), 3u);
  EXPECT_EQ(buf[0], 100);
  long long v = 0;
  EXPECT_FALSE(c.try_dequeue(v));
}

// kDrainQuota counts cells: a visit claims up to that many runs.
TEST(ShardRuns, DrainQuotaCountsCells) {
  constexpr std::size_t kQuota = fab_plain::kDrainQuota;
  const std::size_t items = (kQuota + 1) * kK;
  fab_plain fab(1, 4 * kQuota);
  enqueue_burst(fab, 0, 0, items);
  auto c = fab.consumer();
  std::vector<long long> buf(items);
  EXPECT_EQ(c.try_dequeue_bulk(buf.begin(), items), kQuota * kK);
  EXPECT_EQ(buf[kQuota * kK - 1], static_cast<long long>(kQuota * kK - 1));
  EXPECT_EQ(fab.approx_size(), 1);
  EXPECT_EQ(c.try_dequeue_bulk(buf.begin(), items), kK);
  EXPECT_EQ(buf[kK - 1], static_cast<long long>(items - 1));
}

// On a closed fabric a handle returns what it holds (here a leftover),
// then 0.
TEST(ShardRuns, ClosedFabricReturnsTheHoldThenZero) {
  fab_plain fab(2, 64);
  enqueue_burst(fab, 0, 0, kK);
  fab.close();
  auto c = fab.consumer();
  long long v = -1;
  ASSERT_TRUE(c.dequeue(v));
  EXPECT_EQ(v, 0);
  std::vector<long long> buf(64);
  ASSERT_EQ(c.dequeue_bulk(buf.begin(), buf.size()), kK - 1);
  EXPECT_EQ(buf[kK - 2], static_cast<long long>(kK - 1));
  EXPECT_EQ(c.dequeue_bulk(buf.begin(), buf.size()), 0u);
  EXPECT_FALSE(c.try_dequeue(v));
}

namespace {

/// The wrap scenario on one 8-cell shard: handle `a` claims ranks 0-3
/// (four runs of K) and reads only part of rank 0; handle `b` drains ranks
/// 4-7 (runs of one); then one producer call wraps onto cells 0-7 while
/// cells 1-3 still hold a's claimed, unread runs. Returns the items
/// delivered so far: a's, then b's.
template <typename Fabric, typename Handle>
std::vector<long long> wrap_past_claimed_cells(Fabric& fab, Handle& a) {
  enqueue_burst(fab, 0, 0, 4 * kK);
  std::vector<long long> got(kK - 1);
  EXPECT_EQ(a.try_dequeue_bulk(got.begin(), kK - 1), kK - 1);
  EXPECT_EQ(got, iota_items(0, kK - 1));
  EXPECT_EQ(fab.approx_size(), 0);  // a claimed all four cells
  for (int i = 0; i < 4; ++i) fab.producer(0).enqueue(100 + i);
  auto b = fab.consumer();
  const std::vector<long long> got_b = drain_all(b, 64);
  EXPECT_EQ(got_b, iota_items(100, 4));
  got.insert(got.end(), got_b.begin(), got_b.end());
  // Ranks 8-12 in one call: rank 8 takes the freed cell 0, ranks 9-11
  // find cells 1-3 still occupied and become gaps, ranks 12-15 take the
  // freed cells 4-7.
  enqueue_burst(fab, 0, 1000, 5 * kK);
  return got;
}

}  // namespace

// A consumer reads only part of a claimed run of cells while the shard's
// producer wraps past them: the producer announces gaps over the cells
// that still hold claimed items instead of stalling, and the consumer
// still takes every item of its claim, in order, before any newer one.
TEST(ShardRuns, ProducerWrapsPastClaimedCellsAnnouncingGaps) {
  fab_tel fab(1, 8);
  auto a = fab.consumer();
  const auto delivered = wrap_past_claimed_cells(fab, a);
  EXPECT_EQ(fab.shard(0).gaps_created(), 3u);
  EXPECT_EQ(fab.shard(0).telemetry().full_stalls(), 0u);
  EXPECT_EQ(fab.approx_size(), 8);  // ranks 8-15: five runs, three gaps
  std::vector<long long> buf(64);
  // The leftover of rank 0, then ranks 1-3, with no new claim.
  ASSERT_EQ(a.try_dequeue_bulk(buf.begin(), 64), 3 * kK + 1);
  buf.resize(3 * kK + 1);
  EXPECT_EQ(buf, iota_items(kK - 1, 3 * kK + 1));
  EXPECT_EQ(fab.approx_size(), 8);
  // The next claim takes ranks 8-15 and drops the three gaps in place.
  auto rest = drain_all(a, 64);
  EXPECT_EQ(rest, iota_items(1000, 5 * kK));
  EXPECT_EQ(fab.shard(0).consumer_skips(), 3u);
  std::vector<long long> all = delivered;
  all.insert(all.end(), buf.begin(), buf.end());
  all.insert(all.end(), rest.begin(), rest.end());
  EXPECT_EQ(all.size(), 9 * kK + 4);
  // a's stream: 0 .. 4K-1, then 1000 ..; b's 100-103 sit between them
  all.erase(all.begin() + static_cast<std::ptrdiff_t>(kK - 1),
            all.begin() + static_cast<std::ptrdiff_t>(kK + 3));
  expect_per_producer_fifo(all);
}

// A claim whose every cell is a gap must claim again in the same call:
// on a closed fabric a try call that returned 0 there would end a
// consumer's drain while items are still published.
TEST(ShardRuns, ClosedFabricAllGapClaimStillDeliversEveryItem) {
  fab_plain fab(1, 8);
  auto a = fab.consumer();
  std::vector<long long> got = wrap_past_claimed_cells(fab, a);
  fab.close();
  auto c = fab.consumer();
  long long v = -1;
  ASSERT_TRUE(c.try_dequeue(v));  // claims rank 8 alone
  EXPECT_EQ(v, 1000);
  auto d = fab.consumer();
  std::vector<long long> buf(3);
  // Claims ranks 9-11, all gaps, then ranks 12-14.
  ASSERT_EQ(d.try_dequeue_bulk(buf.begin(), 3), 3u);
  EXPECT_EQ(buf, iota_items(1000 + static_cast<long long>(kK), 3));
  got.push_back(v);
  got.insert(got.end(), buf.begin(), buf.end());
  for (auto* h : {&a, &c, &d}) {
    const auto more = drain_all(*h, 2);
    expect_per_producer_fifo(more);
    got.insert(got.end(), more.begin(), more.end());
  }
  std::sort(got.begin(), got.end());
  std::vector<long long> want = iota_items(0, 4 * kK);
  for (long long x : iota_items(100, 4)) want.push_back(x);
  for (long long x : iota_items(1000, 5 * kK)) want.push_back(x);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

// Bulk producers under real threads: runs split across calls of every
// size, and every consumer stream stays per-producer FIFO.
TEST(ShardRuns, BulkProducersConserveAndKeepPerProducerFifo) {
  const int kProducers = 3, kItems = 6000, kConsumers = 2;
  fab_plain fab(kProducers, 256);
  std::vector<std::thread> pts;
  std::atomic<int> left{kProducers};
  for (int p = 0; p < kProducers; ++p) {
    pts.emplace_back([&, p] {
      auto ep = fab.producer(static_cast<std::size_t>(p));
      std::vector<long long> batch;
      for (int i = 0; i < kItems;) {
        const int n = std::min(1 + (i / 7) % 13, kItems - i);
        batch.clear();
        for (int b = 0; b < n; ++b) {
          batch.push_back(static_cast<long long>(p) * kStride + i + b);
        }
        // Keep the shard below its capacity (counted in cells).
        while (fab.shard(static_cast<std::size_t>(p)).approx_size() > 128) {
          std::this_thread::yield();
        }
        ep.enqueue_bulk(batch.begin(), batch.size());
        i += n;
      }
      if (left.fetch_sub(1) == 1) fab.close();
    });
  }
  std::vector<std::vector<long long>> streams(kConsumers);
  std::vector<std::thread> cts;
  for (int c = 0; c < kConsumers; ++c) {
    cts.emplace_back([&, c] {
      auto ep = fab.consumer();
      std::vector<long long> buf(16);
      const std::size_t sizes[] = {1, 3, 16};
      for (std::size_t call = 0;; ++call) {
        const std::size_t n = ep.dequeue_bulk(buf.begin(), sizes[call % 3]);
        if (n == 0) break;
        auto& s = streams[static_cast<std::size_t>(c)];
        s.insert(s.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
      }
    });
  }
  for (auto& t : pts) t.join();
  for (auto& t : cts) t.join();
  expect_conservation(streams, kProducers, kItems);
  for (const auto& s : streams) expect_per_producer_fifo(s);
}

// A moved-from handle holds nothing: moving the handle moves its items,
// so destroying the moved-from handle hands nothing back and each item is
// delivered once.
TEST(ShardHandles, MovedFromHandleHoldsNothing) {
  {
    fab_plain_ord fab(2, 64);
    fab.producer(0).enqueue(1);
    fab.producer(1).enqueue(2);
    std::optional<fab_plain_ord::consumer_handle> a(fab.consumer());
    long long v = 0;
    ASSERT_TRUE(a->try_dequeue(v));  // the merge holds the other item
    EXPECT_EQ(v, 1);
    auto b = std::move(*a);
    a.reset();
    fab.close();
    auto c = fab.consumer();
    EXPECT_FALSE(c.dequeue(v));
    ASSERT_TRUE(b.dequeue(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(b.dequeue(v));
  }
  {
    // Three cells claimed: the first read in part (its leftover), the
    // other two not read at all. The move takes both.
    fab_plain fab(1, 64);
    enqueue_burst(fab, 0, 0, 3 * kK);
    std::optional<fab_plain::consumer_handle> a(fab.consumer());
    std::vector<long long> buf(3);
    ASSERT_EQ(a->try_dequeue_bulk(buf.begin(), 3), 3u);
    EXPECT_EQ(fab.approx_size(), 0);
    auto b = std::move(*a);
    a.reset();
    fab.close();
    auto c = fab.consumer();
    long long v = -1;
    EXPECT_FALSE(c.dequeue(v));
    EXPECT_EQ(drain_all(b, 64), iota_items(3, 3 * kK - 3));
  }
}

// A destroyed handle hands its held items back to the fabric; the next
// call of any handle returns them.
TEST(ShardHandles, OrderedDestroyedHandleHandsItsItemsBack) {
  fab_plain_ord fab(2, 64);
  fab.producer(0).enqueue(1);
  fab.producer(1).enqueue(2);
  long long v = 0;
  {
    auto a = fab.consumer();
    ASSERT_TRUE(a.try_dequeue(v));
    EXPECT_EQ(v, 1);
  }  // a holds item 2 in its merge slot
  fab.close();
  auto b = fab.consumer();
  ASSERT_TRUE(b.dequeue(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(b.dequeue(v));
}

TEST(ShardHandles, UnorderedDestroyedHandleHandsItsItemsBack) {
  fab_plain fab(2, 64);
  enqueue_burst(fab, 0, 0, 3 * kK);
  enqueue_burst(fab, 1, kStride, 1);
  auto b = fab.consumer();  // starts on shard 0
  {
    auto a = fab.consumer();  // starts on shard 1, then steals shard 0
    long long v = -1;
    ASSERT_TRUE(a.try_dequeue(v));
    EXPECT_EQ(v, kStride);
    std::vector<long long> buf(2);
    ASSERT_EQ(a.try_dequeue_bulk(buf.begin(), 2), 2u);  // claims two cells
    EXPECT_EQ(buf, iota_items(0, 2));
  }  // a holds items 2..K-1 (leftover) and K..2K-1 (a claimed, unread cell)
  EXPECT_EQ(fab.approx_size(), 1);  // the third cell was never claimed
  fab.close();
  // Handed-back items come first, oldest first, then b's own drain.
  EXPECT_EQ(drain_all(b, 2), iota_items(2, 3 * kK - 2));
}

// Items too wide for two per run (K = 1) take a cell each. A call claims
// at most max_n cells and reads them all, so nothing stays in a handle:
// destroyed handles hand nothing back.
TEST(ShardRuns, WideItemsTakeOneCellEachAndNeverStayInAHandle) {
  struct wide {
    long long v[6] = {};
  };
  using fab_wide = sh::fabric<wide, false, ffq::core::layout_aligned,
                              tel::disabled, trc::disabled>;
  static_assert(fab_wide::kRunWidth == 1);
  fab_wide fab(1, 8);
  std::vector<wide> items(5);
  for (int i = 0; i < 5; ++i) items[i].v[0] = i;
  fab.producer(0).enqueue_bulk(items.begin(), items.size());
  EXPECT_EQ(fab.approx_size(), 5);
  wide out[4];
  {
    auto a = fab.consumer();
    ASSERT_EQ(a.try_dequeue_bulk(out, 1), 1u);  // claims one cell
    EXPECT_EQ(out[0].v[0], 0);
    auto b = fab.consumer();
    ASSERT_EQ(b.try_dequeue_bulk(out, 2), 2u);  // claims two, reads both
    EXPECT_EQ(out[1].v[0], 2);
    EXPECT_EQ(fab.approx_size(), 2);
  }
  auto c = fab.consumer();
  ASSERT_EQ(c.try_dequeue_bulk(out, 4), 2u);  // cells 3 and 4
  EXPECT_EQ(out[0].v[0], 3);
  EXPECT_EQ(out[1].v[0], 4);
  EXPECT_EQ(c.try_dequeue_bulk(out, 4), 0u);
}

// Lifetime: items left in cells, in claimed but unread cells, in a
// leftover, or handed back are destroyed exactly once, and T needs no
// default constructor. Each item owns heap
// memory, so a leak or a double destroy also shows under ASan.
namespace {

struct counted {
  static inline int live = 0;
  std::unique_ptr<int> value;

  explicit counted(int v) : value(std::make_unique<int>(v)) { ++live; }
  counted(counted&& other) noexcept : value(std::move(other.value)) { ++live; }
  counted& operator=(counted&&) noexcept = default;
  ~counted() { --live; }
};

using fab_counted = sh::fabric<counted, false, ffq::core::layout_aligned,
                               tel::disabled, trc::disabled>;
static_assert(!std::is_default_constructible_v<counted>);

void enqueue_counted(fab_counted& fab, int first, int n) {
  std::vector<counted> items;
  for (int i = 0; i < n; ++i) items.emplace_back(first + i);
  fab.producer(0).enqueue_bulk(std::make_move_iterator(items.begin()),
                               items.size());
}

}  // namespace

TEST(ShardRuns, ItemsAreDestroyedExactlyOnce) {
  counted::live = 0;
  {
    fab_counted fab(1, 64);
    enqueue_counted(fab, 0, static_cast<int>(3 * kK + 2));
    fab.producer(0).enqueue(counted(99));
    EXPECT_EQ(counted::live, static_cast<int>(3 * kK + 3));
    std::vector<counted> got;
    {
      auto c = fab.consumer();
      ASSERT_EQ(c.try_dequeue_bulk(std::back_inserter(got), 1), 1u);
      EXPECT_EQ(*got[0].value, 0);
    }  // the handle's leftover (K - 1 items) is handed back
    {
      auto c = fab.consumer();
      ASSERT_EQ(c.try_dequeue_bulk(std::back_inserter(got), 2), 2u);
      EXPECT_EQ(*got[1].value, 1);  // handed-back items come first
      EXPECT_EQ(*got[2].value, 2);
    }
    {
      auto c = fab.consumer();
      ASSERT_EQ(c.try_dequeue_bulk(std::back_inserter(got), kK - 3), kK - 3);
      // The hand-back list is empty: claim two cells, read two items.
      ASSERT_EQ(c.try_dequeue_bulk(std::back_inserter(got), 2), 2u);
      EXPECT_EQ(*got.back().value, static_cast<int>(kK + 1));
    }  // hands back K - 2 leftover items and the unread cell's K items
    EXPECT_EQ(got.size(), kK + 2);
    // Left: 2K - 2 handed back, K + 2 in two cells and the run of one.
    EXPECT_EQ(counted::live, static_cast<int>(3 * kK + 3));
    got.clear();
    EXPECT_EQ(counted::live, static_cast<int>(2 * kK + 1));
  }
  EXPECT_EQ(counted::live, 0);
}
