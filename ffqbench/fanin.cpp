// fanin.cpp — fanin_bulk: closed-loop fan-in through the unordered shard
// fabric (shard::fabric<uint64_t>, one FFQ^s shard per producer).
//
// Two producers push seeded bursts of 1–32 items through
// producer_handle::enqueue_bulk as fast as the fabric takes them. Two
// consumers drain up to 64 items per consumer_handle::try_dequeue_bulk
// call and back off on their own when a call comes back empty, so empty
// polls are visible here. Every item is (producer << 48 | sequence).
//
// Throughput counts the items the consumers take. Latency is what a
// producer sees: a block of 64 enqueue_bulk calls (see call_blocks). (A
// consumer's claim latency has a second mode, claims that contend with the
// other consumer or wait for a producer, and its p90 sat on that mode's
// shoulder, swinging 20% from run to run; it is reported per layer as
// shard.dequeue_bulk_ns.)
#include <atomic>

#include "bench.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/shard/shard.hpp"

namespace ffqbench {
namespace {

constexpr std::size_t kProducers = 2;
constexpr std::size_t kConsumers = 2;
constexpr std::size_t kShardCells = 4096;
constexpr std::size_t kClaim = 64;
constexpr std::uint32_t kMaxBurst = 32;
constexpr std::size_t kBurstTable = std::size_t{1} << 16;
constexpr unsigned kSeqBits = 48;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
/// Flow control, the paper's standing assumption that a ring never fills:
/// a producer adds a burst only while its shard's depth (tail - head) stays
/// within this limit. Unconsumed items are at most the depth plus the runs
/// the consumers have claimed but not yet resolved, so with the current
/// burst they never occupy every cell. On a full shard, enqueue_bulk skips
/// a whole sweep of cells, some holding its own unpublished items, and then
/// waits on one of those cells while the fabric's consumers, which only
/// claim ranks below the published tail, never free it: the run hangs.
constexpr std::int64_t kShardLimit =
    kShardCells - kConsumers * kClaim - kMaxBurst;
/// CPU plan: producer 0, producer 1, consumer 0, consumer 1. This fills
/// all four CPUs, so consumer 1 runs on the main thread.
const std::vector<int> kPlan = {0, 1, 2, 3};

using fabric_t = ffq::shard::fabric<std::uint64_t>;

/// The fabric of one set-up, every shard cell touched once through the
/// public API before the start line.
struct fabric_state {
  fabric_t fab{kProducers, kShardCells};
  std::atomic<std::size_t> producing{kProducers};

  fabric_state() {
    std::vector<std::uint64_t> items(kShardCells, 0);
    for (std::size_t p = 0; p < kProducers; ++p) {
      fab.producer(p).enqueue_bulk(items.begin(), kShardCells);
    }
    auto c = fab.consumer();
    for (std::size_t left = kProducers * kShardCells; left > 0;) {
      left -= c.try_dequeue_bulk(items.begin(), kClaim);
    }
  }
};

struct alignas(64) producer_rec {
  windowed e2e;  ///< latency of blocks of enqueue_bulk calls
  call_blocks block;
  std::uint64_t produced = 0, sum = 0;
  // Traced, measured part only.
  histogram call;
  std::uint64_t call_cycles = 0, items = 0;
};

struct alignas(64) consumer_rec {
  windowed e2e;  ///< items taken
  std::uint64_t taken[kProducers] = {}, sum = 0;
  tally checks;
  // Traced, measured part only.
  histogram call;  ///< claims that returned items
  std::uint64_t calls = 0, empty = 0;
};

struct fanin_phase {
  fanin_phase(const config& c, const tsc_clock& k, bool t, double s)
      : cfg(c), clk(k), traced(t), seconds(s),
        bursts(seeded_table(c.seed, kBurstTable, 1, kMaxBurst)) {}

  const config& cfg;
  const tsc_clock& clk;
  bool traced;
  double seconds;
  std::vector<std::uint32_t> bursts;
  producer_rec prod[kProducers];
  consumer_rec cons[kConsumers];
};

template <bool Traced>
void producer(fanin_phase& ph, fabric_state& s, std::size_t p,
              start_line& line) {
  if (!line.arrive()) return;
  auto handle = s.fab.producer(p);
  const std::uint64_t from =
      line.start_tsc() + ph.clk.cycles(kWarmupSeconds * 1e9);
  const std::uint64_t to = from + ph.clk.cycles(ph.seconds * 1e9);
  producer_rec& rec = ph.prod[p];
  rec.e2e.begin(from, to);
  std::uint64_t buf[kMaxBurst];
  std::uint64_t seq = 0, sum = 0;
  std::int64_t room = 0;  // items this producer may add before re-checking
  std::size_t k = p * (kBurstTable / kProducers);  // producers start apart
  for (std::uint64_t now = rdtsc(); now < to;) {
    const std::uint32_t n = ph.bursts[k++ % kBurstTable];
    if (room < n && (room = kShardLimit - s.fab.shard(p).approx_size()) < n) {
      // At the limit: wait until the consumers have drained half of it, so
      // the producer does not poll the consumers' head line every burst.
      ffq::runtime::exp_backoff wait;
      while ((room = kShardLimit - s.fab.shard(p).approx_size()) <
             kShardLimit / 2) {
        wait.pause();
      }
      now = rdtsc();
    }
    room -= n;
    for (std::uint32_t i = 0; i < n; ++i) {
      buf[i] = (std::uint64_t{p} << kSeqBits) | (seq + i);
      sum += buf[i];
    }
    const std::uint64_t t0 = rdtsc();
    handle.enqueue_bulk(buf, n);
    now = rdtsc();
    if (const std::size_t w = rec.e2e.index(now); w < kWindows) {
      rec.block.add(rec.e2e, w, now - t0);
      if (Traced) {
        rec.call.add(now - t0);
        rec.call_cycles += now - t0;
        rec.items += n;
      }
    }
    seq += n;
  }
  rec.produced = seq;
  rec.sum = sum;
  // Close this producer's shard now, not only when the last producer
  // finishes: a try_dequeue_bulk whose claim overshot the shard's tail
  // waits for the producer to fill the claimed rank, so without the close
  // both consumers can park on a finished producer's shard while the other
  // producer blocks on its full shard, and the run never ends.
  s.fab.shard(p).close();
  // The last producer to finish closes the fabric (every producer's last
  // enqueue has returned by then, as close() requires).
  if (s.producing.fetch_sub(1, std::memory_order_acq_rel) == 1) s.fab.close();
}

template <bool Traced>
void consumer(fanin_phase& ph, fabric_state& s, std::size_t c,
              start_line& line) {
  if (!line.arrive()) return;
  auto handle = s.fab.consumer();
  const std::uint64_t from =
      line.start_tsc() + ph.clk.cycles(kWarmupSeconds * 1e9);
  consumer_rec& rec = ph.cons[c];
  rec.e2e.begin(from, from + ph.clk.cycles(ph.seconds * 1e9));
  bool drop = ph.cfg.inject == "drop" && c == 0;
  std::uint64_t next[kProducers] = {};  // lowest acceptable next sequence
  std::uint64_t buf[kClaim];
  ffq::runtime::exp_backoff backoff;
  for (;;) {
    const std::uint64_t t0 = Traced ? rdtsc() : 0;
    std::size_t n = handle.try_dequeue_bulk(buf, kClaim);
    const std::uint64_t now = rdtsc();
    const std::size_t w = rec.e2e.index(now);
    if (Traced && w < kWindows) {
      ++rec.calls;
      if (n == 0) ++rec.empty;
    }
    if (n == 0) {
      if (!s.fab.closed()) {
        backoff.pause();
        continue;
      }
      // Closed: everything was published before close(); one more call
      // decides whether anything is left.
      n = handle.try_dequeue_bulk(buf, kClaim);
      if (n == 0) break;
    } else if (Traced && w < kWindows) {
      rec.call.add(now - t0);
    }
    backoff.reset();
    if (w < kWindows) rec.e2e.count(w, n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t x = buf[i];
      if (drop && w < kWindows) {  // test-only: lose one delivered item
        drop = false;
        continue;
      }
      const std::uint64_t p = x >> kSeqBits;
      const std::uint64_t seq = x & kSeqMask;
      if (p >= kProducers) {
        ++rec.checks.corrupted;
        continue;
      }
      if (seq < next[p]) ++rec.checks.disorder;
      next[p] = seq + 1;
      ++rec.taken[p];
      rec.sum += x;
    }
  }
}

template <bool Traced>
std::vector<std::function<void()>> crew(fanin_phase& ph, fabric_state& s,
                                        start_line& line) {
  return {[&] { producer<Traced>(ph, s, 0, line); },
          [&] { producer<Traced>(ph, s, 1, line); },
          [&] { consumer<Traced>(ph, s, 0, line); },
          [&] { consumer<Traced>(ph, s, 1, line); }};
}

/// Per-layer metrics; `e2e` holds every worker's windows, merged.
std::vector<metric> layer_metrics(fanin_phase& ph, const windowed& e2e) {
  const tsc_clock& clk = ph.clk;
  histogram& enq = ph.prod[0].call;
  histogram& deq = ph.cons[0].call;
  double enq_cycles = 0, enq_items = 0, calls = 0, empty = 0;
  double lo = 0, hi = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    if (p > 0) enq.merge(ph.prod[p].call);
    enq_cycles += static_cast<double>(ph.prod[p].call_cycles);
    enq_items += static_cast<double>(ph.prod[p].items);
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    const consumer_rec& r = ph.cons[c];
    if (c > 0) deq.merge(r.call);
    calls += static_cast<double>(r.calls);
    empty += static_cast<double>(r.empty);
    double mine = 0;
    for (const std::uint64_t n : r.taken) mine += static_cast<double>(n);
    lo = c == 0 ? mine : std::min(lo, mine);
    hi = std::max(hi, mine);
  }
  const double items = static_cast<double>(e2e.total());
  return {
      {"shard.enqueue_bulk_ns.p50", clk.ns(enq.quantile(0.5)), "ns"},
      {"shard.enqueue_bulk_ns.p99", clk.ns(enq.quantile(0.99)), "ns"},
      {"shard.enqueue_ns_per_item", clk.ns(enq_cycles) / enq_items, "ns"},
      {"shard.dequeue_bulk_ns.p50", clk.ns(deq.quantile(0.5)), "ns"},
      {"shard.dequeue_bulk_ns.p99", clk.ns(deq.quantile(0.99)), "ns"},
      {"shard.claim_fill_ratio", items / (kClaim * (calls - empty)), "ratio"},
      {"shard.empty_poll_share", empty / calls, "share"},
      {"shard.consumer_skew", hi / lo, "ratio"},
  };
}

}  // namespace

phase_result run_fanin(const config& cfg, const tsc_clock& clk, bool traced,
                       double seconds) {
  auto ph = std::make_unique<fanin_phase>(cfg, clk, traced, seconds);
  std::unique_ptr<fabric_state> last;
  phase_result res;
  res.setup_s = setup_and_run<fabric_state>(
      kPlan, [] { return std::make_unique<fabric_state>(); },
      [&](fabric_state& s, start_line& line) {
        return traced ? crew<true>(*ph, s, line) : crew<false>(*ph, s, line);
      },
      last);

  // Conservation: every produced item was taken exactly once.
  tally& t = res.checks;
  windowed& e2e = ph->cons[0].e2e;
  std::uint64_t produced_sum = 0, taken_sum = 0;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    const consumer_rec& r = ph->cons[c];
    t.corrupted += r.checks.corrupted;
    t.disorder += r.checks.disorder;
    taken_sum += r.sum;
    if (c > 0) e2e.merge(r.e2e);
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    e2e.merge(ph->prod[p].e2e);
    std::uint64_t taken = 0;
    for (const consumer_rec& r : ph->cons) taken += r.taken[p];
    const std::uint64_t produced = ph->prod[p].produced;
    t.attempted += produced;
    produced_sum += ph->prod[p].sum;
    if (taken < produced) t.lost += produced - taken;
    if (taken > produced) t.disorder += taken - produced;
  }
  if (t.lost + t.disorder == 0 && taken_sum != produced_sum) ++t.corrupted;

  res.take_e2e(e2e, clk);
  if (traced) res.layer = layer_metrics(*ph, e2e);
  return res;
}

}  // namespace ffqbench
