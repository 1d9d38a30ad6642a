// pairs.cpp — mpmc_pairs: the enqueue/dequeue-pairs benchmark the paper
// compares queues with (Fig. 8, after [21]), on FFQ^m (core::mpmc_queue,
// Algorithm 2). Three threads each alternate enqueue and dequeue on one
// shared queue, with a seeded 50–150 ns think time before every operation.
// Three threads, so the main thread and the OS keep the fourth CPU.
//
// Call latency needs no extra clock reads: the think-time spin ends on a
// TSC reading, which is the call's start, and the next think time starts
// with one, which is its end. The end-to-end latency is that of a block of
// 64 calls, think time excluded (see call_blocks).
#include "bench.hpp"
#include "ffq/core/mpmc.hpp"

namespace ffqbench {
namespace {

constexpr std::size_t kThreads = 3;
constexpr std::size_t kCells = 16384;
constexpr std::size_t kThinkTable = std::size_t{1} << 16;
constexpr std::uint32_t kThinkMinNs = 50;
constexpr std::uint32_t kThinkMaxNs = 150;
constexpr unsigned kSeqBits = 48;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
/// CPU plan: one CPU per thread. The main thread blocks in join.
const std::vector<int> kPlan = {0, 1, 2};

using queue_t = ffq::core::mpmc_queue<std::uint64_t>;

/// The queue of one set-up, every cell touched once through the public
/// API before the start line.
struct pairs_state {
  queue_t q{kCells};

  pairs_state() {
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < kCells; ++i) q.enqueue(x);
    for (std::size_t i = 0; i < kCells; ++i) q.dequeue(x);
  }
};

struct alignas(64) worker_rec {
  windowed e2e;  ///< calls, and latency of blocks of calls
  call_blocks block;
  std::uint64_t enqueued = 0, enq_sum = 0, dequeued = 0, deq_sum = 0;
  tally checks;
  // Traced, measured part only.
  histogram enq, deq;
  std::uint64_t queue_cycles = 0, think_cycles = 0;
};

struct pairs_phase {
  pairs_phase(const config& c, const tsc_clock& k, bool t, double s)
      : cfg(c), clk(k), traced(t), seconds(s), think(kThinkTable) {
    const std::vector<std::uint32_t> ns =
        seeded_table(c.seed, kThinkTable, kThinkMinNs, kThinkMaxNs);
    for (std::size_t i = 0; i < kThinkTable; ++i) think[i] = clk.cycles(ns[i]);
  }

  const config& cfg;
  const tsc_clock& clk;
  bool traced;
  double seconds;
  std::vector<std::uint64_t> think;  ///< think times in cycles
  worker_rec rec[kThreads];
};

template <bool Traced>
void worker(pairs_phase& ph, pairs_state& s, std::size_t me,
            start_line& line) {
  if (!line.arrive()) return;
  const std::uint64_t from =
      line.start_tsc() + ph.clk.cycles(kWarmupSeconds * 1e9);
  const std::uint64_t to = from + ph.clk.cycles(ph.seconds * 1e9);
  worker_rec& rec = ph.rec[me];
  rec.e2e.begin(from, to);
  bool drop = ph.cfg.inject == "drop" && me == 0;
  std::uint64_t next[kThreads] = {};  // lowest acceptable next sequence
  std::uint64_t seq = 0;
  std::size_t k = me * (kThinkTable / kThreads);  // threads start apart

  // One think-then-call step; returns the call's end stamp.
  auto step = [&](std::uint64_t now, auto&& call, histogram& calls) {
    const std::uint64_t start = spin_until(now + ph.think[k++ % kThinkTable]);
    call();
    const std::uint64_t end = rdtsc();
    const std::size_t w = rec.e2e.index(end);
    if (w < kWindows) {
      rec.e2e.count(w, 1);
      rec.block.add(rec.e2e, w, end - start);
      if (Traced) {
        calls.add(end - start);
        rec.queue_cycles += end - start;
        rec.think_cycles += start - now;
      }
    }
    return end;
  };

  for (std::uint64_t now = rdtsc(); now < to;) {
    now = step(
        now,
        [&] {
          const std::uint64_t x = (std::uint64_t{me} << kSeqBits) | seq++;
          s.q.enqueue(x);
          ++rec.enqueued;
          rec.enq_sum += x;
        },
        rec.enq);
    std::uint64_t x = 0;
    now = step(now, [&] { s.q.dequeue(x); }, rec.deq);
    if (drop && rec.e2e.index(now) < kWindows) {  // test-only: lose it
      drop = false;
      continue;
    }
    ++rec.dequeued;
    rec.deq_sum += x;
    const std::uint64_t p = x >> kSeqBits;
    if (p >= kThreads) {
      ++rec.checks.corrupted;
      continue;
    }
    if ((x & kSeqMask) < next[p]) ++rec.checks.disorder;
    next[p] = (x & kSeqMask) + 1;
  }
}

template <bool Traced>
std::vector<std::function<void()>> crew(pairs_phase& ph, pairs_state& s,
                                        start_line& line) {
  return {[&] { worker<Traced>(ph, s, 0, line); },
          [&] { worker<Traced>(ph, s, 1, line); },
          [&] { worker<Traced>(ph, s, 2, line); }};
}

std::vector<metric> layer_metrics(pairs_phase& ph) {
  const tsc_clock& clk = ph.clk;
  histogram& enq = ph.rec[0].enq;
  histogram& deq = ph.rec[0].deq;
  double queue = 0, think = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    if (i > 0) {
      enq.merge(ph.rec[i].enq);
      deq.merge(ph.rec[i].deq);
    }
    queue += static_cast<double>(ph.rec[i].queue_cycles);
    think += static_cast<double>(ph.rec[i].think_cycles);
  }
  return {
      {"core.mpmc.enqueue_ns.p50", clk.ns(enq.quantile(0.5)), "ns"},
      {"core.mpmc.enqueue_ns.p99", clk.ns(enq.quantile(0.99)), "ns"},
      {"core.mpmc.dequeue_ns.p50", clk.ns(deq.quantile(0.5)), "ns"},
      {"core.mpmc.dequeue_ns.p99", clk.ns(deq.quantile(0.99)), "ns"},
      {"core.mpmc.queue_share", queue / (queue + think), "share"},
  };
}

}  // namespace

phase_result run_pairs(const config& cfg, const tsc_clock& clk, bool traced,
                       double seconds) {
  auto ph = std::make_unique<pairs_phase>(cfg, clk, traced, seconds);
  std::unique_ptr<pairs_state> last;
  phase_result res;
  res.setup_s = setup_and_run<pairs_state>(
      kPlan, [] { return std::make_unique<pairs_state>(); },
      [&](pairs_state& s, start_line& line) {
        return traced ? crew<true>(*ph, s, line) : crew<false>(*ph, s, line);
      },
      last);

  // Conservation: every thread dequeued as often as it enqueued, so the
  // queue must be empty and the item checksums must agree.
  tally& t = res.checks;
  std::uint64_t enqueued = 0, dequeued = 0, enq_sum = 0, deq_sum = 0;
  windowed& e2e = ph->rec[0].e2e;
  for (std::size_t i = 0; i < kThreads; ++i) {
    const worker_rec& r = ph->rec[i];
    enqueued += r.enqueued;
    dequeued += r.dequeued;
    enq_sum += r.enq_sum;
    deq_sum += r.deq_sum;
    t.corrupted += r.checks.corrupted;
    t.disorder += r.checks.disorder;
    if (i > 0) e2e.merge(r.e2e);
  }
  for (std::uint64_t x = 0; last->q.try_dequeue(x);) {
    ++dequeued;
    deq_sum += x;
  }
  t.attempted = enqueued;
  if (dequeued < enqueued) t.lost += enqueued - dequeued;
  if (dequeued > enqueued) t.disorder += dequeued - enqueued;
  if (t.lost + t.disorder == 0 && deq_sum != enq_sum) ++t.corrupted;

  res.take_e2e(e2e, clk);
  if (traced) res.layer = layer_metrics(*ph);
  return res;
}

}  // namespace ffqbench
