// bench.hpp — shared pieces of the ffqbench program: the command line, the
// TSC clock, exact-cycle latency histograms, windowed end-to-end series,
// the start line that separates set-up from measurement, and the outcome
// record every workload fills. See README.md for the workloads and metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ffq/runtime/timing.hpp"

namespace ffqbench {

using ffq::runtime::rdtsc;
using steady = std::chrono::steady_clock;

/// Parsed command line.
struct config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test-only fault for the self-tests: "" (none), "drop" (one delivered
  /// item is discarded unaccounted) or "stall" (both RPC executors sleep
  /// 1.5 s mid-run while the client keeps sending, so requests pile up at
  /// the admission cap until they time out).
  std::string inject;
};

/// Unmeasured warm-up at the start of every measured phase: requests and
/// items flow exactly as in the measured part, but nothing is recorded.
inline constexpr double kWarmupSeconds = 0.2;
/// The measured part of a phase is split into this many equal windows;
/// every end-to-end figure is the median of its per-window values.
inline constexpr std::size_t kWindows = 20;
/// Set-ups per phase (construction, warm-up, thread start, then cancel);
/// `setup_s` is their median and only the last one runs.
inline constexpr int kSetups = 9;

/// TSC frequency (ffq::runtime's calibration against steady_clock) and
/// conversions.
struct tsc_clock {
  double ghz = 1.0;

  std::uint64_t cycles(double ns) const {
    return static_cast<std::uint64_t>(ns * ghz);
  }
  double ns(double cycles) const { return cycles / ghz; }
  double us(double cycles) const { return cycles / ghz * 1e-3; }
};

/// Latency histogram in TSC cycles: one bucket per cycle below 2^16, then
/// 256 buckets per power of two (0.4% resolution). Fixed size, so add()
/// never allocates; the memory is touched when the histogram is built.
class histogram {
 public:
  histogram() : buckets_(kBuckets, 0) {}

  void add(std::uint64_t cycles) noexcept {
    ++buckets_[bucket(cycles)];
    ++count_;
  }
  /// Adds a signed interval, clamping negatives (cross-core TSC skew on
  /// hand-offs shorter than the skew) to zero.
  void add_signed(std::int64_t cycles) noexcept {
    add(cycles > 0 ? static_cast<std::uint64_t>(cycles) : 0);
  }
  void merge(const histogram& other);
  std::uint64_t count() const noexcept { return count_; }
  /// Smallest recorded value v (cycles) with at least q of the samples <= v.
  double quantile(double q) const;

 private:
  static constexpr unsigned kLinearBits = 16;
  static constexpr unsigned kSubBits = 8;
  static constexpr unsigned kOctaves = 40;
  static constexpr std::size_t kLinear = std::size_t{1} << kLinearBits;
  static constexpr std::size_t kBuckets = kLinear + (kOctaves << kSubBits);

  static std::size_t bucket(std::uint64_t v) noexcept {
    if (v < kLinear) return v;
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned octave = msb - kLinearBits;
    if (octave >= kOctaves) return kBuckets - 1;
    const std::uint64_t sub = (v >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + (std::size_t{octave} << kSubBits) + sub;
  }
  static double value(std::size_t b) noexcept;

  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// The measured part of a phase, cut into kWindows equal windows: an event
/// count and a latency histogram per window. Events stamped outside the
/// measured part are ignored.
class windowed {
 public:
  windowed() : count_(kWindows, 0), latency_(kWindows) {}

  void begin(std::uint64_t from, std::uint64_t to) noexcept {
    from_ = from;
    len_ = (to - from) / kWindows;
  }
  /// Window of TSC stamp `t`, or kWindows when `t` is outside.
  std::size_t index(std::uint64_t t) const noexcept {
    if (t < from_) return kWindows;
    const std::uint64_t w = (t - from_) / len_;
    return w < kWindows ? static_cast<std::size_t>(w) : kWindows;
  }
  void count(std::size_t w, std::uint64_t n) noexcept { count_[w] += n; }
  void latency(std::size_t w, std::uint64_t cycles) noexcept {
    latency_[w].add(cycles);
  }
  void merge(const windowed& other);

  /// Median over windows of events per second.
  double rate_median(const tsc_clock& clk) const;
  /// Median over windows of the q-quantile latency, in microseconds.
  double latency_median_us(double q, const tsc_clock& clk) const;
  /// Events, and latencies, over the whole measured part.
  std::uint64_t total() const;
  histogram latency_all() const;

 private:
  std::uint64_t from_ = 0;
  std::uint64_t len_ = 1;
  std::vector<std::uint64_t> count_;
  std::vector<histogram> latency_;
};

/// Closed-loop latency: the time one worker spends in kBlockCalls
/// consecutive queue calls. One call lasts tens of nanoseconds, a few cache
/// misses, and its quantiles jumped by up to 40% between runs as the host
/// moved the VM's vCPUs; a block averages that out and still moves with the
/// cost of a call.
inline constexpr std::uint32_t kBlockCalls = 64;

class call_blocks {
 public:
  /// Adds one call that ended in measured window `w`.
  void add(windowed& e2e, std::size_t w, std::uint64_t cycles) noexcept {
    sum_ += cycles;
    if (++calls_ == kBlockCalls) {
      e2e.latency(w, sum_);
      sum_ = 0;
      calls_ = 0;
    }
  }

 private:
  std::uint64_t sum_ = 0;
  std::uint32_t calls_ = 0;
};

/// Where set-up ends and measurement begins. Every worker pins itself,
/// touches what it owns, then arrives; the last to arrive stamps the end of
/// set-up and opens the line (or, on a rehearsal, cancels it). Waiting
/// workers poll with sched_yield rather than sleep, so all of them leave
/// the line within about a microsecond of each other (a worker still waking
/// from a futex would start the open-loop schedule with a backlog), while a
/// thread not yet pinned away from a waiter's CPU still gets to run.
class start_line {
 public:
  start_line(int workers, bool rehearsal)
      : left_(workers), rehearsal_(rehearsal) {}

  /// Returns false when this set-up was a rehearsal and the worker must
  /// leave without running.
  bool arrive();
  /// Valid once arrive() returned.
  std::uint64_t start_tsc() const noexcept { return start_tsc_; }
  steady::time_point ready_at() const noexcept { return ready_at_; }

 private:
  enum : int { kWaiting, kGo, kCancel };
  std::atomic<int> left_;
  std::atomic<int> state_{kWaiting};
  bool rehearsal_;
  std::uint64_t start_tsc_ = 0;
  steady::time_point ready_at_{};
};

/// Runs one body per worker, worker i pinned to CPU plan[i] (taken modulo
/// the allowed CPUs). At most as many threads as allowed CPUs exist, the
/// calling thread included: when the plan fills every CPU the last body
/// runs on the calling thread, otherwise the caller only blocks in join.
void run_crew(const std::vector<int>& plan,
              const std::vector<std::function<void()>>& bodies);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Set-up, repeated: kSetups times, `build()` constructs and warms the
/// workload's queues and `bodies(state, line)` starts its workers, which
/// pin themselves and meet at the start line. Every set-up but the last is
/// a rehearsal whose workers leave at the line; the last one runs and its
/// state is left in `last`. Recording memory is allocated by the caller
/// beforehand, so it is not part of set-up. Returns the median set-up time
/// in seconds.
template <typename State, typename Build, typename Bodies>
double setup_and_run(const std::vector<int>& plan, Build&& build,
                     Bodies&& bodies, std::unique_ptr<State>& last) {
  std::vector<double> times;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = steady::now();
    std::unique_ptr<State> state = build();
    start_line line(static_cast<int>(plan.size()), s + 1 < kSetups);
    run_crew(plan, bodies(*state, line));
    times.push_back(
        std::chrono::duration<double>(line.ready_at() - t0).count());
    last = std::move(state);
  }
  return median(times);
}

/// Failures found by a workload's checks.
struct tally {
  std::uint64_t attempted = 0;  ///< requests or items offered
  std::uint64_t refused = 0;    ///< RPC admission refusals
  std::uint64_t lost = 0;       ///< offered, accepted, never delivered
  std::uint64_t disorder = 0;   ///< duplicated or out of per-producer order
  std::uint64_t corrupted = 0;  ///< bad tag, bad payload or bad checksum

  std::uint64_t failed() const {
    return refused + lost + disorder + corrupted;
  }
  tally& operator+=(const tally& o) {
    attempted += o.attempted;
    refused += o.refused;
    lost += o.lost;
    disorder += o.disorder;
    corrupted += o.corrupted;
    return *this;
  }
  /// Refusals are reported, not fatal; anything else fails the run.
  bool correct() const { return lost + disorder + corrupted == 0; }
};

struct metric {
  std::string name;
  double value;
  std::string unit;
};

/// One phase of a workload: its checks, set-up time, the windowed figures
/// behind the end-to-end metrics, and (traced phases only) its per-layer
/// metrics.
struct phase_result {
  tally checks;
  double setup_s = 0;
  double ops_per_s = 0;
  /// Latency quantiles; p50 and p90 are gated, p99 and p99.9 are printed.
  double p50_us = 0, p90_us = 0, p99_us = 0, p999_us = 0;
  std::uint64_t latency_samples = 0;
  std::vector<metric> layer;

  void take_e2e(const windowed& e2e, const tsc_clock& clk) {
    ops_per_s = e2e.rate_median(clk);
    p50_us = e2e.latency_median_us(0.5, clk);
    p90_us = e2e.latency_median_us(0.9, clk);
    p99_us = e2e.latency_median_us(0.99, clk);
    p999_us = e2e.latency_median_us(0.999, clk);
    latency_samples = e2e.latency_all().count();
  }
};

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

/// A seeded table of `n` values uniform in [lo, hi], drawn before the
/// start line; workloads cycle through it.
std::vector<std::uint32_t> seeded_table(std::uint64_t seed, std::size_t n,
                                        std::uint32_t lo, std::uint32_t hi);

/// Spin until the TSC reaches `deadline`; returns the last reading, so a
/// caller can use it as the start stamp of what follows.
inline std::uint64_t spin_until(std::uint64_t deadline) noexcept {
  std::uint64_t now = rdtsc();
  while (now < deadline) now = rdtsc();
  return now;
}

// Workloads (one translation unit each). Each runs one phase: `traced`
// selects the variant that stamps every layer call.
phase_result run_rpc(const config& cfg, const tsc_clock& clk, double rate,
                     bool traced, double seconds);
phase_result run_fanin(const config& cfg, const tsc_clock& clk, bool traced,
                       double seconds);
phase_result run_pairs(const config& cfg, const tsc_clock& clk, bool traced,
                       double seconds);

}  // namespace ffqbench
