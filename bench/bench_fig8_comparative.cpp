// bench_fig8_comparative — reproduces paper Fig. 8:
//
// "Throughput of the benchmark from [21] ... all threads repeatedly
// execute pairs of enqueue and dequeue operations on a single queue, for
// a total of 10^7 pairs partitioned evenly among all threads. We hence
// use the MPMC variant of FFQ ... Between two operations, the benchmark
// adds an arbitrary delay (between 50 and 150 ns). ... We also indicate
// in the graphs the performance of the SPSC and SPMC variants of FFQ
// when running with a single thread."
//
// Queues: ffq-mpmc, wfqueue, lcrq, ccqueue, msqueue, htm (+ single-
// thread ffq-spsc / ffq-spmc reference lines).
//
// Default workload is 10^6 pairs (×--scale to reach the paper's 10^7):
// the shape — who wins at which thread count — is what the figure is
// about, and it stabilizes well below 10^7 pairs on one machine.
#include <cstdio>
#include <string>
#include <vector>

#include "ffq/harness/driver.hpp"
#include "ffq/harness/pairwise.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/telemetry/registry.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

template <typename Adapter>
void bench_queue(table& t, const bench_cli& cli,
                 const std::vector<int>& thread_counts) {
  for (int threads : thread_counts) {
    pairwise_config cfg;
    cfg.threads = threads;
    cfg.total_pairs =
        static_cast<std::uint64_t>(1'000'000 * cli.scale);
    if (cfg.total_pairs < 10000) cfg.total_pairs = 10000;
    cfg.params.capacity = 1 << 16;
    const auto s = run_pairwise<Adapter>(cfg, cli.runs);
    t.add_row({Adapter::name(), std::to_string(threads),
               human_rate(s.mean) + "ops/s", human_rate(s.stddev),
               oversubscribed(threads) ? "yes" : "no"});
  }
  std::printf("done: %s\n", Adapter::name());
}

int run(const bench_cli& cli) {
  std::printf("think-time cost: %.0f ns/draw (target mean 100 ns)\n\n",
              measure_think_overhead_ns(50, 150));

  const std::vector<int> threads = {1, 2, 4, 8};

  table t({"queue", "threads", "throughput", "stddev", "oversubscribed"});

  // Single-thread reference lines (paper: "The throughput values
  // indicated for SPSC and SPMC are for single-threaded runs").
  bench_queue<ffq_adapter<core::spsc_queue<std::uint64_t>>>(t, cli, {1});
  bench_queue<ffq_adapter<core::spmc_queue<std::uint64_t>>>(t, cli, {1});

  bench_queue<ffq_adapter<core::mpmc_queue<std::uint64_t>>>(t, cli,
                                                            threads);
  bench_queue<wf_adapter>(t, cli, threads);
  bench_queue<lcrq_adapter>(t, cli, threads);
  bench_queue<cc_adapter>(t, cli, threads);
  bench_queue<ms_adapter<>>(t, cli, threads);
  bench_queue<htm_adapter>(t, cli, threads);

  // The pairwise harness folds every FFQ queue's event counters into
  // the registry as the queue dies; the report embeds them. In a
  // default (FFQ_TELEMETRY=OFF) build the snapshot is empty.
  const auto snap = telemetry::registry::instance().snapshot();
  if (!snap.counters.empty()) {
    std::printf("\nqueue event counters (telemetry):\n");
    for (const auto& [key, value] : snap.counters) {
      std::printf("  %-48s %llu\n", key.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  return finish_report(
      cli, t, "fig8_comparative",
      "\npaper reference (Skylake/Haswell/P8): FFQ^m consistently "
      "among the fastest at every thread count; SPSC > SPMC > MPMC "
      "single-thread (SPMC ~50% over MPMC); ccqueue best "
      "sequentially but drops with threads; wfqueue strongest FAA "
      "competitor; msqueue worst; HTM fine at 1 thread, collapsing "
      "under concurrency.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv,
      "Figure 8 — comparative study (benchmark of Yang & Mellor-Crummey)",
      "Pairs of enqueue/dequeue split across threads, 50-150 ns think "
      "time; MPMC variant of every queue.",
      run);
}
