// bench_telemetry_overhead — measures the telemetry policy's cost model
// (DESIGN.md §8):
//
//   * OFF is free by construction: `queue_counters<disabled>` is an
//     empty class held through [[no_unique_address]] with no-op inline
//     members, so a disabled-policy queue is byte-identical to the
//     pre-telemetry layout (static_asserts in tests/test_telemetry.cpp)
//     and its hot path compiles to the same code. The disabled rows
//     below ARE the baseline.
//   * ON has a budget of 5% on the pairwise workload: every counter
//     lives on a miss/contention path (gap, skip, retry, stall), never
//     on the uncontended enqueue/dequeue fast path, and bumps are
//     relaxed fetch-adds on queue-local lines.
//
// The budget verdict is printed, not turned into the exit code: a
// timing ratio on a shared machine measures the machine as much as the
// change. Like every bench, the exit code is 1 only when a run delivers
// wrong items or a report cannot be written.
//
// Both policies are instantiated in this one binary — the comparison
// needs no rebuild and is independent of the FFQ_TELEMETRY build mode.
// Think time is disabled (0 ns) so queue-operation cost is the entire
// measurement: the overhead reported here is the worst case, real
// workloads dilute it with actual work.
#include <cstdio>
#include <string>
#include <vector>

#include "ffq/harness/pairwise.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/telemetry/telemetry.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

template <template <typename, typename, typename, typename> class Queue,
          typename Telemetry>
using adapter = ffq_adapter<
    Queue<std::uint64_t, core::layout_aligned, Telemetry, trace::default_policy>>;

struct family_result {
  std::string family;
  double off_ns_med = 0.0;  ///< median ns/op, disabled policy
  double on_ns_med = 0.0;   ///< median ns/op, enabled policy
  double off_ns_min = 0.0, off_ns_max = 0.0;  ///< min/max spread
  double on_ns_min = 0.0, on_ns_max = 0.0;
  double overhead_pct = 0.0;  ///< from the medians

  /// The ON median landing inside the OFF policy's own min/max spread
  /// means the measured difference is indistinguishable from run-to-run
  /// noise of a single binary.
  bool within_noise() const {
    return on_ns_med >= off_ns_min && on_ns_med <= off_ns_max;
  }
};

template <template <typename, typename, typename, typename> class Queue>
family_result measure(const char* family, int threads, const bench_cli& cli) {
  using OffAdapter = adapter<Queue, telemetry::disabled>;
  using OnAdapter = adapter<Queue, telemetry::enabled>;
  pairwise_config cfg;
  cfg.threads = threads;
  cfg.total_pairs = static_cast<std::uint64_t>(2'000'000 * cli.scale);
  if (cfg.total_pairs < 20000) cfg.total_pairs = 20000;
  cfg.think_min_ns = 0;  // no think time: measure pure queue-op cost
  cfg.think_max_ns = 0;
  cfg.params.capacity = 1 << 16;

  // Interleave OFF/ON runs so slow drift (thermal, noisy neighbours)
  // hits both policies equally, and compare median-of-N (N >= 5): the
  // earlier best-of-N comparison routinely reported *negative* overhead,
  // because the minimum is an extreme-value statistic — whichever policy
  // got lucky with the least-perturbed run "won" regardless of its true
  // cost. The median is robust against both tails, and the min/max
  // spread is reported alongside so residual scheduler noise (this
  // repo's CI containers are 1-2 shared cores) is visible in the table
  // instead of silently baked into a single point estimate.
  std::vector<double> off_ops, on_ops;
  const int reps = std::max(cli.runs, 5);
  for (int r = 0; r < reps; ++r) {
    pairwise_config c = cfg;
    c.seed = cfg.seed + static_cast<std::uint64_t>(r) * 977;
    off_ops.push_back(run_pairwise_once<OffAdapter>(c));
    on_ops.push_back(run_pairwise_once<OnAdapter>(c));
  }

  const auto off = summarize(off_ops);
  const auto on = summarize(on_ops);
  family_result res;
  res.family = family;
  res.off_ns_med = 1e9 / off.median;
  res.on_ns_med = 1e9 / on.median;
  res.off_ns_min = 1e9 / off.max;  // max ops/s == min ns/op
  res.off_ns_max = 1e9 / off.min;
  res.on_ns_min = 1e9 / on.max;
  res.on_ns_max = 1e9 / on.min;
  res.overhead_pct = (res.on_ns_med / res.off_ns_med - 1.0) * 100.0;
  std::printf("done: %s (%d thread%s)\n", family, threads,
              threads == 1 ? "" : "s");
  return res;
}

int run(const bench_cli& cli) {
  const family_result results[] = {
      measure<core::spsc_queue>("ffq-spsc", 1, cli),
      measure<core::spmc_queue>("ffq-spmc", 1, cli),
      measure<core::mpmc_queue>("ffq-mpmc", 2, cli),
  };

  table t({"queue", "disabled ns/op", "disabled min-max",
           "enabled ns/op", "enabled min-max", "overhead %",
           "within noise"});
  bool all_within_budget = true;
  for (const auto& r : results) {
    t.add_row({r.family, fixed(r.off_ns_med, 2),
               fixed(r.off_ns_min, 2) + "-" + fixed(r.off_ns_max, 2),
               fixed(r.on_ns_med, 2),
               fixed(r.on_ns_min, 2) + "-" + fixed(r.on_ns_max, 2),
               fixed(r.overhead_pct, 2), r.within_noise() ? "yes" : "no"});
    // The budget: the median overhead stays under 5%, or the difference
    // is within the disabled policy's own run-to-run spread (a noisy box
    // can push any point estimate past a few %).
    if (r.overhead_pct >= 5.0 && !r.within_noise()) {
      all_within_budget = false;
    }
  }
  // The enabled-policy runs fed the registry through the pairwise
  // harness; the report embeds the snapshot, demonstrating the
  // full pipeline.
  return finish_report(
      cli, t, "telemetry_overhead",
      std::string("\nbudget: enabled-policy median overhead must stay "
                  "< 5% (or within the disabled policy's spread) -> ") +
          (all_within_budget ? "PASS" : "FAIL") + "\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "Telemetry overhead — enabled vs disabled counter policy",
      "Pairwise enqueue/dequeue loop with zero think time; both policies "
      "in one binary. disabled == pre-telemetry baseline by construction.",
      run);
}
