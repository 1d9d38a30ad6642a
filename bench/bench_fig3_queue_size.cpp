// bench_fig3_queue_size — reproduces paper Fig. 3:
//
// "Throughput as a function of the queue size (Skylake). In a single-
// producer/single-consumer configuration, when reaching 64k entries, the
// throughput starts to decrease."
//
// The sweep runs the §V-A microbenchmark with one producer and one
// consumer over queue sizes 2^6 .. 2^20 (cache-aligned cells). The
// expected shape: throughput rises as the ring decouples producer from
// consumer, peaks when the working set saturates the last cache level
// that still fits, then decays once it spills.
#include <cstdio>
#include <string>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/spmc_bench.hpp"
#include "ffq/harness/stats.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

int run(const bench_cli& cli) {
  table t({"entries", "roundtrips/s", "stddev", "min", "max"});
  double best = 0.0;
  std::size_t best_entries = 0;
  for (unsigned lg = 6; lg <= 20; lg += 2) {
    const std::size_t entries = std::size_t{1} << lg;
    spmc_bench_config cfg;
    cfg.capacity = entries;
    cfg.items_per_producer =
        static_cast<std::uint64_t>(500000 * cli.scale);
    if (cfg.items_per_producer < 1000) cfg.items_per_producer = 1000;
    using q = core::spmc_queue<std::uint64_t, core::layout_aligned>;
    const auto s = run_spmc_bench<q, core::layout_aligned>(cfg, cli.runs);
    t.add_row({std::to_string(entries), human_rate(s.mean),
               human_rate(s.stddev), human_rate(s.min),
               human_rate(s.max)});
    if (s.mean > best) {
      best = s.mean;
      best_entries = entries;
    }
    std::printf("done: %zu entries\n", entries);
  }
  return finish_report(
      cli, t, "fig3_queue_size",
      "\npeak at " + std::to_string(best_entries) + " entries (" +
          human_rate(best) +
          " roundtrips/s)\npaper reference (Skylake): maximum "
          "throughput at 64k entries, decline beyond as the ring "
          "exceeds cache capacity.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "Figure 3 — throughput vs queue size (1p/1c)",
      "FFQ SPMC microbenchmark, single producer, single consumer, "
      "cache-aligned cells; sweep of the ring size.",
      run);
}
