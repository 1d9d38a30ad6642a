// bench_shard_scaling — producer-scaling ablation for the shard fabric
// (DESIGN.md §11, not a paper figure).
//
// FFQ^m pays a DWCAS per enqueue and every producer contends on the one
// shared tail (paper §III-B). The shard fabric gives each producer its
// own FFQ^s ring — enqueue is the wait-free Algorithm-1 path, and the
// only cross-producer sharing left is the consumers' shard scheduler.
// This bench sweeps producer count with the consumer side held fixed
// and plots both designs over the *same total cell footprint*
// (shard_capacity = capacity / producers), so the comparison isolates
// the enqueue-side contention model rather than memory budget.
//
// Expectation (the acceptance criterion CHANGES.md tracks): the fabric
// meets or beats ffq-mpmc at 4+ producers. At producers = 1 the fabric
// is a thin wrapper over one FFQ^s, so it bounds the scheduler's
// overhead; the ordered line prices the epoch stamp + k-way merge.
//
// Producers enqueue one item at a time, so every unordered cell carries
// a run of one. The ffq-shard-bulk16 rows feed the same fabric with
// enqueue_bulk bursts of 16, which pack into full runs (DESIGN.md §11).
//
// The ffq-mpmc control row is compiled in its own translation unit
// (bench_shard_scaling_mpmc.cpp), so fabric code added here cannot change
// how the compiler inlines the FFQ^m stream worker.
//
// Output: standard table/CSV plus the JSON report (--json).
// BENCH_shard_scaling.json is one such report, kept as a historical
// record from another machine; nothing compares against it.
#include <cstdio>
#include <string>

#include "ffq/harness/driver.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/shard/shard.hpp"
#include "shard_scaling.hpp"

using namespace ffq;
using namespace ffq::harness;
using namespace shard_scaling;

namespace {

void add_row(table& t, const char* queue, std::size_t producers,
             const run_stats& s) {
  t.add_row({queue, std::to_string(producers), std::to_string(kConsumers),
             fixed(s.mean, 0), fixed(s.stddev, 0),
             oversubscribed(static_cast<int>(producers + kConsumers)) ? "yes"
                                                                      : "no"});
  std::printf("done: %-18s producers=%zu consumers=%zu  %s items/s\n", queue,
              producers, kConsumers, human_rate(s.mean).c_str());
}

int run(const bench_cli& cli) {
  std::uint64_t items = static_cast<std::uint64_t>(1'000'000 * cli.scale);
  if (items < 10000) items = 10000;

  table t({"queue", "producers", "consumers", "items_per_sec", "stddev",
           "oversubscribed"});
  std::string ratios = "\nfabric / ffq-mpmc throughput ratio:\n";
  for (std::size_t producers : {1, 2, 4, 8}) {
    const auto mpmc = measure_mpmc(cli.runs, producers, items);
    add_row(t, "ffq-mpmc", producers, mpmc);
    const auto fabric =
        measure<shard::fabric<std::uint64_t, false>>(cli.runs, producers,
                                                    items);
    add_row(t, "ffq-shard", producers, fabric);
    add_row(t, "ffq-shard-bulk16", producers,
            measure<shard::fabric<std::uint64_t, false>>(
                cli.runs, producers, items, kBulkEnqueue));
    add_row(t, "ffq-shard-ordered", producers,
            measure<shard::fabric<std::uint64_t, true>>(
                cli.runs, producers, items));
    ratios += "  producers=" + std::to_string(producers) + "  " +
              fixed(fabric.mean / mpmc.mean) + "x\n";
  }

  return finish_report(
      cli, t, "shard_scaling",
      ratios +
          "\nexpectation: ffq-shard >= ffq-mpmc at 4+ producers (each "
          "enqueue is the wait-free Algorithm-1 path on a private ring "
          "instead of a contended DWCAS); ffq-shard-bulk16 beats "
          "ffq-shard (bursts of 16 pack into runs of five items per "
          "cell); ffq-shard-ordered trails unordered by the epoch "
          "fetch-add plus the k-way merge's per-item shard probe.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "shard_scaling — fabric vs FFQ^m at producer scale",
      "Producers→2-consumer fan-in; ffq-mpmc shares one DWCAS tail while "
      "the fabric gives each producer a private FFQ^s shard over the same "
      "total cell footprint (shard_capacity = capacity / producers).",
      run);
}
