// bench_fig2_false_sharing — reproduces paper Fig. 2:
//
// "Impact of alignment and randomization on throughput with the MPMC
// variant of FFQ for a single producer and consumer, one producer with 8
// consumers, and 8 producers with 8 consumers per producer. Throughput
// is normalized to the non-aligned variant."
//
// All runs use the MPMC variant of FFQ (as in the paper); the 8-producer
// configuration uses 8 distinct queues with 8 consumers each.
//
// Paper shapes to look for:
//  * 1p/1c: neither alignment nor randomization helps (compact wins
//    slightly on cache footprint);
//  * 1p/8c: alignment helps, randomization helps, the combination wins;
//  * 8p/8c: alignment helps, randomization becomes counter-productive.
#include <cstdio>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/spmc_bench.hpp"
#include "ffq/harness/stats.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

struct config_row {
  const char* label;
  std::size_t groups;
  std::size_t consumers;
  std::uint64_t items;
};

template <typename Layout>
double measure(const config_row& c, int runs, double scale) {
  spmc_bench_config cfg;
  cfg.groups = c.groups;
  cfg.consumers_per_group = c.consumers;
  cfg.capacity = 1 << 12;
  cfg.items_per_producer =
      static_cast<std::uint64_t>(static_cast<double>(c.items) * scale);
  if (cfg.items_per_producer < 1000) cfg.items_per_producer = 1000;
  const auto stats =
      run_spmc_bench<core::mpmc_queue<std::uint64_t, Layout>, Layout>(cfg, runs);
  return stats.mean;
}

int run(const bench_cli& cli) {
  // Items tuned per configuration so each cell takes seconds, not
  // minutes, on a small machine; relative results are what matter.
  const config_row rows[] = {
      {"1p/1c", 1, 1, 400000},
      {"1p/8c", 1, 8, 60000},
      {"8p/8c-each", 8, 8, 8000},
  };

  table t({"config", "not-aligned", "aligned", "randomized", "both",
           "(roundtrips/s @ not-aligned)"});
  for (const auto& r : rows) {
    const double base =
        measure<core::layout_compact>(r, cli.runs, cli.scale);
    const double aligned =
        measure<core::layout_aligned>(r, cli.runs, cli.scale);
    const double rnd =
        measure<core::layout_randomized>(r, cli.runs, cli.scale);
    const double both =
        measure<core::layout_aligned_randomized>(r, cli.runs, cli.scale);
    t.add_row({r.label, fixed(1.0), fixed(aligned / base),
               fixed(rnd / base), fixed(both / base), human_rate(base)});
    std::printf("done: %s\n", r.label);
  }
  return finish_report(
      cli, t, "fig2_false_sharing",
      "\npaper reference (Skylake): 1p/1c ~1.0/0.95/0.9/0.9; 1p/8c "
      "alignment and randomization each help, 'both' best; 8p/8c "
      "aligned best, randomization counter-productive.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "Figure 2 — false sharing: alignment x randomization",
      "FFQ^m microbenchmark (submission SPMC interface, MPMC variant); "
      "throughput normalized to the not-aligned layout of each config.",
      run);
}
