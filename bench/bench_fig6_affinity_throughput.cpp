// bench_fig6_affinity_throughput — reproduces paper Fig. 6:
//
// "Throughput for different queue sizes and affinity settings (Skylake).
// When executing on two hardware threads on the same core, the
// performance decreases with increasing queue size. When running on
// different cores, the queue benefits from large queue sizes (that
// decouple producer and consumer) and the additional cycles of the
// cores."
//
// Sweep: affinity policy × queue size × number of producer groups (one
// consumer per producer, as in the paper's §V-E runs).
#include <cstdio>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/spmc_bench.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/runtime/topology.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

int run(const bench_cli& cli) {
  const auto topo = runtime::cpu_topology::discover();
  // The paper runs 1..4 producers on a 4-core machine; scale the
  // sweep to the cores available here (at least 1, at most 4 groups).
  const std::size_t max_groups = std::min<std::size_t>(
      4, std::max<std::size_t>(1, topo.num_cores()));

  const runtime::placement_policy policies[] = {
      runtime::placement_policy::sibling_ht,
      runtime::placement_policy::same_ht,
      runtime::placement_policy::other_core,
      runtime::placement_policy::none};

  table t({"policy", "groups", "entries", "roundtrips/s", "stddev"});
  for (auto policy : policies) {
    for (std::size_t groups = 1; groups <= max_groups; groups *= 2) {
      for (unsigned lg = 6; lg <= 18; lg += 4) {
        spmc_bench_config cfg;
        cfg.groups = groups;
        cfg.consumers_per_group = 1;
        cfg.capacity = std::size_t{1} << lg;
        cfg.policy = policy;
        cfg.items_per_producer = static_cast<std::uint64_t>(
            200000 * cli.scale / static_cast<double>(groups));
        if (cfg.items_per_producer < 1000) cfg.items_per_producer = 1000;
        using q = core::spmc_queue<std::uint64_t, core::layout_aligned>;
        const auto s =
            run_spmc_bench<q, core::layout_aligned>(cfg, cli.runs);
        t.add_row({runtime::to_string(policy), std::to_string(groups),
                   std::to_string(std::size_t{1} << lg),
                   human_rate(s.mean), human_rate(s.stddev)});
      }
      std::printf("done: %s, %zu group(s)\n",
                  runtime::to_string(policy), groups);
    }
  }
  return finish_report(
      cli, t, "fig6_affinity_throughput",
      "\npaper reference: sibling-HT best at small and large queue "
      "sizes; same-HT wins at cache-friendly medium sizes; other-core/"
      "no-affinity benefit from large queues that decouple the "
      "threads. NOTE: on a machine without SMT, sibling-HT degrades "
      "to same-HT (the topology header above shows HT/core).\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "Figure 6 — throughput vs queue size and affinity",
      "FFQ SPMC microbenchmark, one consumer per producer; policies "
      "sibling-HT / same-HT / other-core / no-affinity.",
      run);
}
