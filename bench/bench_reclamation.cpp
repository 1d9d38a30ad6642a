// bench_reclamation — ablation (not a paper figure): hazard pointers vs
// epoch-based reclamation under the Michael-Scott queue.
//
// The paper's §II survey contrasts queue algorithms but holds the memory
// management constant; this ablation shows how much of a node-based
// queue's cost is the reclamation protocol itself (per-traversal seq_cst
// hazard publication vs per-operation epoch pin/unpin). FFQ itself needs
// neither — its array cells are recycled in place — which is part of its
// performance story.
#include <cstdio>
#include <string>

#include "ffq/baselines/reclaimers.hpp"
#include "ffq/harness/pairwise.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

/// Enqueue/dequeue pairs with no think time and no pinning.
template <typename Reclaimer>
run_stats measure(int threads, std::uint64_t pairs, int runs) {
  pairwise_config cfg;
  cfg.threads = threads;
  cfg.total_pairs = pairs;
  cfg.think_min_ns = 0;
  cfg.think_max_ns = 0;
  cfg.pin_threads = false;
  return run_pairwise<ms_adapter<Reclaimer>>(cfg, runs);
}

int run(const bench_cli& cli) {
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(std::max(10000.0, 300000 * cli.scale));
  table t({"threads", "hazard (ops/s)", "epoch (ops/s)", "epoch/hazard"});
  for (int threads : {1, 2, 4}) {
    const auto hz =
        measure<baselines::hazard_reclaimer>(threads, pairs, cli.runs);
    const auto ep =
        measure<baselines::epoch_reclaimer>(threads, pairs, cli.runs);
    t.add_row({std::to_string(threads), human_rate(hz.mean),
               human_rate(ep.mean), fixed(ep.mean / hz.mean, 2)});
    std::printf("done: %d thread(s)\n", threads);
  }
  return finish_report(
      cli, t, "reclamation",
      "\nexpectation: epochs win on read-side cost (no per-pointer "
      "seq_cst publication); hazards bound garbage under stalls.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "Reclamation ablation (extra)",
      "MS-queue enqueue/dequeue pairs under hazard pointers vs epochs.",
      run);
}
