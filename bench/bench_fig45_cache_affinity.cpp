// bench_fig45_cache_affinity — reproduces paper Figs. 4 and 5:
//
// Fig. 4: "IPC, frequency, and L2 cache hit ratio for a single-producer/
// single-consumer configuration" per affinity policy and queue size.
// Fig. 5: "L3 cache hit ratio, L3 cache misses, and memory access
// bandwidth" for the same sweep.
//
// Two data sources (DESIGN.md §5.2):
//  * hardware PMU counters via perf_event_open when the environment
//    permits them (rare in containers) — measured around a real 1p/1c
//    FFQ run pinned per policy;
//  * the coherent cache simulator replaying the queue's access pattern —
//    always available, reproduces the shapes (hit ratios rise with queue
//    size until a level spills, then fall; same-core placements share
//    L1/L2, cross-core only L3).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "ffq/cachesim/queue_trace.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/spmc_bench.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/runtime/perf_counters.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

struct policy_row {
  const char* label;
  bool shared_domain;  // same-HT / sibling-HT share private caches
  runtime::placement_policy policy;
};

const policy_row kPolicies[] = {
    {"same-HT", true, runtime::placement_policy::same_ht},
    {"sibling-HT", true, runtime::placement_policy::sibling_ht},
    {"other-core", false, runtime::placement_policy::other_core},
    {"no-affinity", false, runtime::placement_policy::none},
};

int run(const bench_cli& cli) {

  // --- simulated counters (Figs. 4 panel c + all of Fig. 5) ------------
  table sim({"policy", "entries", "L1-hit", "L2-hit", "L3-hit", "L3-miss",
             "mem-MB", "IPC-proxy", "cyc/pair"});
  const std::uint64_t items = std::max<std::uint64_t>(
      10000, static_cast<std::uint64_t>(400000 * cli.scale));
  for (const auto& p : kPolicies) {
    for (unsigned lg = 8; lg <= 20; lg += 2) {
      cachesim::queue_trace_config cfg;
      cfg.queue_entries = std::size_t{1} << lg;
      cfg.cell_bytes = 64;
      cfg.items = items;
      cfg.shared_domain = p.shared_domain;
      const auto r = cachesim::simulate_queue_trace(cfg);
      sim.add_row({p.label, std::to_string(cfg.queue_entries),
                   fixed(r.l1_hit_ratio, 3), fixed(r.l2_hit_ratio, 3),
                   fixed(r.l3_hit_ratio, 3), std::to_string(r.l3_misses),
                   fixed(static_cast<double>(r.memory_bytes) / 1e6, 1),
                   fixed(r.ipc_proxy, 2), fixed(r.cycles_per_pair, 1)});
    }
  }

  // --- hardware counters, when permitted (Fig. 4 panels a+b) -----------
  const std::vector<runtime::perf_event_kind> events = {
      runtime::perf_event_kind::cycles, runtime::perf_event_kind::instructions,
      runtime::perf_event_kind::cache_references,
      runtime::perf_event_kind::cache_misses};
  runtime::perf_counter_group probe(events);
  if (!probe.available()) {
    std::printf("hardware PMU: unavailable (%s); skipping measured IPC.\n",
                probe.error().c_str());
  } else {
    table hwt({"policy", "entries", "IPC", "LLC-miss-ratio", "roundtrips/s"});
    for (const auto& p : kPolicies) {
      for (unsigned lg = 8; lg <= 16; lg += 4) {
        runtime::perf_counter_group grp(events);
        spmc_bench_config cfg;
        cfg.capacity = std::size_t{1} << lg;
        cfg.items_per_producer = items / 2;
        cfg.policy = p.policy;
        grp.start();
        using q = core::spmc_queue<std::uint64_t, core::layout_aligned>;
        const double rt = run_spmc_bench_once<q, core::layout_aligned>(cfg);
        grp.stop();
        const auto cyc = grp.value(runtime::perf_event_kind::cycles);
        const auto ins = grp.value(runtime::perf_event_kind::instructions);
        const auto refs = grp.value(runtime::perf_event_kind::cache_references);
        const auto miss = grp.value(runtime::perf_event_kind::cache_misses);
        hwt.add_row({p.label, std::to_string(std::size_t{1} << lg),
                     cyc ? fixed(static_cast<double>(ins) / cyc, 2) : "-",
                     refs ? fixed(static_cast<double>(miss) / refs, 3) : "-",
                     human_rate(rt)});
      }
    }
    std::printf("%s\n", hwt.str().c_str());
  }

  return finish_report(cli, sim, "fig45_cache_affinity",
      "\npaper reference: hit ratios rise with queue size, L3 collapses "
      "when the ring exceeds L3 (Fig. 5); same-core placements show the "
      "best private-cache locality; cross-core placements pay coherence "
      "misses (Fig. 4). Core frequency (Fig. 4 middle panel) is hardware-"
      "only and not modelled by the simulator.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv,
      "Figures 4+5 — cache behaviour vs queue size and affinity (1p/1c)",
      "Cache-simulator replay of the FFQ access pattern (always), plus "
      "hardware PMU counters when available.",
      run);
}
