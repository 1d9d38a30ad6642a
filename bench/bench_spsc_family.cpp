// bench_spsc_family — extra ablation (not a paper figure): head-to-head
// of the §II related-work SPSC queues against FFQ's SPSC variant.
//
// Workload: one producer streams 64-bit values to one consumer through a
// bounded ring; throughput = items transferred per second. This isolates
// the control-variable traffic differences the related-work section
// discusses (shared counters vs batched counters vs in-band signalling
// vs FFQ's rank/gap protocol).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "ffq/baselines/baselines.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/harness/stats.hpp"

using namespace ffq;
using namespace ffq::harness;

namespace {

constexpr std::size_t kCap = 1 << 12;

/// One row: a fresh Queue(kCap, args...) per run, on the heap.
template <typename Queue, typename... Args>
void bench(table& t, const char* name, const bench_cli& cli, Args... args) {
  const std::uint64_t items = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(2'000'000 * cli.scale), 10000);
  const auto s = sample(cli.runs, [&] {
    const auto q = std::make_unique<Queue>(kCap, args...);
    return run_try_stream(*q, items);
  });
  t.add_row({name, human_rate(s.mean) + "items/s", human_rate(s.stddev)});
  std::printf("done: %s\n", name);
}

int run(const bench_cli& cli) {
  using value = std::uint64_t;
  table t({"queue", "throughput", "stddev"});
  bench<baselines::lamport_queue<value>>(t, "lamport", cli);
  bench<baselines::fastforward_queue<value>>(t, "fastforward", cli);
  bench<baselines::mcring_queue<value>>(t, "mcringbuffer", cli, 64);
  bench<baselines::bqueue<value>>(t, "b-queue", cli, 64);
  bench<baselines::batchqueue<value>>(t, "batchqueue", cli);
  bench<core::spsc_queue<value, core::layout_aligned>>(t, "ffq-spsc", cli);
  bench<core::spsc_queue<value, core::layout_compact>>(t, "ffq-spsc-compact",
                                                       cli);
  return finish_report(cli, t, "spsc_family");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv, "SPSC family ablation (extra; relates to paper §II)",
      "1 producer -> 1 consumer streaming through a 4096-entry ring.",
      run);
}
