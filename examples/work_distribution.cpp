// work_distribution — SPMC fan-out with heterogeneous task costs: the
// scenario FFQ's lock-free dequeue is designed for ("it does not matter
// which of the consumer threads actually executes the system call"; a
// slow consumer must not block the others).
//
//   build/examples/work_distribution [workers] [tasks]
//
// Workers are 1..64 and tasks >= 1; anything else is a usage error
// (exit 2). With no worker the producer would wait on a full ring.
//
// The producer publishes tasks whose cost varies by three orders of
// magnitude. With a FIFO handoff queue, a slow task would head-of-line
// block a naive design; with FFQ, the producer skips the cell a slow
// consumer still occupies (announcing a gap) and the other workers keep
// streaming. The demo prints the per-worker task counts and the gap/skip
// statistics that show the mechanism firing.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/parse.hpp"
#include "ffq/runtime/rng.hpp"
#include "ffq/runtime/timing.hpp"

namespace {

struct task {
  std::uint64_t id = 0;
  std::uint64_t cost_ns = 0;  ///< simulated work
};

}  // namespace

int main(int argc, char** argv) {
  const auto worker_arg = ffq::harness::parse_arg(argc, argv, 1, 4, 1, 64);
  const auto task_arg =
      ffq::harness::parse_arg(argc, argv, 2, 50000, 1, UINT64_MAX);
  if (argc > 3 || !worker_arg || !task_arg) {
    std::fprintf(stderr,
                 "usage: work_distribution [workers 1..64] [tasks >= 1]\n");
    return 2;
  }
  const int workers = static_cast<int>(*worker_arg);
  const std::uint64_t tasks = *task_arg;

  // Small ring on purpose: with long-running tasks in flight the
  // producer regularly wraps onto busy cells and exercises the gap
  // protocol (watch the statistics below). The explicit enabled
  // telemetry policy keeps the gap statistics live in any build mode.
  ffq::core::spmc_queue<task, ffq::core::layout_aligned,
                        ffq::telemetry::enabled>
      q(64);

  std::vector<std::thread> pool;
  std::vector<std::uint64_t> done(workers, 0);
  std::atomic<std::uint64_t> total_work_ns{0};
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      task t;
      std::uint64_t local_ns = 0;
      while (q.dequeue(t)) {
        ffq::runtime::spin_ns(static_cast<double>(t.cost_ns));
        ++done[w];
        local_ns += t.cost_ns;
      }
      total_work_ns.fetch_add(local_ns);
    });
  }

  ffq::runtime::xoshiro256ss rng(7);
  ffq::runtime::stopwatch sw;
  for (std::uint64_t i = 0; i < tasks; ++i) {
    // 1 in 500 tasks is pathological (100 us); the rest are 100-400 ns.
    const std::uint64_t cost =
        rng.bounded(500) == 0 ? 100000 : 100 + rng.bounded(300);
    q.enqueue(task{i, cost});
  }
  q.close();
  for (auto& t : pool) t.join();
  const double secs = sw.seconds();

  std::uint64_t total = 0;
  for (int w = 0; w < workers; ++w) {
    std::printf("worker %d: %llu tasks\n", w,
                static_cast<unsigned long long>(done[w]));
    total += done[w];
  }
  std::printf("\n%llu/%llu tasks in %.3f s (%.1fk tasks/s); simulated work "
              "%.3f s across %d workers\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(tasks), secs,
              static_cast<double>(total) / secs / 1e3,
              static_cast<double>(total_work_ns.load()) * 1e-9, workers);
  std::printf("gap mechanism: producer announced %llu gaps; consumers "
              "skipped %llu dead ranks\n",
              static_cast<unsigned long long>(q.gaps_created()),
              static_cast<unsigned long long>(q.consumer_skips()));
  return 0;
}
