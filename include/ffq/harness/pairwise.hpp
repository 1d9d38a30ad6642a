// pairwise.hpp — the comparative benchmark of Yang & Mellor-Crummey [21],
// as used in the paper's §V-G / Fig. 8.
//
// "All threads repeatedly execute pairs of enqueue and dequeue operations
// on a single queue, for a total of 10^7 pairs partitioned evenly among
// all threads. ... Between two operations, the benchmark adds an
// arbitrary delay (between 50 and 150 ns) to avoid scenarios where a
// cache line is held by one thread for a long time."
//
// Throughput is reported in operations/s (one op = one enqueue or one
// dequeue, i.e. 2 × pairs / elapsed), matching [21]'s metric. The
// threads enqueue the values 1..pairs between them, and every run
// checks that the dequeues returned each exactly once (run_failure).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ffq/harness/adapters.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/runtime/affinity.hpp"
#include "ffq/runtime/rng.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/telemetry/registry.hpp"

namespace ffq::harness {

namespace detail {

template <typename Q>
concept has_telemetry = requires(const Q& q) { q.telemetry(); };

/// Fold a queue's event counters into the process-wide registry under
/// "queue.<adapter name>". The queue object dies at the end of each run,
/// so this is called right before destruction; queues without telemetry
/// (baselines, disabled policy) contribute nothing.
template <typename Q>
void export_queue_telemetry(const Q& q) {
  if constexpr (has_telemetry<Q>) {
    ffq::telemetry::registry::instance().accumulate_queue(
        std::string("queue.") + Q::kName, q.telemetry());
  }
}

}  // namespace detail

struct pairwise_config {
  int threads = 1;
  std::uint64_t total_pairs = 10'000'000;
  std::uint64_t think_min_ns = 50;   ///< 0 disables think time
  std::uint64_t think_max_ns = 150;
  bench_params params{};
  bool pin_threads = true;  ///< one thread per hardware thread, round-robin
  std::uint64_t seed = 0x5eed;
};

/// One measured run. Returns operations per second; throws run_failure
/// when the dequeued values are not the enqueued ones.
template <typename Adapter>
double run_pairwise_once(const pairwise_config& cfg) {
  using queue_t = typename Adapter::queue_type;
  std::unique_ptr<queue_t> q(Adapter::create(cfg.params));

  const std::uint64_t pairs_per_thread =
      cfg.total_pairs / static_cast<std::uint64_t>(cfg.threads);
  const auto topo = ffq::runtime::cpu_topology::discover();
  const double ghz = ffq::runtime::tsc_ghz();
  const std::uint64_t think_span = cfg.think_max_ns >= cfg.think_min_ns
                                       ? cfg.think_max_ns - cfg.think_min_ns + 1
                                       : 1;
  detail::delivery delivered;

  const double secs = run_workers(
      static_cast<std::size_t>(cfg.threads),
      [&](std::size_t t, worker_clock& clock) {
        if (cfg.pin_threads && !topo.cpus().empty()) {
          const auto& cpus = topo.cpus();
          ffq::runtime::pin_self_to(cpus[t % cpus.size()].os_id);
        }
        auto ctx = Adapter::make_context(*q, static_cast<int>(t));
        ffq::runtime::xoshiro256ss rng(cfg.seed + t);
        auto think = [&] {
          if (cfg.think_min_ns == 0) return;
          const double ns = static_cast<double>(cfg.think_min_ns +
                                                rng.bounded(think_span));
          ffq::runtime::spin_ns_tsc(ffq::runtime::rdtsc() +
                                    static_cast<std::uint64_t>(ns * ghz));
        };
        const std::uint64_t first = t * pairs_per_thread + 1;
        std::uint64_t out = 0, sum = 0;
        clock.start();
        for (std::uint64_t i = 0; i < pairs_per_thread; ++i) {
          Adapter::enqueue(*q, ctx, first + i);
          think();
          Adapter::dequeue(*q, ctx, out);
          sum += out;
          think();
        }
        clock.stop();
        delivered.add(pairs_per_thread, sum);
      });
  detail::export_queue_telemetry(*q);  // queue dies with this scope
  delivered.check(pairs_per_thread * static_cast<std::uint64_t>(cfg.threads));

  const double ops = 2.0 * static_cast<double>(pairs_per_thread) *
                     static_cast<double>(cfg.threads);
  return ops / secs;
}

/// Repeat `runs` times, each with its own think-time seed, and summarize
/// (ops/s samples).
template <typename Adapter>
run_stats run_pairwise(const pairwise_config& cfg, int runs) {
  pairwise_config c = cfg;
  return sample(runs, [&] {
    const double ops = run_pairwise_once<Adapter>(c);
    c.seed += 977;
    return ops;
  });
}

}  // namespace ffq::harness
