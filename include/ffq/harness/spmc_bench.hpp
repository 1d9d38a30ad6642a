// spmc_bench.hpp — the paper's primary micro-benchmark (§V-A):
//
// "We use a micro-benchmark that simulates the SPMC asynchronous system
// call interface. ... Producer threads have a state that consists of a
// SPMC submission queue and an array with SPSC response queues for each
// of the consumers assigned to the producer. Producer threads insert a
// number of 64-bit integers into the submission queue and loop through
// the response queues for dequeuing values. Consumers repeatedly retrieve
// a value from the submission queue and enqueue a 64-bit integer into the
// associated response queue."
//
// Used by the Fig. 2 (false sharing), Fig. 3 (queue size), Fig. 4–5
// (cache behaviour) and Fig. 6 (affinity) experiments. The submission
// queue type is a template parameter so Fig. 2 can run the MPMC variant
// ("All experiments were conducted with the MPMC variant of FFQ") while
// the affinity experiments use the SPMC/SPSC configurations.
//
// Flow control: the producer keeps at most `window` requests in flight —
// the paper's "implicit flow control" that guarantees free cells.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/runtime/affinity.hpp"
#include "ffq/runtime/backoff.hpp"

namespace ffq::harness {

struct spmc_bench_config {
  std::size_t groups = 1;               ///< independent producers
  std::size_t consumers_per_group = 1;
  /// Cells of the submission ring and of each response ring.
  std::size_t capacity = 1 << 16;
  std::uint64_t items_per_producer = 1'000'000;
  /// Batched mode (DESIGN.md §5.8): > 1 makes the producer submit with
  /// enqueue_bulk and consumers drain with dequeue_bulk in runs of this
  /// size (responses are replied in bulk too); 1 keeps the paper's
  /// scalar per-item loop.
  std::size_t batch = 1;
  ffq::runtime::placement_policy policy = ffq::runtime::placement_policy::none;
};

/// One measured run. `SubmissionQueue` must be an FFQ-family queue over
/// uint64 (enqueue / blocking dequeue / close); responses always use the
/// FFQ SPSC queue with the same layout. Returns round-trips per second
/// aggregated over all groups (1 round-trip = 4 queue operations).
template <typename SubmissionQueue, typename Layout>
double run_spmc_bench_once(const spmc_bench_config& cfg) {
  using response_queue = ffq::core::spsc_queue<std::uint64_t, Layout>;

  struct group_state {
    std::unique_ptr<SubmissionQueue> submission;
    std::vector<std::unique_ptr<response_queue>> responses;
  };

  std::vector<group_state> groups(cfg.groups);
  for (auto& g : groups) {
    g.submission = std::make_unique<SubmissionQueue>(cfg.capacity);
    for (std::size_t c = 0; c < cfg.consumers_per_group; ++c) {
      g.responses.push_back(
          std::make_unique<response_queue>(cfg.capacity));
    }
  }

  const auto topo = ffq::runtime::cpu_topology::discover();
  const auto plan = ffq::runtime::plan_placement(topo, cfg.policy, cfg.groups);

  // The in-flight window: small enough that neither the submission ring
  // nor any single response ring can fill (implicit flow control).
  const std::uint64_t inflight_window = static_cast<std::uint64_t>(
      std::max<std::size_t>(
          1, cfg.capacity / 2));

  // Each group runs its consumers, then its producer.
  const std::size_t per_group = cfg.consumers_per_group + 1;
  auto worker = [&](std::size_t w, worker_clock& clock) {
    const std::size_t gi = w / per_group;
    const std::size_t ci = w % per_group;
    auto& g = groups[gi];
    if (ci < cfg.consumers_per_group) {
      if (!plan[gi].consumer_cpus.empty()) {
        ffq::runtime::pin_self_to(plan[gi].consumer_cpus);
      }
      auto& sub = *g.submission;
      auto& resp = *g.responses[ci];
      clock.start();
      if (cfg.batch <= 1) {
        std::uint64_t v;
        while (sub.dequeue(v)) {
          resp.enqueue(v + 1);  // "enqueue a 64-bit integer" as the reply
        }
      } else {
        // Batched mode: one head fetch-and-add claims up to `batch`
        // requests; replies go back with one tail publication.
        std::vector<std::uint64_t> buf(cfg.batch);
        std::size_t n;
        while ((n = sub.dequeue_bulk(buf.data(), cfg.batch)) > 0) {
          for (std::size_t i = 0; i < n; ++i) buf[i] += 1;
          resp.enqueue_bulk(buf.data(), n);
        }
      }
      clock.stop();
      return;
    }
    if (!plan[gi].producer_cpus.empty()) {
      ffq::runtime::pin_self_to(plan[gi].producer_cpus);
    }
    clock.start();
    std::uint64_t submitted = 0, received = 0;
    std::size_t rr = 0;  // round-robin cursor over response queues
    std::uint64_t out;
    std::vector<std::uint64_t> sub_buf(cfg.batch);
    std::vector<std::uint64_t> resp_buf(cfg.batch);
    ffq::runtime::yielding_backoff idle;
    while (received < cfg.items_per_producer) {
      bool progressed = false;
      while (submitted < cfg.items_per_producer &&
             submitted - received < inflight_window) {
        if (cfg.batch <= 1) {
          g.submission->enqueue(submitted + 1);
          ++submitted;
        } else {
          const std::uint64_t chunk = std::min<std::uint64_t>(
              {static_cast<std::uint64_t>(cfg.batch),
               cfg.items_per_producer - submitted,
               inflight_window - (submitted - received)});
          for (std::uint64_t i = 0; i < chunk; ++i) {
            sub_buf[static_cast<std::size_t>(i)] = submitted + 1 + i;
          }
          g.submission->enqueue_bulk(sub_buf.data(),
                                     static_cast<std::size_t>(chunk));
          submitted += chunk;
        }
        progressed = true;
      }
      // "loop through the response queues for dequeuing values"
      for (std::size_t i = 0; i < g.responses.size(); ++i) {
        if (cfg.batch <= 1) {
          while (g.responses[rr]->try_dequeue(out)) {
            ++received;
            progressed = true;
          }
        } else {
          std::size_t n;
          while ((n = g.responses[rr]->try_dequeue_bulk(resp_buf.data(),
                                                        cfg.batch)) > 0) {
            received += n;
            progressed = true;
          }
        }
        rr = (rr + 1) % g.responses.size();
      }
      if (progressed) {
        idle.reset();
      } else {
        idle.pause();
      }
    }
    g.submission->close();  // consumers drain out
    clock.stop();
  };
  const double secs = run_workers(cfg.groups * per_group, worker);

  const double roundtrips =
      static_cast<double>(cfg.items_per_producer) *
      static_cast<double>(cfg.groups);
  return roundtrips / secs;
}

template <typename SubmissionQueue, typename Layout>
run_stats run_spmc_bench(const spmc_bench_config& cfg, int runs) {
  return sample(
      runs, [&] { return run_spmc_bench_once<SubmissionQueue, Layout>(cfg); });
}

}  // namespace ffq::harness
