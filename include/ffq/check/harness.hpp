// harness.hpp — run a producer/consumer program over a *real* queue under
// the cooperative scheduler, then judge the run with the oracles.
//
// The queue headers must be compiled with FFQ_CHECK=1 in this TU (the
// `check` preset sets it globally; tests define it before any include) so
// their FFQ_CHECK_YIELD() points are live — otherwise a whole queue
// operation runs as one indivisible block and the exploration is vacuous.
//
// The program shape is fixed and small on purpose: P producers each
// enqueue `items_per_producer` values (scalar or in batches), and C
// consumers drain the queue with try_dequeue / try_dequeue_bulk + yield
// loops. The last producer to finish leaves the queue open and idle until
// every consumer has polled it empty, and only then closes it — so a
// consumer that a try_ call strands on a rank nobody will write is not
// rescued by close(). The idle-producer oracle catches that: once the
// producers are idle, every try_ call must return within kIdleTryBound of
// its own steps, so once every published item is consumed no consumer is
// left inside a try_ call. Blocking dequeues are never used — the
// waitable queue's park path enters a futex on the one OS thread
// everything shares, and the SPMC/MPMC blocking paths commit to a rank
// before observing emptiness; the try_* paths exercise the same cell
// protocol without either hazard.
//
// Values encode their origin (producer * kProducerStride + seq), so a run
// needs no side channel for the oracles: conservation, per-producer FIFO
// per consumer stream, and — for histories of <= 64 ops — Wing–Gong
// linearizability over invocation/response stamps drawn from a monotone
// counter (exact in the cooperative setting: stamps only advance when the
// harness advances).
//
// Endpoint-style queues (ffq::shard::fabric: producer(p)/consumer()
// handles, constructed from (producers, shard_capacity)) run the same
// program through the endpoints of ffq/harness/endpoints.hpp. Fabric
// runs must set check_linearizability = false — a sharded fabric is
// deliberately not linearizable to one FIFO; conservation and
// per-producer FIFO are its contract.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "ffq/check/drivers.hpp"
#include "ffq/check/oracles.hpp"
#include "ffq/check/sched.hpp"
#include "ffq/check/schedule.hpp"
#include "ffq/check/yield.hpp"
#include "ffq/harness/endpoints.hpp"
#include "ffq/runtime/rng.hpp"

namespace ffq::check {

/// Own scheduling steps a try_ call may take once the producers are idle
/// (a call then meets only decided ranks; real calls need a few dozen).
inline constexpr std::uint64_t kIdleTryBound = 10'000;

struct program_config {
  std::size_t capacity = 8;
  int producers = 1;
  int consumers = 2;
  int items_per_producer = 6;
  /// 0 = scalar enqueue; n > 0 = enqueue_bulk in batches of n.
  int enqueue_batch = 0;
  /// 0 = scalar try_dequeue; n > 0 = try_dequeue_bulk of up to n.
  int dequeue_batch = 0;
  /// Abort the run (as a liveness violation) past this many steps.
  std::uint64_t max_steps = 1'000'000;
  bool check_linearizability = true;
};

struct run_result {
  bool ok = true;
  std::string violation;        // empty when ok
  schedule sched;               // every pick, replayable via replay_driver
  std::uint64_t steps = 0;
  std::vector<long long> enqueued;
  std::vector<long long> dequeued_sorted;          // ascending
  std::vector<std::vector<long long>> streams;     // per consumer, in order
};

/// Run one program over a freshly-constructed Queue under `driver`.
/// Driver is anything with `int pick(const std::vector<int>&)`.
template <typename Queue, typename Driver>
run_result run_program(const program_config& cfg, Driver& driver) {
  run_result res;
  auto q = harness::make_queue<Queue>(static_cast<std::size_t>(cfg.producers),
                                      cfg.capacity);
  coop_sched sched;

  std::uint64_t stamp = 0;  // monotone invocation/response counter
  std::vector<lin_op> history;
  res.streams.assign(static_cast<std::size_t>(cfg.consumers), {});
  int producers_left = cfg.producers;
  // Idle-producer bookkeeping, per consumer: inside a try_ call, own
  // steps taken in it while the producers are idle, and whether a call
  // begun after they went idle came back empty.
  const auto consumers = static_cast<std::size_t>(cfg.consumers);
  std::vector<char> in_try(consumers, 0), polled_idle_empty(consumers, 0);
  std::vector<std::uint64_t> idle_steps(consumers, 0);

  for (int p = 0; p < cfg.producers; ++p) {
    sched.spawn([&, p] {
      auto ep = harness::producer_endpoint(q, static_cast<std::size_t>(p));
      std::vector<long long> batch;
      auto flush = [&] {
        if (batch.empty()) return;
        const std::uint64_t inv = stamp++;
        ep.enqueue_bulk(batch.begin(), batch.size());
        const std::uint64_t ret = stamp++;
        for (long long v : batch) {
          history.push_back({p, true, v, inv, ret});
        }
        batch.clear();
      };
      for (int i = 0; i < cfg.items_per_producer; ++i) {
        const long long v = static_cast<long long>(p) * kProducerStride + i;
        res.enqueued.push_back(v);
        if (cfg.enqueue_batch > 0) {
          batch.push_back(v);
          if (static_cast<int>(batch.size()) >= cfg.enqueue_batch) flush();
        } else {
          const std::uint64_t inv = stamp++;
          ep.enqueue(v);
          history.push_back({p, true, v, inv, stamp++});
        }
      }
      flush();
      if (--producers_left > 0) return;
      while (std::find(polled_idle_empty.begin(), polled_idle_empty.end(),
                       0) != polled_idle_empty.end()) {
        coop_sched::yield();  // idle and open until every consumer polled
      }
      q.close();
    });
  }

  for (int c = 0; c < cfg.consumers; ++c) {
    sched.spawn([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      auto& stream = res.streams[ci];
      const int tid = cfg.producers + c;
      auto ep = harness::consumer_endpoint(q);
      using endpoint_t = decltype(ep);
      std::vector<long long> buf(
          cfg.dequeue_batch > 0 ? static_cast<std::size_t>(cfg.dequeue_batch)
                                : std::size_t{1});
      for (;;) {
        const std::uint64_t inv = stamp++;
        const bool idle = producers_left == 0;
        in_try[ci] = 1;
        std::size_t n = 0;
        // Every endpoint with a non-committal bulk claim (SPSC family,
        // SPMC/MPMC try_dequeue_bulk, the fabric's scheduler) takes the
        // bulk path; the rest fall back to the scalar try path.
        constexpr bool kHasTryBulk = requires(endpoint_t& e, long long* it) {
          e.try_dequeue_bulk(it, std::size_t{1});
        };
        if constexpr (kHasTryBulk) {
          if (cfg.dequeue_batch > 0) {
            n = ep.try_dequeue_bulk(buf.begin(), buf.size());
          }
        }
        if (n == 0) {
          long long v = 0;
          n = ep.try_dequeue(v) ? 1 : 0;
          buf[0] = v;
        }
        in_try[ci] = 0;
        idle_steps[ci] = 0;
        if (idle && n == 0) polled_idle_empty[ci] = 1;
        if (n > 0) {
          const std::uint64_t ret = stamp++;
          for (std::size_t i = 0; i < n; ++i) {
            stream.push_back(buf[i]);
            history.push_back({tid, false, buf[i], inv, ret});
          }
          continue;
        }
        if (q.closed()) break;  // closed and this try found nothing: done
        coop_sched::yield();    // empty but open: let someone else run
      }
    });
  }

  while (!sched.all_done()) {
    const std::vector<int> runnable = sched.runnable();
    const int pick = driver.pick(runnable);
    if (pick < 0) {
      res.ok = false;
      res.violation = "schedule: driver stopped before the program finished";
      res.steps = sched.steps();
      return res;
    }
    res.sched.picks.push_back(pick);
    sched.step(pick);
    // Consumer tasks are spawned after the producers.
    const auto c = static_cast<std::size_t>(pick - cfg.producers);
    if (producers_left == 0 && pick >= cfg.producers && in_try[c] &&
        ++idle_steps[c] > kIdleTryBound) {
      res.ok = false;
      res.violation = "idle-producer: consumer " + std::to_string(c) +
                      " is still inside a try_ call after " +
                      std::to_string(kIdleTryBound) +
                      " of its own steps with every producer idle";
      res.steps = sched.steps();
      return res;
    }
    if (sched.steps() > cfg.max_steps) {
      res.ok = false;
      res.violation = "liveness: step bound " + std::to_string(cfg.max_steps) +
                      " exceeded (livelock or starvation)";
      res.steps = sched.steps();
      return res;
    }
  }
  res.steps = sched.steps();

  // Oracles, cheapest first.
  std::vector<long long> got;
  for (const auto& s : res.streams) got.insert(got.end(), s.begin(), s.end());
  res.dequeued_sorted = got;
  std::sort(res.dequeued_sorted.begin(), res.dequeued_sorted.end());

  std::string why;
  if (!check_conservation(res.enqueued, got, &why) ||
      !check_per_producer_fifo(res.streams, &why) ||
      (cfg.check_linearizability && !check_linearizable(history, &why))) {
    res.ok = false;
    res.violation = why;
  }
  return res;
}

struct fuzz_result {
  bool ok = true;
  std::uint64_t runs = 0;
  std::uint64_t failing_seed = 0;  // meaningful only when !ok
  run_result failure;              // first failing run (when !ok)
};

/// Run `schedules` independent programs over Queue, each under a fresh
/// random driver with a seed derived from `seed` via splitmix64 — so any
/// failure is reproducible from (seed, run index) or, better, from the
/// schedule string inside `failure`.
template <typename Queue>
fuzz_result fuzz_queue(const program_config& cfg, std::uint64_t seed,
                       std::uint64_t schedules) {
  fuzz_result out;
  ffq::runtime::splitmix64 seeder(seed);
  for (std::uint64_t i = 0; i < schedules; ++i) {
    const std::uint64_t run_seed = seeder.next();
    random_driver d(run_seed);
    run_result r = run_program<Queue>(cfg, d);
    ++out.runs;
    if (!r.ok) {
      out.ok = false;
      out.failing_seed = run_seed;
      out.failure = std::move(r);
      return out;
    }
  }
  return out;
}

/// Replay a recorded schedule against Queue. Divergence (a pick naming a
/// finished task, or the schedule ending early) is reported as a
/// violation — the program must match the one that produced the trace.
template <typename Queue>
run_result replay_queue(const program_config& cfg, const schedule& s) {
  replay_driver d(s);
  run_result r = run_program<Queue>(cfg, d);
  if (!r.ok && d.diverged()) {
    r.violation = "replay: schedule diverged from the program (pick named a "
                  "task that was not runnable)";
  }
  return r;
}

}  // namespace ffq::check
