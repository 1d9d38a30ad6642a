// harness.hpp — program<Queue>: a producer/consumer program over a *real*
// queue under the cooperative scheduler, as a run_schedule target (run.hpp)
// whose oracles judge the run.
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
#include <string>
#include <vector>

#include "ffq/check/oracles.hpp"
#include "ffq/check/sched.hpp"
#include "ffq/check/yield.hpp"
#include "ffq/harness/endpoints.hpp"

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
  bool check_linearizability = true;
};

/// One program over a freshly-constructed Queue. Producers are tasks
/// 0..P-1 and consumers P..P+C-1. Not movable: the tasks point into it.
template <typename Queue>
class program {
 public:
  explicit program(const program_config& cfg)
      : cfg_(cfg),
        q_(harness::make_queue<Queue>(static_cast<std::size_t>(cfg.producers),
                                      cfg.capacity)),
        producers_left_(cfg.producers),
        in_try_(consumers(), 0),
        polled_idle_empty_(consumers(), 0),
        idle_steps_(consumers(), 0) {
    streams.assign(consumers(), {});
    for (int p = 0; p < cfg.producers; ++p) {
      sched_.spawn([this, p] { produce(p); });
    }
    for (int c = 0; c < cfg.consumers; ++c) {
      sched_.spawn([this, c] { consume(c); });
    }
  }

  program(const program&) = delete;
  program& operator=(const program&) = delete;

  std::vector<int> runnable() const { return sched_.runnable(); }

  /// Step task t, then the idle-producer oracle.
  std::string step(int t) {
    sched_.step(t);
    if (producers_left_ > 0 || t < cfg_.producers) return {};
    const auto c = static_cast<std::size_t>(t - cfg_.producers);
    if (!in_try_[c] || ++idle_steps_[c] <= kIdleTryBound) return {};
    return "idle-producer: consumer " + std::to_string(c) +
           " is still inside a try_ call after " +
           std::to_string(kIdleTryBound) +
           " of its own steps with every producer idle";
  }

  /// Conservation, per-producer FIFO, then Wing–Gong: cheapest first.
  std::string finish() const {
    std::vector<long long> got;
    for (const auto& s : streams) got.insert(got.end(), s.begin(), s.end());
    std::string why;
    const bool ok =
        check_conservation(enqueued, got, &why) &&
        check_per_producer_fifo(streams, &why) &&
        (!cfg_.check_linearizability || check_linearizable(history_, &why));
    return ok ? std::string() : why;
  }

  std::vector<long long> enqueued;               ///< in enqueue order
  std::vector<std::vector<long long>> streams;   ///< per consumer, in order

 private:
  std::size_t consumers() const {
    return static_cast<std::size_t>(cfg_.consumers);
  }

  void produce(int p) {
    auto ep = harness::producer_endpoint(q_, static_cast<std::size_t>(p));
    std::vector<long long> batch;
    auto flush = [&] {
      if (batch.empty()) return;
      const std::uint64_t inv = stamp_++;
      ep.enqueue_bulk(batch.begin(), batch.size());
      const std::uint64_t ret = stamp_++;
      for (long long v : batch) history_.push_back({p, true, v, inv, ret});
      batch.clear();
    };
    for (int i = 0; i < cfg_.items_per_producer; ++i) {
      const long long v = static_cast<long long>(p) * kProducerStride + i;
      enqueued.push_back(v);
      if (cfg_.enqueue_batch > 0) {
        batch.push_back(v);
        if (static_cast<int>(batch.size()) >= cfg_.enqueue_batch) flush();
      } else {
        const std::uint64_t inv = stamp_++;
        ep.enqueue(v);
        history_.push_back({p, true, v, inv, stamp_++});
      }
    }
    flush();
    if (--producers_left_ > 0) return;
    while (std::find(polled_idle_empty_.begin(), polled_idle_empty_.end(),
                     0) != polled_idle_empty_.end()) {
      coop_sched::yield();  // idle and open until every consumer polled
    }
    q_.close();
  }

  void consume(int c) {
    const auto ci = static_cast<std::size_t>(c);
    auto& stream = streams[ci];
    const int tid = cfg_.producers + c;
    auto ep = harness::consumer_endpoint(q_);
    using endpoint_t = decltype(ep);
    std::vector<long long> buf(
        cfg_.dequeue_batch > 0 ? static_cast<std::size_t>(cfg_.dequeue_batch)
                               : std::size_t{1});
    for (;;) {
      const std::uint64_t inv = stamp_++;
      const bool idle = producers_left_ == 0;
      in_try_[ci] = 1;
      std::size_t n = 0;
      // Every endpoint with a non-committal bulk claim (SPSC family,
      // SPMC/MPMC try_dequeue_bulk, the fabric's scheduler) takes the
      // bulk path; the rest fall back to the scalar try path.
      constexpr bool kHasTryBulk = requires(endpoint_t& e, long long* it) {
        e.try_dequeue_bulk(it, std::size_t{1});
      };
      if constexpr (kHasTryBulk) {
        if (cfg_.dequeue_batch > 0) {
          n = ep.try_dequeue_bulk(buf.begin(), buf.size());
        }
      }
      if (n == 0) {
        long long v = 0;
        n = ep.try_dequeue(v) ? 1 : 0;
        buf[0] = v;
      }
      in_try_[ci] = 0;
      idle_steps_[ci] = 0;
      if (idle && n == 0) polled_idle_empty_[ci] = 1;
      if (n > 0) {
        const std::uint64_t ret = stamp_++;
        for (std::size_t i = 0; i < n; ++i) {
          stream.push_back(buf[i]);
          history_.push_back({tid, false, buf[i], inv, ret});
        }
        continue;
      }
      if (q_.closed()) break;  // closed and this try found nothing: done
      coop_sched::yield();     // empty but open: let someone else run
    }
  }

  const program_config cfg_;
  Queue q_;
  std::uint64_t stamp_ = 0;  ///< monotone invocation/response counter
  std::vector<lin_op> history_;
  int producers_left_;
  // Idle-producer bookkeeping, per consumer: inside a try_ call, whether
  // a call begun after the producers went idle came back empty, and own
  // steps taken in the current call while they are idle.
  std::vector<char> in_try_, polled_idle_empty_;
  std::vector<std::uint64_t> idle_steps_;
  coop_sched sched_;  ///< last: its tasks go before what they point into
};

}  // namespace ffq::check
