// adapters.hpp — uniform drivers over every queue in the repository.
//
// The comparative benchmark (Fig. 8) must run the same loop over queues
// with different APIs: some need per-thread handles (cc_queue, wf_queue,
// htm_queue), some are bounded with try-semantics (vyukov, htm), FFQ's
// dequeue blocks. An adapter exposes:
//
//   using queue_type = ...;
//   static constexpr const char* name();
//   static queue_type* create(const bench_params&);
//   context make_context(queue_type&, int thread_id);
//   void enqueue(queue_type&, context&, uint64_t)      — blocks if full
//   bool dequeue(queue_type&, context&, uint64_t&)     — blocks if empty*
//
// (*) pairwise benchmarks guarantee the queue is non-empty on average;
// adapters spin-with-yield on transient emptiness, matching how the
// framework of [21] drives queues whose dequeue can return EMPTY.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ffq/baselines/baselines.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/runtime/backoff.hpp"

namespace ffq::harness {

/// Queue-construction knobs shared by all adapters.
struct bench_params {
  std::size_t capacity = 1 << 16;   ///< bounded queues / FFQ ring size
  std::size_t ring_size = 1 << 10;  ///< LCRQ segment ring size
};

namespace detail {
struct no_context {};

/// Spin helper for try-API queues inside pairwise benchmarks.
template <typename F>
void spin_until(F&& f) {
  ffq::runtime::yielding_backoff bo;
  while (!f()) bo.pause();
}
}  // namespace detail

// --- FFQ family ------------------------------------------------------------

/// Any FFQ-family queue over uint64 (spsc/spmc/mpmc, any layout,
/// telemetry or trace policy); named by the queue's kName.
template <typename Queue>
struct ffq_adapter {
  using queue_type = Queue;
  using context = detail::no_context;
  static constexpr const char* name() { return Queue::kName; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    return q.dequeue(out);
  }
};

// --- baselines ---------------------------------------------------------------

template <typename Reclaimer = ffq::baselines::hazard_reclaimer>
struct ms_adapter {
  using queue_type = ffq::baselines::ms_queue<std::uint64_t, Reclaimer>;
  using context = detail::no_context;
  static constexpr const char* name() { return "msqueue"; }
  static queue_type* create(const bench_params&) { return new queue_type(); }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(out); });
    return true;
  }
};

struct cc_adapter {
  using queue_type = ffq::baselines::cc_queue<std::uint64_t>;
  using context = queue_type::handle;
  static constexpr const char* name() { return "ccqueue"; }
  static queue_type* create(const bench_params&) { return new queue_type(); }
  static context make_context(queue_type& q, int) { return context(q); }
  static void enqueue(queue_type& q, context& c, std::uint64_t v) {
    q.enqueue(c, v);
  }
  static bool dequeue(queue_type& q, context& c, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(c, out); });
    return true;
  }
};

struct lcrq_adapter {
  using queue_type = ffq::baselines::lcrq_queue;
  using context = detail::no_context;
  static constexpr const char* name() { return "lcrq"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.ring_size);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(out); });
    return true;
  }
};

struct wf_adapter {
  using queue_type = ffq::baselines::wf_queue;
  using context = queue_type::handle;
  static constexpr const char* name() { return "wfqueue"; }
  static queue_type* create(const bench_params&) { return new queue_type(); }
  static context make_context(queue_type& q, int) { return context(q); }
  static void enqueue(queue_type& q, context& c, std::uint64_t v) {
    q.enqueue(c, v);
  }
  static bool dequeue(queue_type& q, context& c, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(c, out); });
    return true;
  }
};

struct vyukov_adapter {
  using queue_type = ffq::baselines::vyukov_mpmc_queue<std::uint64_t>;
  using context = detail::no_context;
  static constexpr const char* name() { return "vyukov-mpmc"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type&, int) { return {}; }
  static void enqueue(queue_type& q, context&, std::uint64_t v) { q.enqueue(v); }
  static bool dequeue(queue_type& q, context&, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(out); });
    return true;
  }
};

struct htm_adapter {
  using queue_type = ffq::baselines::htm_queue<std::uint64_t>;
  using context = queue_type::handle;
  static constexpr const char* name() { return "htm"; }
  static queue_type* create(const bench_params& p) {
    return new queue_type(p.capacity);
  }
  static context make_context(queue_type& q, int id) {
    return q.make_handle(static_cast<std::uint64_t>(id) + 1);
  }
  static void enqueue(queue_type& q, context& c, std::uint64_t v) {
    detail::spin_until([&] { return q.try_enqueue(c, v); });
  }
  static bool dequeue(queue_type& q, context& c, std::uint64_t& out) {
    detail::spin_until([&] { return q.try_dequeue(c, out); });
    return true;
  }
};

}  // namespace ffq::harness
