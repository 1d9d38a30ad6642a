// endpoints.hpp — one producer/consumer interface over plain queues and
// the shard fabric, so a program that drives producers and consumers is
// written once for both.
//
// Fabric-like queues (ffq::shard::fabric) expose per-role endpoints —
// producer(p) / consumer() — instead of direct enqueue/dequeue, and are
// constructed from (producers, shard_capacity). Plain queues are wrapped
// in a forwarding queue_ref. The stream loops (run.hpp) and the checking
// harness (check/harness.hpp) both drive queues through these helpers.
#pragma once

#include <cstddef>
#include <utility>

namespace ffq::harness {

template <typename Queue>
concept has_endpoints = requires(Queue& q) {
  q.producer(std::size_t{0});
  q.consumer();
};

/// Forwarding endpoint for plain queues.
template <typename Queue>
struct queue_ref {
  Queue* q;
  template <typename V>
  void enqueue(V&& v) noexcept {
    q->enqueue(std::forward<V>(v));
  }
  template <typename It>
  void enqueue_bulk(It first, std::size_t n) noexcept {
    q->enqueue_bulk(first, n);
  }
  template <typename V>
  bool dequeue(V& v) noexcept {
    return q->dequeue(v);
  }
  template <typename OutIt>
  std::size_t dequeue_bulk(OutIt out, std::size_t n) noexcept {
    return q->dequeue_bulk(out, n);
  }
  template <typename V>
  bool try_dequeue(V& v) noexcept {
    return q->try_dequeue(v);
  }
  template <typename OutIt>
    requires requires(Queue& qq, OutIt o) { qq.try_dequeue_bulk(o, std::size_t{1}); }
  std::size_t try_dequeue_bulk(OutIt out, std::size_t n) noexcept {
    return q->try_dequeue_bulk(out, n);
  }
};

/// A fabric of `producers` shards of `capacity` cells, or a plain queue
/// of `capacity` cells (guaranteed copy elision constructs it in place).
template <typename Queue>
Queue make_queue(std::size_t producers, std::size_t capacity) {
  if constexpr (has_endpoints<Queue>) {
    return Queue(producers, capacity);
  } else {
    return Queue(capacity);
  }
}

template <typename Queue>
auto producer_endpoint(Queue& q, std::size_t p) {
  if constexpr (has_endpoints<Queue>) {
    return q.producer(p);
  } else {
    return queue_ref<Queue>{&q};
  }
}

template <typename Queue>
auto consumer_endpoint(Queue& q) {
  if constexpr (has_endpoints<Queue>) {
    return q.consumer();
  } else {
    return queue_ref<Queue>{&q};
  }
}

/// The ring producer `p`'s enqueues fill: its own shard of a fabric, the
/// whole queue otherwise.
template <typename Queue>
auto& producer_ring(Queue& q, std::size_t p) {
  if constexpr (has_endpoints<Queue>) {
    return q.shard(p);
  } else {
    return q;
  }
}

}  // namespace ffq::harness
