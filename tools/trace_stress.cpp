// trace_stress — short MPMC stress run with tracing force-enabled,
// exporting an "ffq.trace.v1" file for trace_check / Perfetto.
//
// Policies are pinned to `enabled` explicitly (not default_policy) so
// this binary produces a full trace in every build configuration — the
// CI trace leg runs it and then validates the export with trace_check
// --expect-drained, closing the loop: real queues, real threads, real
// file, offline FIFO/no-loss/no-dup verdict.
//
// Usage: trace_stress [--trace=FILE] [--producers=N] [--consumers=N]
//                     [--items=N] [--capacity=N]
// Producers and consumers are 1..64, items at least one per producer,
// and the capacity a power of two >= 2; anything else exits 2 before a
// thread starts.

#include <climits>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ffq/core/mpmc.hpp"
#include "ffq/harness/parse.hpp"
#include "ffq/telemetry/snapshot.hpp"
#include "ffq/trace/trace.hpp"

namespace {

using queue_type =
    ffq::core::mpmc_queue<std::uint64_t, ffq::core::layout_aligned,
                          ffq::telemetry::enabled, ffq::trace::enabled>;

int usage() {
  std::fprintf(stderr,
               "usage: trace_stress [--trace=FILE] [--producers=1..64] "
               "[--consumers=1..64] [--items=N>=producers] "
               "[--capacity=power of two >= 2]\n");
  return 2;
}

/// `arg` is `name=<count in [1, max]>`; `out` gets the count, or 0 when
/// the value is malformed or out of range.
bool parse_flag(const std::string& arg, const char* name, long max,
                long& out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const auto v = ffq::harness::parse_count(
      std::string_view(arg).substr(prefix.size()),
      static_cast<std::uint64_t>(max));
  out = v ? static_cast<long>(*v) : 0;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path = "trace.json";
  long producers = 2, consumers = 2, items = 8000, capacity = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (!parse_flag(arg, "--producers", 64, producers) &&
               !parse_flag(arg, "--consumers", 64, consumers) &&
               !parse_flag(arg, "--items", LONG_MAX / 4, items) &&
               !parse_flag(arg, "--capacity", 1L << 30, capacity)) {
      return usage();
    }
  }
  if (producers < 1 || consumers < 1 || items < producers || capacity < 2 ||
      (capacity & (capacity - 1)) != 0) {
    return usage();
  }

  // Size the rings so the whole run fits with headroom: a dropped record
  // would (correctly) downgrade trace_check's no-loss assertion.
  std::size_t ring_cap = 2;
  const auto want = static_cast<std::size_t>(items) * 4;
  while (ring_cap < want) ring_cap <<= 1;
  ffq::trace::registry::instance().set_ring_capacity(ring_cap);
  ffq::trace::set_thread_name("main");

  queue_type q(static_cast<std::size_t>(capacity));

  std::vector<std::thread> threads;
  for (long p = 0; p < producers; ++p) {
    threads.emplace_back([&q, p, producers, items] {
      ffq::trace::set_thread_name("producer-" + std::to_string(p));
      for (long i = 0; i < items / producers; ++i) {
        q.enqueue(static_cast<std::uint64_t>(p) << 32 |
                  static_cast<std::uint64_t>(i));
      }
    });
  }
  std::vector<std::uint64_t> consumed(static_cast<std::size_t>(consumers), 0);
  std::vector<std::thread> eaters;
  for (long c = 0; c < consumers; ++c) {
    eaters.emplace_back([&q, &consumed, c] {
      ffq::trace::set_thread_name("consumer-" + std::to_string(c));
      std::uint64_t v = 0;
      while (q.dequeue(v)) ++consumed[static_cast<std::size_t>(c)];
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : eaters) t.join();

  std::uint64_t total = 0;
  for (const auto n : consumed) total += n;
  std::printf("trace_stress: %lld produced, %llu consumed\n",
              static_cast<long long>((items / producers) * producers),
              static_cast<unsigned long long>(total));

  // Fold the queue's counter block into a metrics snapshot so the export
  // carries counter tracks alongside the event timeline.
  ffq::telemetry::metrics_snapshot metrics;
  q.telemetry().for_each([&](const char* name, std::uint64_t value) {
    metrics.counters[std::string("queue.") + queue_type::kName + "/" + name] =
        value;
  });

  ffq::trace::export_options opts;
  opts.metrics = &metrics;
  if (!ffq::trace::write_chrome_trace(trace_path, opts)) {
    std::fprintf(stderr, "trace_stress: cannot write %s\n",
                 trace_path.c_str());
    return 1;
  }
  std::printf("trace_stress: wrote %s\n", trace_path.c_str());
  return 0;
}
