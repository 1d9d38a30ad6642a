// shard_scaling.hpp — the one measurement of bench_shard_scaling, shared
// by its two translation units (bench_shard_scaling.cpp: the fabric rows;
// bench_shard_scaling_mpmc.cpp: the ffq-mpmc control row).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "ffq/harness/endpoints.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/harness/stats.hpp"

namespace shard_scaling {

inline constexpr std::size_t kConsumers = 2;
inline constexpr std::size_t kBatch = 64;
inline constexpr std::size_t kBulkEnqueue = 16;
inline constexpr std::size_t kCapacity = 1 << 16;

/// Producers enqueue `enqueue_batch` items per call (1: scalar enqueue),
/// consumers drain through dequeue_bulk. ffq-mpmc shares one ring (and
/// its DWCAS tail); the fabric gives each producer a shard of capacity /
/// producers cells, and each producer flow-controls against its own
/// shard.
template <typename Queue>
ffq::harness::run_stats measure(int runs, std::size_t producers,
                                std::uint64_t items,
                                std::size_t enqueue_batch = 1) {
  const std::size_t capacity =
      ffq::harness::has_endpoints<Queue>
          ? std::max<std::size_t>(kCapacity / producers, 1024)
          : kCapacity;
  return ffq::harness::sample(runs, [&] {
    return ffq::harness::run_stream<Queue>(producers, kConsumers,
                                           enqueue_batch, kBatch, items,
                                           capacity);
  });
}

/// The ffq-mpmc control row, compiled in a translation unit of its own:
/// code the fabric rows add to bench_shard_scaling.cpp cannot change how
/// the compiler inlines the FFQ^m stream worker.
ffq::harness::run_stats measure_mpmc(int runs, std::size_t producers,
                                     std::uint64_t items);

}  // namespace shard_scaling
