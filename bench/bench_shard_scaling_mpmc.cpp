// The ffq-mpmc control row of bench_shard_scaling, alone in its
// translation unit (see shard_scaling.hpp).
#include "ffq/core/mpmc.hpp"
#include "shard_scaling.hpp"

namespace shard_scaling {

ffq::harness::run_stats measure_mpmc(int runs, std::size_t producers,
                                     std::uint64_t items) {
  return measure<ffq::core::mpmc_queue<std::uint64_t,
                                       ffq::core::layout_aligned>>(
      runs, producers, items);
}

}  // namespace shard_scaling
