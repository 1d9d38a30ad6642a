// placement.hpp — shard → CPU placement for the shard fabric.
//
// The fabric gives each producer its own FFQ^s shard; where that shard's
// producer and the draining consumers run decides whether the fan-in is
// cache-friendly (paper §IV-B: the affinity experiments). Rather than
// invent a new policy language, shard placement *reuses* the runtime
// layer: `runtime::placement_policy` names the strategy and
// `runtime::plan_placement` computes one producer/consumer CPU group per
// shard, exactly as the paper benchmarks place their producer groups.
//
// The plan is advisory and the fabric does not hold it: callers
// (benches, services) plan with plan_shards, then pin their producer and
// consumer threads with `runtime::pin_self_to`. On NUMA machines the
// shard's cell array is first-touched by whichever thread constructs the
// fabric — construct it from a thread already pinned to the producer's
// node (or use one fabric per node) to keep shard storage node-local.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ffq/runtime/affinity.hpp"
#include "ffq/runtime/topology.hpp"

namespace ffq::shard {

/// One CPU group per shard (producer CPUs + consumer CPUs), plus the
/// policy and topology summary it was derived from.
struct placement_plan {
  ffq::runtime::placement_policy policy =
      ffq::runtime::placement_policy::none;
  std::vector<ffq::runtime::group_placement> groups;  ///< one per shard

  bool empty() const noexcept { return groups.empty(); }

  /// Human-readable one-line summary ("policy=sibling_ht shards=4 ...")
  /// for benchmark headers and reports.
  std::string summary() const;
};

/// Compute a placement plan for `shards` producer shards under `policy`
/// on `topo`. `policy == none` yields an empty (advisory-only) plan.
placement_plan plan_shards(const ffq::runtime::cpu_topology& topo,
                           ffq::runtime::placement_policy policy,
                           std::size_t shards);

/// Convenience: discover the topology, then plan (`policy == none` skips
/// discovery).
placement_plan plan_shards(ffq::runtime::placement_policy policy,
                           std::size_t shards);

}  // namespace ffq::shard
