// explore.hpp — schedule exploration over the model machines.
//
// The model substrate (include/ffq/model) can clone and re-enter states,
// which unlocks the driver the real-queue harness cannot have: CHESS-style
// preemption-bounded exhaustive DFS. A schedule's *preemptions* are the
// context switches taken while the previously-running thread could still
// run; continuing the same thread, or switching away from a finished one,
// is free. Most concurrency bugs need very few preemptions (CHESS's
// empirical result), so bound 2 already covers the paper's named races
// while keeping small configurations exhaustively checkable.
//
// Soundness notes:
//  * States are memoized on (world encoding, last-running thread) with
//    the best remaining budget seen; a state is re-explored only with
//    strictly more budget. Spin self-loops (full-ring throttles) hit the
//    memo immediately, so the search terminates without fairness hacks.
//  * The world's monitors (consumed counts, gap accounting) are checked
//    after every step — a safety violation surfaces on the exact edge
//    where it happens, with the DFS path as a replayable witness.
//  * At terminal states (all threads done) the explorer additionally
//    requires every value consumed exactly once and consistent gap
//    accounting.
//  * Liveness: after an exhausted search with no safety violation, every
//    memoized state must reach a terminal state, or a *pruned* state (one
//    with an edge skipped as over budget, which may finish from there).
//    A state that reaches neither is a lost item or a wedged protocol;
//    the witness is the discovery path to the first such state. So a
//    bounded verdict is one-sided: it never reports a false liveness
//    violation, but it may miss one a bigger budget would show.
//  * preemption_bound = kUnbounded prunes no edge, so the memo keys on
//    the world encoding alone: every interleaving, and a full liveness
//    verdict.
#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <string>

#include "ffq/check/schedule.hpp"
#include "ffq/model/world.hpp"

namespace ffq::check {

struct dfs_options {
  /// preemption_bound value that explores every interleaving.
  static constexpr int kUnbounded = INT_MAX;
  /// Max context switches away from a still-runnable thread.
  int preemption_bound = 2;
  /// Bound on memoized states; hitting it reports exhausted = false.
  std::size_t max_states = 4'000'000;
  /// Require every modelled value consumed exactly once at terminals.
  bool require_all_consumed = true;
};

struct explore_result {
  bool ok = true;
  std::string violation;   ///< empty when ok
  schedule witness;        ///< replayable path to the violation (when !ok)
  std::size_t states = 0;  ///< memoized states visited
  std::size_t terminals = 0;  ///< distinct terminal states (replay/fuzz: runs)
  bool exhausted = true;   ///< false if max_states was hit
};

/// Exhaustive DFS from `initial` under the preemption bound, then the
/// liveness phase.
explore_result dfs_explore(const ffq::model::world& initial,
                           const dfs_options& opt = {});

/// Step `initial` along `s` exactly, checking monitors on every edge and
/// the terminal oracles at the end. Picks index world::threads_.
explore_result replay_model(const ffq::model::world& initial,
                            const schedule& s,
                            bool require_all_consumed = true);

/// `schedules` random runs from `initial`, each under a seed derived from
/// `seed`; stops at the first failure (witness included).
explore_result fuzz_model(const ffq::model::world& initial,
                          std::uint64_t seed, std::uint64_t schedules,
                          std::uint64_t max_steps = 1'000'000,
                          bool require_all_consumed = true);

}  // namespace ffq::check
