// explore.hpp — schedule exploration over the model machines.
//
// model_target puts a model world through run.hpp's fuzz and replay. The
// model substrate (include/ffq/model) can also clone and re-enter states,
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
//    accounting — the same terminal oracles model_target::finish runs.
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
#include <string>
#include <vector>

#include "ffq/check/run.hpp"
#include "ffq/model/world.hpp"

namespace ffq::check {

struct dfs_options {
  /// preemption_bound value that explores every interleaving.
  static constexpr int kUnbounded = INT_MAX;
  /// Max context switches away from a still-runnable thread.
  int preemption_bound = 2;
  /// Bound on memoized states; hitting it reports exhausted = false.
  std::size_t max_states = 4'000'000;
};

/// Exhaustive DFS from `initial` under the preemption bound, then the
/// liveness phase.
explore_result dfs_explore(const ffq::model::world& initial,
                           const dfs_options& opt = {});

/// The run_schedule target over a copy of a model world: picks index
/// world::threads_, a monitor firing is a violation on that edge, and
/// finish() requires every value consumed exactly once and consistent
/// gap accounting.
class model_target {
 public:
  explicit model_target(const ffq::model::world& initial) : w_(initial) {}

  std::vector<int> runnable() const;
  std::string step(int t);
  std::string finish() const;

 private:
  ffq::model::world w_;
};

}  // namespace ffq::check
