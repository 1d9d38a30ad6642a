// sched.hpp — a controllable cooperative scheduler for checking.
//
// ffq::runtime::fiber_scheduler runs fibers round-robin; checking needs
// the opposite: an external driver decides, at every scheduling point,
// which task runs next. coop_sched exposes exactly that. Tasks are
// ffq::runtime::fiber objects (ucontext) on one OS thread;
// step(t) resumes task t until it either yields — by calling
// coop_sched::yield() directly, or transitively through an
// FFQ_CHECK_YIELD() hook inside a queue operation (yield.hpp installs the
// thread-local hook for the duration of the step) — or finishes.
//
// Because all tasks share one OS thread, every explored interleaving is a
// sequentially consistent total order over yield-point-delimited blocks.
// That is the checking model: logic races at protocol-step granularity,
// not hardware memory-ordering races (TSan covers those; see DESIGN.md
// §10 for the precise claim).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace ffq::check {

class coop_sched {
 public:
  coop_sched();
  ~coop_sched();

  coop_sched(const coop_sched&) = delete;
  coop_sched& operator=(const coop_sched&) = delete;

  /// Register a task; returns its index (0, 1, 2, ... in spawn order).
  /// Tasks do not start running until the first step().
  int spawn(std::function<void()> fn);

  /// Resume task t until its next yield point or completion.
  /// Returns true if the task is still runnable afterwards.
  /// Calling step on a finished task is a no-op returning false.
  bool step(int t);

  bool done(int t) const;
  bool all_done() const;

  /// Indices of tasks that have not finished, in spawn order.
  std::vector<int> runnable() const;

  std::size_t task_count() const noexcept;

  /// Total number of step() resumptions so far (livelock bounding).
  std::uint64_t steps() const noexcept { return steps_; }

  /// Called from inside a task to hand control back to the driver.
  /// FFQ_CHECK_YIELD() routes here while a step is in progress.
  /// Outside any coop_sched task this is a no-op.
  static void yield();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
  std::uint64_t steps_ = 0;
};

}  // namespace ffq::check
