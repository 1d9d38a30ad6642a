// fiber.hpp — a minimal cooperative (m:n) user-level thread scheduler.
//
// Paper §I: "Modern programming languages like Go and Rust support
// application level threads, i.e., they have their own scheduler that
// maps m application threads to n operating system threads. In such
// settings, to avoid spinning while waiting for a return from an
// operating system call, we can call the scheduler to indicate that
// another application thread can execute."
//
// This is that scheduler, reduced to what the asynchronous-syscall
// architecture needs: one `fiber_scheduler` per OS thread, cooperative
// fibers (ucontext-based), `yield()` from inside a fiber, and a
// `wait_until(pred)` helper that yields until a condition holds — the
// idiom an app fiber uses while its syscall response is in flight.
// With m fibers per OS thread, a single producer keeps up to m requests
// outstanding in its SPMC submission queue, which is exactly the
// "implicit flow control" population the paper dimensions queues for.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace ffq::runtime {

/// One ucontext fiber: its own stack and the function it runs there.
/// resume() runs the function on the calling OS thread until it calls
/// fiber::suspend() or returns. fiber_scheduler and the checking
/// scheduler (ffq::check::coop_sched) are both loops over fibers.
class fiber {
 public:
  /// Fiber stack size. Syscall-shim fibers and check tasks are shallow;
  /// 64 KiB is plenty and keeps m:n configurations cheap.
  static constexpr std::size_t kStackBytes = 64 * 1024;

  explicit fiber(std::function<void()> fn);
  ~fiber();

  fiber(const fiber&) = delete;
  fiber& operator=(const fiber&) = delete;

  /// Run until the function suspends or returns. No-op once finished.
  void resume();

  bool finished() const noexcept;

  /// From inside a fiber: back to the resume() that entered it. No-op
  /// outside any fiber.
  static void suspend();

 private:
  struct state;
  std::unique_ptr<state> s_;
};

class fiber_scheduler {
 public:
  /// Per-fiber stack size.
  static constexpr std::size_t kStackBytes = fiber::kStackBytes;

  fiber_scheduler();
  ~fiber_scheduler();

  fiber_scheduler(const fiber_scheduler&) = delete;
  fiber_scheduler& operator=(const fiber_scheduler&) = delete;

  /// Register a fiber. Must be called before run() or from inside a
  /// running fiber of this scheduler.
  void spawn(std::function<void()> fn);

  /// Run fibers round-robin on the calling OS thread until every fiber
  /// has finished. Re-entrant spawns are picked up.
  void run();

  /// Number of fibers not yet finished (valid inside run()).
  std::size_t live_fibers() const noexcept;

  // --- static API usable from inside a fiber ---------------------------

  /// Cooperative yield: back to the scheduler, which resumes the next
  /// ready fiber. No-op when called outside a fiber.
  static void yield();

  /// Yield until `pred()` returns true (checked each time this fiber is
  /// rescheduled). Returns immediately if it already holds.
  template <typename Pred>
  static void wait_until(Pred&& pred) {
    while (!pred()) yield();
  }

  /// True when the caller runs inside a fiber of some scheduler.
  static bool in_fiber() noexcept;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace ffq::runtime
