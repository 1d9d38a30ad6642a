// eventcount.hpp — futex-backed event count for spin-then-park waiting.
//
// The paper's application context avoids spinning consumers by yielding
// to an application-level scheduler (§I: "to avoid spinning while
// waiting ... we can call the scheduler to indicate that another
// application thread can execute"). When there is no user-level
// scheduler, the kernel equivalent is parking on a futex. An event count
// is the standard way to bolt parking onto a lock-free structure without
// adding anything to its hot path:
//
//   consumer:  key = ec.prepare_wait();
//              if (queue still empty) ec.wait(key); else ec.cancel_wait();
//   producer:  enqueue(...); ec.notify_one();   // only when waiters exist
//
// The producer-side notify is one uncontended RMW of the waiter count
// when nobody waits (lock xadd on x86): a plain load there can pass the
// producer's publishing store and lose a wake-up.
#pragma once

#include <atomic>
#include <cstdint>

#include "ffq/runtime/cacheline.hpp"

namespace ffq::runtime {

class eventcount {
 public:
  using key_type = std::uint32_t;

  /// Announce intent to wait. Must be followed by wait(key) or
  /// cancel_wait(). The returned key captures the current generation;
  /// any notify after prepare_wait() invalidates it.
  key_type prepare_wait() noexcept {
    waiters_->fetch_add(1, std::memory_order_seq_cst);
    return epoch_->load(std::memory_order_seq_cst);
  }

  /// Park until a notify arrives after the matching prepare_wait().
  /// Returns immediately if one already happened (stale key).
  void wait(key_type key) noexcept;

  /// Abort a prepared wait (the caller found data on its re-check).
  void cancel_wait() noexcept {
    waiters_->fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Wake one parked waiter (no-op when none).
  void notify_one() noexcept;

  /// Wake all parked waiters (used by close()).
  void notify_all() noexcept;

  /// Racy diagnostic.
  std::uint32_t approx_waiters() const noexcept {
    return waiters_->load(std::memory_order_relaxed);
  }

 private:
  /// The notifier's "any waiters?" check. An RMW, not a load: it is
  /// ordered after the caller's release stores (the item, or close()'s
  /// closed tail), so it cannot read 0 while a waiter's re-check under
  /// prepare_wait misses that store. A seq_cst load may pass the store
  /// on x86 (store buffering) and lose the wake-up.
  bool waiters_present() noexcept {
    return waiters_->fetch_add(0, std::memory_order_seq_cst) != 0;
  }

  // epoch: bumped by every notify; waiters compare their key against it.
  padded<std::atomic<std::uint32_t>> epoch_{0};
  padded<std::atomic<std::uint32_t>> waiters_{0};
};

}  // namespace ffq::runtime
