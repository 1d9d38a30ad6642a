#include "ffq/runtime/eventcount.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#include <thread>
#endif

namespace ffq::runtime {

#if defined(__linux__)
namespace {
long futex(std::atomic<std::uint32_t>* addr, int op, std::uint32_t val) {
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val,
                 nullptr, nullptr, 0);
}
}  // namespace

void eventcount::wait(key_type key) noexcept {
  // Park while the generation still matches the key. FUTEX_WAIT
  // re-validates atomically against concurrent notifies; spurious
  // wake-ups are absorbed by the loop in the caller's re-check pattern
  // (we return and the caller re-examines its condition).
  if (epoch_->load(std::memory_order_seq_cst) == key) {
    futex(&epoch_.value, FUTEX_WAIT_PRIVATE, key);
  }
  waiters_->fetch_sub(1, std::memory_order_seq_cst);
}

void eventcount::notify_one() noexcept {
  if (!waiters_present()) return;
  epoch_->fetch_add(1, std::memory_order_seq_cst);
  futex(&epoch_.value, FUTEX_WAKE_PRIVATE, 1);
}

void eventcount::notify_all() noexcept {
  if (!waiters_present()) return;
  epoch_->fetch_add(1, std::memory_order_seq_cst);
  futex(&epoch_.value, FUTEX_WAKE_PRIVATE, 0x7fffffff);
}

#else  // portable fallback: yield-loop (correct, less efficient)

void eventcount::wait(key_type key) noexcept {
  while (epoch_->load(std::memory_order_seq_cst) == key) {
    std::this_thread::yield();
  }
  waiters_->fetch_sub(1, std::memory_order_seq_cst);
}

void eventcount::notify_one() noexcept {
  if (!waiters_present()) return;
  epoch_->fetch_add(1, std::memory_order_seq_cst);
}

void eventcount::notify_all() noexcept { notify_one(); }

#endif

}  // namespace ffq::runtime
