#include "ffq/runtime/fiber.hpp"

#include <ucontext.h>

#include <cassert>
#include <deque>
#include <vector>

namespace ffq::runtime {

struct fiber::state {
  ucontext_t ctx{};
  ucontext_t caller{};  ///< where suspend() and completion return to
  std::vector<char> stack;
  std::function<void()> fn;
  bool finished = false;

  static thread_local state* current;  // fiber running on this OS thread

  static void trampoline() {
    state* f = current;
    f->fn();
    f->finished = true;
    // Back to resume(); this context is never resumed again.
    swapcontext(&f->ctx, &f->caller);
  }
};

thread_local fiber::state* fiber::state::current = nullptr;

fiber::fiber(std::function<void()> fn) : s_(std::make_unique<state>()) {
  s_->stack.resize(kStackBytes);
  s_->fn = std::move(fn);
  getcontext(&s_->ctx);
  s_->ctx.uc_stack.ss_sp = s_->stack.data();
  s_->ctx.uc_stack.ss_size = s_->stack.size();
  s_->ctx.uc_link = nullptr;  // termination handled by the trampoline
  makecontext(&s_->ctx, &state::trampoline, 0);
}

fiber::~fiber() = default;

void fiber::resume() {
  if (s_->finished) return;
  state* prev = state::current;
  state::current = s_.get();
  swapcontext(&s_->caller, &s_->ctx);
  state::current = prev;
}

bool fiber::finished() const noexcept { return s_->finished; }

void fiber::suspend() {
  state* f = state::current;
  if (f == nullptr) return;  // not in a fiber
  swapcontext(&f->ctx, &f->caller);
}

struct fiber_scheduler::impl {
  std::deque<fiber*> ready;
  std::vector<std::unique_ptr<fiber>> all;
  fiber* current = nullptr;

  static thread_local impl* active;  // scheduler running on this OS thread
};

thread_local fiber_scheduler::impl* fiber_scheduler::impl::active = nullptr;

fiber_scheduler::fiber_scheduler() : impl_(std::make_unique<impl>()) {}
fiber_scheduler::~fiber_scheduler() = default;

void fiber_scheduler::spawn(std::function<void()> fn) {
  impl_->all.push_back(std::make_unique<fiber>(std::move(fn)));
  impl_->ready.push_back(impl_->all.back().get());
}

void fiber_scheduler::run() {
  assert(impl::active == nullptr && "nested schedulers on one OS thread");
  impl::active = impl_.get();
  while (!impl_->ready.empty()) {
    fiber* f = impl_->ready.front();
    impl_->ready.pop_front();
    impl_->current = f;
    f->resume();
    impl_->current = nullptr;
    if (!f->finished()) {
      impl_->ready.push_back(f);  // yielded: reschedule round-robin
    }
  }
  impl::active = nullptr;
}

std::size_t fiber_scheduler::live_fibers() const noexcept {
  std::size_t n = 0;
  for (const auto& f : impl_->all) {
    if (!f->finished()) ++n;
  }
  return n;
}

void fiber_scheduler::yield() {
  if (in_fiber()) fiber::suspend();
}

bool fiber_scheduler::in_fiber() noexcept {
  return impl::active != nullptr && impl::active->current != nullptr;
}

}  // namespace ffq::runtime
