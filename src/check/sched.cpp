#include "ffq/check/sched.hpp"

#include <cassert>
#include <vector>

#include "ffq/check/yield.hpp"
#include "ffq/runtime/fiber.hpp"

namespace ffq::check {

struct coop_sched::impl {
  std::vector<std::unique_ptr<ffq::runtime::fiber>> tasks;

  static thread_local impl* active;  // scheduler stepping on this OS thread

  static void yield_from_hook() { coop_sched::yield(); }
};

thread_local coop_sched::impl* coop_sched::impl::active = nullptr;

coop_sched::coop_sched() : impl_(std::make_unique<impl>()) {}
coop_sched::~coop_sched() = default;

int coop_sched::spawn(std::function<void()> fn) {
  impl_->tasks.push_back(std::make_unique<ffq::runtime::fiber>(std::move(fn)));
  return static_cast<int>(impl_->tasks.size()) - 1;
}

bool coop_sched::step(int t) {
  if (t < 0 || static_cast<std::size_t>(t) >= impl_->tasks.size()) return false;
  auto& task = *impl_->tasks[static_cast<std::size_t>(t)];
  if (task.finished()) return false;
  assert(impl::active == nullptr && "nested coop_sched steps on one OS thread");

  impl::active = impl_.get();
  ++steps_;
  {
    // Route FFQ_CHECK_YIELD() in the resumed code back to this driver.
    hook_guard hooked(&impl::yield_from_hook);
    task.resume();
  }
  impl::active = nullptr;
  return !task.finished();
}

bool coop_sched::done(int t) const {
  if (t < 0 || static_cast<std::size_t>(t) >= impl_->tasks.size()) return true;
  return impl_->tasks[static_cast<std::size_t>(t)]->finished();
}

bool coop_sched::all_done() const {
  for (const auto& t : impl_->tasks) {
    if (!t->finished()) return false;
  }
  return true;
}

std::vector<int> coop_sched::runnable() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < impl_->tasks.size(); ++i) {
    if (!impl_->tasks[i]->finished()) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::size_t coop_sched::task_count() const noexcept { return impl_->tasks.size(); }

void coop_sched::yield() {
  if (impl::active != nullptr) ffq::runtime::fiber::suspend();  // in a task
}

}  // namespace ffq::check
