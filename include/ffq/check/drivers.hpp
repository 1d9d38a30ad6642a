// drivers.hpp — the two pick()-style ways a schedule gets chosen.
//
// A driver has `int pick(const std::vector<int>& runnable)`: given the
// runnable task indices (spawn order, never empty), return the one to
// step next, or -1 to abandon the run; and `std::string error() const`:
// why it abandoned the run or, once the program finished, why its
// schedule does not fit the program (empty = nothing wrong).
// run_schedule (run.hpp) records every pick, so any run replays.
//
//  * random_driver   — seeded xoshiro256**; uniform over runnable tasks.
//    Same seed, same program => same schedule, bit for bit.
//  * replay_driver   — plays back a recorded schedule. Every pick must
//    name a runnable task and the program must finish exactly at the
//    last pick; a schedule that ends early, a pick naming a finished or
//    non-existent task, and picks left after completion are each a
//    replay error — the program differs from the one recorded.
//
// The third driver, preemption-bounded exhaustive DFS, lives in
// explore.hpp: it needs to clone and restore states, which only the
// model substrate supports, so it is not a pick()-style driver.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ffq/check/schedule.hpp"
#include "ffq/runtime/rng.hpp"

namespace ffq::check {

class random_driver {
 public:
  explicit random_driver(std::uint64_t seed) noexcept : rng_(seed) {}

  int pick(const std::vector<int>& runnable) noexcept {
    return runnable[rng_.bounded(runnable.size())];
  }

  std::string error() const { return {}; }

 private:
  ffq::runtime::xoshiro256ss rng_;
};

class replay_driver {
 public:
  explicit replay_driver(schedule s) noexcept : sched_(std::move(s)) {}

  int pick(const std::vector<int>& runnable) {
    if (pos_ == sched_.picks.size()) {
      error_ = "replay: schedule ended after " + std::to_string(pos_) +
               " picks, before the program finished";
      return -1;
    }
    const int t = sched_.picks[pos_];
    if (std::find(runnable.begin(), runnable.end(), t) == runnable.end()) {
      error_ = "replay: pick " + std::to_string(pos_) + " names task " +
               std::to_string(t) + ", which is finished or does not exist";
      return -1;
    }
    ++pos_;
    return t;
  }

  std::string error() const {
    if (!error_.empty() || pos_ == sched_.picks.size()) return error_;
    return "replay: program finished after " + std::to_string(pos_) +
           " picks, " + std::to_string(sched_.picks.size() - pos_) +
           " pick(s) left over";
  }

 private:
  schedule sched_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace ffq::check
