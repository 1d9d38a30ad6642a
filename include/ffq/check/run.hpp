// run.hpp — the one schedule loop, and the fuzz and replay built on it.
//
// A target is a program run under an external scheduler. It has:
//   std::vector<int> runnable() const  — unfinished task indices, in
//                                         order; empty once it finished
//   std::string step(int t)            — run task t to its next
//                                         scheduling point; non-empty =
//                                         a violation on this edge
//   std::string finish()               — the terminal oracles, once
// Two substrates implement it: model_target (explore.hpp) over a copy of
// a model::world, and program<Queue> (harness.hpp) over a real queue.
// Each new checked target is one such class; the loop, the step bound,
// the replay rule and the result type are shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ffq/check/drivers.hpp"
#include "ffq/check/schedule.hpp"
#include "ffq/runtime/rng.hpp"

namespace ffq::check {

/// Steps after which a run is reported as livelocked or starved.
inline constexpr std::uint64_t kMaxSteps = 1'000'000;

struct explore_result {
  bool ok = true;
  std::string violation;  ///< empty when ok
  schedule witness;       ///< the (last) run's picks; DFS: path to violation
  std::size_t states = 0;     ///< DFS: memoized states; runs: steps taken
  std::size_t terminals = 0;  ///< DFS: distinct terminals; runs: completed
  bool exhausted = true;      ///< false if the DFS state bound was hit
};

/// Drive `target` to completion under `driver`, recording every pick.
/// Stops at the first per-edge violation, at the step bound, or when the
/// driver abandons the run; at completion a driver error (a replay whose
/// schedule outlives the program) wins over the terminal oracles.
template <typename Target, typename Driver>
explore_result run_schedule(Target& target, Driver& driver) {
  explore_result res;
  auto fail = [&res](std::string why) {
    res.ok = false;
    res.violation = std::move(why);
    return res;
  };
  for (auto runnable = target.runnable(); !runnable.empty();
       runnable = target.runnable()) {
    if (res.states == kMaxSteps) {
      return fail("liveness: step bound " + std::to_string(kMaxSteps) +
                  " exceeded (livelock or starvation)");
    }
    const int pick = driver.pick(runnable);
    if (pick < 0) return fail(driver.error());
    res.witness.picks.push_back(pick);
    ++res.states;
    if (std::string why = target.step(pick); !why.empty()) {
      return fail(std::move(why));
    }
  }
  if (std::string why = driver.error(); !why.empty()) return fail(std::move(why));
  if (std::string why = target.finish(); !why.empty()) return fail(std::move(why));
  ++res.terminals;
  return res;
}

/// `schedules` runs of fresh targets, run i under random_driver seeded by
/// the i-th splitmix64 output of `seed`; stops at the first failure,
/// whose witness replays it. States and terminals sum over the runs.
template <typename MakeTarget>
explore_result fuzz(MakeTarget&& make_target, std::uint64_t seed,
                    std::uint64_t schedules) {
  explore_result total;
  ffq::runtime::splitmix64 seeder(seed);
  for (std::uint64_t i = 0; i < schedules; ++i) {
    auto target = make_target();
    random_driver driver(seeder.next());
    explore_result r = run_schedule(target, driver);
    r.states += total.states;
    r.terminals += total.terminals;
    total = std::move(r);
    if (!total.ok) break;
  }
  return total;
}

/// Run a fresh target along `s` exactly (replay_driver's rule).
template <typename MakeTarget>
explore_result replay(MakeTarget&& make_target, const schedule& s) {
  auto target = make_target();
  replay_driver driver(s);
  return run_schedule(target, driver);
}

}  // namespace ffq::check
