// check_explore — drive ffq::check from the command line.
//
// Model substrate (clonable state machines; supports exhaustive DFS):
//   check_explore --model spsc --bound 2          exhaustive, preemption<=2
//   check_explore --model all --bound 2           every model shape
//   check_explore --model spmc --fuzz 5000        seeded random schedules
//   check_explore --model spmc --mutate skip_line29_recheck --fuzz 5000
//   check_explore --model spmc --mutate skip_line29_recheck --replay 0.1*3.0
//   check_explore --model spmc_bulk --mutate tail_after_batch --bound 2
//   check_explore --model spmc_try --mutate faa_try_claim --bound 2
//
// Real queues (FFQ_CHECK_YIELD instrumentation; random + replay drivers):
//   check_explore --queue all --fuzz 10000 --seed 1
//   check_explore --queue mpmc --replay '2*14.0.2*3.1*7'
//
// --bound 2147483647 is dfs_options::kUnbounded: every interleaving.
//
// Both substrates run through one schedule loop (check/run.hpp): --fuzz
// and --replay mean the same on each, and a replay must fit the program
// exactly, or it is a violation.
//
// Exit codes: 0 = every explored schedule passed; 1 = an oracle was
// violated, or a replay did not fit its program (the offending schedule
// string is printed for --replay); 2 = usage error, or an inconclusive
// DFS (the state bound was hit, or no schedule completed within the
// preemption bound). The program shapes are fixed per target name so a
// printed schedule replays against an identical program (model shapes:
// model/shapes.hpp, queue shapes: kQueues below).
#ifndef FFQ_CHECK
#define FFQ_CHECK 1  // instrument the queue headers in this TU
#endif

#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ffq/check/check.hpp"
#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/harness/parse.hpp"
#include "ffq/model/shapes.hpp"
#include "ffq/shard/shard.hpp"

namespace {

using namespace ffq::check;
using ffq::harness::parse_count;
namespace model = ffq::model;

/// A fuzz (no `replay_sched`) or a replay of the program over Queue.
template <typename Queue>
explore_result run_queue(const program_config& cfg,
                         const std::optional<schedule>& replay_sched,
                         std::uint64_t seed, std::uint64_t runs) {
  auto make = [&cfg] { return program<Queue>(cfg); };
  return replay_sched ? replay(make, *replay_sched) : fuzz(make, seed, runs);
}

/// One program shape per queue name, fixed so schedules replay and small
/// enough for the Wing–Gong bound.
program_config shape(int producers, int consumers, int items) {
  return {.capacity = 4, .producers = producers, .consumers = consumers,
          .items_per_producer = items};
}

/// A multi-consumer shape whose consumers claim runs of up to 2
/// (try_dequeue_bulk): at capacity 4 the runs cross the wrap and hold gap
/// ranks. Each item of a run is one dequeue in the history, stamped with
/// the call's interval, so the linearizability check stays on.
program_config bulk_shape(int producers, int consumers, int items) {
  program_config cfg = shape(producers, consumers, items);
  cfg.dequeue_batch = 2;
  return cfg;
}

program_config fabric_shape() {
  program_config cfg = shape(2, 2, 4);  // one shard per producer
  cfg.dequeue_batch = 2;  // exercise the scheduler's bulk drain
  cfg.check_linearizability = false;  // sharded: not one FIFO by design
  return cfg;
}

/// The fabric fed by bulk producers (bursts of 3, so runs of 3 and 1)
/// and drained one item per call: each run of 3 is split across calls,
/// and the rest waits in the consumer's leftover.
program_config fabric_runs_shape() {
  program_config cfg = fabric_shape();
  cfg.enqueue_batch = 3;
  cfg.dequeue_batch = 1;
  return cfg;
}

/// Runs of 2 through 2-cell shards, drained two items per call: a claim
/// of two cells reads the first and keeps the second claimed but unread,
/// and each producer's four runs wrap onto that cell, announcing a gap
/// over it or waiting for it (a full sweep).
program_config fabric_runs_wrap_shape() {
  program_config cfg = fabric_shape();
  cfg.capacity = 2;
  cfg.items_per_producer = 8;
  cfg.enqueue_batch = 2;
  cfg.dequeue_batch = 2;
  return cfg;
}

struct queue_target {
  const char* name;
  program_config cfg;
  explore_result (*run)(const program_config&, const std::optional<schedule>&,
                        std::uint64_t, std::uint64_t);
};

const queue_target kQueues[] = {
    // spsc, waitable: single consumer by contract.
    {"spsc", shape(1, 1, 6), run_queue<ffq::core::spsc_queue<long long>>},
    {"spmc", shape(1, 2, 6), run_queue<ffq::core::spmc_queue<long long>>},
    {"mpmc", shape(2, 2, 4), run_queue<ffq::core::mpmc_queue<long long>>},
    {"spmc_bulk", bulk_shape(1, 2, 6),
     run_queue<ffq::core::spmc_queue<long long>>},
    {"mpmc_bulk", bulk_shape(2, 2, 4),
     run_queue<ffq::core::mpmc_queue<long long>>},
    {"waitable", shape(1, 1, 6),
     run_queue<ffq::core::waitable_spsc_queue<long long>>},
    {"shard", fabric_shape(), run_queue<ffq::shard::fabric<long long, false>>},
    {"shard_runs", fabric_runs_shape(),
     run_queue<ffq::shard::fabric<long long, false>>},
    {"shard_runs_wrap", fabric_runs_wrap_shape(),
     run_queue<ffq::shard::fabric<long long, false>>},
    {"shard_ordered", fabric_shape(),
     run_queue<ffq::shard::fabric<long long, true>>},
};

int usage() {
  std::string models, queues, mutations;
  for (const auto& m : model::shape_names()) models += m + "|";
  for (const auto& q : kQueues) queues += std::string(q.name) + "|";
  for (const auto& m : model::mutation_names()) mutations += " " + m;
  std::fprintf(stderr,
               "usage: check_explore --model %sall [--bound N] "
               "[--fuzz N] [--replay SCHED] [--mutate NAME] [--seed S]\n"
               "       check_explore --queue %sall "
               "--fuzz N [--replay SCHED] [--seed S]\n"
               "mutations:%s\n",
               models.c_str(), queues.c_str(), mutations.c_str());
  return 2;
}

int report(const explore_result& r, const std::string& what) {
  if (r.ok) {
    // A clean run that reached no terminal proves nothing: every schedule
    // was cut by a bound.
    const bool conclusive = r.exhausted && r.terminals > 0;
    const char* note = !r.exhausted ? ", state bound hit"
                       : conclusive ? ""
                                    : ", none within the preemption bound";
    std::printf("check_explore: %s %s (%zu states, %zu terminals%s)\n",
                what.c_str(), conclusive ? "passed" : "inconclusive",
                r.states, r.terminals, note);
    return conclusive ? 0 : 2;
  }
  std::printf("check_explore: VIOLATION (%s)\n  %s\n  schedule: %s\n",
              what.c_str(), r.violation.c_str(),
              format_schedule(r.witness).c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_name, queue_name, mutate, replay_str;
  int bound = -1;
  std::uint64_t fuzz_runs = 0;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc && arg != "--help") {
      value = argv[i + 1];
    }
    auto take = [&]() {  // consume the separated value form
      if (eq == std::string::npos) ++i;
      return value;
    };
    if (arg == "--model") {
      model_name = take();
    } else if (arg == "--queue") {
      queue_name = take();
    } else if (arg == "--mutate") {
      mutate = take();
    } else if (arg == "--replay") {
      replay_str = take();
    } else if (arg == "--bound") {
      const auto v = parse_count(take(), INT_MAX);
      if (!v) return usage();
      bound = static_cast<int>(*v);
    } else if (arg == "--fuzz") {
      const auto v = parse_count(take(), UINT64_MAX);
      if (!v) return usage();
      fuzz_runs = *v;
    } else if (arg == "--seed") {
      const auto v = parse_count(take(), UINT64_MAX);
      if (!v) return usage();
      seed = *v;
    } else {
      return usage();
    }
  }

  if (model_name.empty() == queue_name.empty()) return usage();  // exactly one

  std::optional<schedule> replay_sched;
  if (!replay_str.empty()) {
    replay_sched = parse_schedule(replay_str);
    if (!replay_sched) {
      std::fprintf(stderr, "check_explore: malformed schedule '%s'\n",
                   replay_str.c_str());
      return 2;
    }
  }
  const std::string fuzz_what = " fuzz " + std::to_string(fuzz_runs) +
                                " (seed " + std::to_string(seed) + ")";

  // Model mode: --replay names one shape, --bound/--fuzz one or all.
  if (!model_name.empty()) {
    if (!replay_sched && bound < 0 && fuzz_runs == 0) return usage();
    const bool all = model_name == "all" && !replay_sched;
    int rc = 0;
    for (const auto& name :
         all ? model::shape_names() : std::vector<std::string>{model_name}) {
      std::optional<model::world> w;
      try {
        w.emplace(model::make_shape(name, mutate));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "check_explore: %s\n", e.what());
        return 2;
      }
      auto make = [&w] { return model_target(*w); };
      if (replay_sched) {
        return report(replay(make, *replay_sched), "model replay");
      }
      const std::string what = "model " + name;
      int shape_rc = 0;
      if (bound >= 0) {
        dfs_options opt;
        opt.preemption_bound = bound;
        shape_rc = report(dfs_explore(*w, opt),
                          what + " DFS bound " + std::to_string(bound));
      }
      if (shape_rc == 0 && fuzz_runs > 0) {
        shape_rc = report(fuzz(make, seed, fuzz_runs), what + fuzz_what);
      }
      rc |= shape_rc;
    }
    return rc;
  }

  // Real-queue mode: --replay names one queue, --fuzz one or all.
  if (!mutate.empty() || bound >= 0) return usage();  // model-only options
  if (!replay_sched && fuzz_runs == 0) return usage();
  const bool all = queue_name == "all" && !replay_sched;
  int rc = 0;
  bool known = false;
  for (const auto& q : kQueues) {
    if (!all && queue_name != q.name) continue;
    known = true;
    const std::string what = std::string("queue ") + q.name +
                             (replay_sched ? " replay" : fuzz_what);
    rc |= report(q.run(q.cfg, replay_sched, seed, fuzz_runs), what);
  }
  return known ? rc : usage();
}
