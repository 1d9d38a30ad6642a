// check_explore — drive ffq::check from the command line.
//
// Model substrate (clonable state machines; supports exhaustive DFS):
//   check_explore --model spsc --bound 2          exhaustive, preemption<=2
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
// Exit codes: 0 = every explored schedule passed; 1 = an oracle was
// violated (the offending schedule string is printed for --replay);
// 2 = usage error, or an inconclusive DFS (the state bound was hit, or no
// schedule completed within the preemption bound). The program shapes are
// fixed per target name so a printed schedule replays against an
// identical program (model shapes: model/shapes.hpp).
#ifndef FFQ_CHECK
#define FFQ_CHECK 1  // instrument the queue headers in this TU
#endif

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "ffq/check/check.hpp"
#include "ffq/core/mpmc.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/model/shapes.hpp"
#include "ffq/shard/shard.hpp"

namespace {

using namespace ffq::check;
namespace model = ffq::model;

int usage() {
  std::fprintf(stderr,
               "usage: check_explore --model "
               "spsc|spmc|spmc_bulk|spmc_try|mpmc|shard [--bound N] "
               "[--fuzz N] [--replay SCHED] [--mutate NAME] [--seed S]\n"
               "       check_explore --queue "
               "spsc|spmc|mpmc|waitable|shard|shard_ordered|all "
               "--fuzz N [--replay SCHED] [--seed S]\n"
               "mutations: publish_before_data skip_line29_recheck "
               "tail_after_batch faa_try_claim claim_publishes_directly "
               "gap_ignores_rank claim_ignores_gap\n");
  return 2;
}

/// The whole of `s` as a decimal number in [0, max]: no sign, no
/// surrounding junk, no overflow.
std::optional<std::uint64_t> parse_count(const std::string& s,
                                         std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end || v > max) return std::nullopt;
  return v;
}

int report_model(const explore_result& r, const char* what) {
  if (r.ok) {
    // A clean run that reached no terminal proves nothing: every schedule
    // was cut by a bound.
    const bool conclusive = r.exhausted && r.terminals > 0;
    const char* note = !r.exhausted ? ", state bound hit"
                       : conclusive ? ""
                                    : ", none within the preemption bound";
    std::printf("check_explore: %s %s (%zu states, %zu terminals%s)\n", what,
                conclusive ? "passed" : "inconclusive", r.states, r.terminals,
                note);
    return conclusive ? 0 : 2;
  }
  std::printf("check_explore: VIOLATION (%s)\n  %s\n  schedule: %s\n", what,
              r.violation.c_str(), format_schedule(r.witness).c_str());
  return 1;
}

// ---- real-queue programs (fixed shapes so schedules replay) --------------

/// One program shape per queue name, small enough for the Wing-Gong
/// bound: spsc/waitable 1x6 items 1 consumer; spmc 1x6, 2 consumers;
/// mpmc 2x4, 2 consumers.
program_config queue_config(const std::string& name) {
  program_config cfg;
  cfg.capacity = 4;
  if (name == "mpmc") {
    cfg.producers = 2;
    cfg.items_per_producer = 4;
    cfg.consumers = 2;
  } else if (name == "shard" || name == "shard_ordered") {
    cfg.producers = 2;  // one shard each, cfg.capacity cells per shard
    cfg.items_per_producer = 4;
    cfg.consumers = 2;
    cfg.dequeue_batch = 2;  // exercise the scheduler's bulk drain
    cfg.check_linearizability = false;  // sharded: not one FIFO by design
  } else if (name == "spmc") {
    cfg.producers = 1;
    cfg.items_per_producer = 6;
    cfg.consumers = 2;
  } else {  // spsc, waitable: single consumer by contract
    cfg.producers = 1;
    cfg.items_per_producer = 6;
    cfg.consumers = 1;
  }
  return cfg;
}

template <typename Queue>
int fuzz_one_queue(const std::string& name, std::uint64_t seed,
                   std::uint64_t runs) {
  const program_config cfg = queue_config(name);
  const fuzz_result r = fuzz_queue<Queue>(cfg, seed, runs);
  if (r.ok) {
    std::printf("check_explore: queue %s passed %llu schedules (seed %llu)\n",
                name.c_str(), static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(seed));
    return 0;
  }
  std::printf(
      "check_explore: VIOLATION (queue %s, run %llu)\n  %s\n  schedule: %s\n",
      name.c_str(), static_cast<unsigned long long>(r.runs - 1),
      r.failure.violation.c_str(), format_schedule(r.failure.sched).c_str());
  return 1;
}

template <typename Queue>
int replay_one_queue(const std::string& name, const schedule& s) {
  const run_result r = replay_queue<Queue>(queue_config(name), s);
  if (r.ok) {
    std::printf("check_explore: queue %s replay passed (%llu steps)\n",
                name.c_str(), static_cast<unsigned long long>(r.steps));
    return 0;
  }
  std::printf("check_explore: VIOLATION (queue %s replay)\n  %s\n  schedule: %s\n",
              name.c_str(), r.violation.c_str(),
              format_schedule(r.sched).c_str());
  return 1;
}

using q_spsc = ffq::core::spsc_queue<long long>;
using q_spmc = ffq::core::spmc_queue<long long>;
using q_mpmc = ffq::core::mpmc_queue<long long>;
using q_wait = ffq::core::waitable_spsc_queue<long long>;
using q_shard = ffq::shard::fabric<long long, false>;
using q_shard_ord = ffq::shard::fabric<long long, true>;

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

  schedule replay_sched;
  if (!replay_str.empty()) {
    auto parsed = parse_schedule(replay_str);
    if (!parsed) {
      std::fprintf(stderr, "check_explore: malformed schedule '%s'\n",
                   replay_str.c_str());
      return 2;
    }
    replay_sched = std::move(*parsed);
  }

  if (!model_name.empty()) {
    std::optional<model::world> w;
    try {
      w.emplace(model::make_shape(model_name, mutate));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check_explore: %s\n", e.what());
      return 2;
    }
    if (!replay_str.empty()) {
      return report_model(replay_model(*w, replay_sched), "model replay");
    }
    int rc = 0;
    if (bound >= 0) {
      dfs_options opt;
      opt.preemption_bound = bound;
      const std::string what =
          "model " + model_name + " DFS bound " + std::to_string(bound);
      rc = report_model(dfs_explore(*w, opt), what.c_str());
      if (rc != 0) return rc;
    }
    if (fuzz_runs > 0) {
      const std::string what = "model " + model_name + " fuzz " +
                               std::to_string(fuzz_runs) + " (seed " +
                               std::to_string(seed) + ")";
      rc = report_model(fuzz_model(*w, seed, fuzz_runs), what.c_str());
    }
    if (bound < 0 && fuzz_runs == 0) return usage();
    return rc;
  }

  // Real-queue mode.
  if (!mutate.empty() || bound >= 0) return usage();  // model-only options
  if (!replay_str.empty()) {
    if (queue_name == "spsc") return replay_one_queue<q_spsc>(queue_name, replay_sched);
    if (queue_name == "spmc") return replay_one_queue<q_spmc>(queue_name, replay_sched);
    if (queue_name == "mpmc") return replay_one_queue<q_mpmc>(queue_name, replay_sched);
    if (queue_name == "waitable") return replay_one_queue<q_wait>(queue_name, replay_sched);
    if (queue_name == "shard") return replay_one_queue<q_shard>(queue_name, replay_sched);
    if (queue_name == "shard_ordered") return replay_one_queue<q_shard_ord>(queue_name, replay_sched);
    return usage();
  }
  if (fuzz_runs == 0) return usage();
  int rc = 0;
  const bool all = queue_name == "all";
  if (all || queue_name == "spsc") rc |= fuzz_one_queue<q_spsc>("spsc", seed, fuzz_runs);
  if (all || queue_name == "spmc") rc |= fuzz_one_queue<q_spmc>("spmc", seed, fuzz_runs);
  if (all || queue_name == "mpmc") rc |= fuzz_one_queue<q_mpmc>("mpmc", seed, fuzz_runs);
  if (all || queue_name == "waitable") rc |= fuzz_one_queue<q_wait>("waitable", seed, fuzz_runs);
  if (all || queue_name == "shard") rc |= fuzz_one_queue<q_shard>("shard", seed, fuzz_runs);
  if (all || queue_name == "shard_ordered") {
    rc |= fuzz_one_queue<q_shard_ord>("shard_ordered", seed, fuzz_runs);
  }
  if (!all && rc == 0 && queue_name != "spsc" && queue_name != "spmc" &&
      queue_name != "mpmc" && queue_name != "waitable" &&
      queue_name != "shard" && queue_name != "shard_ordered") {
    return usage();
  }
  return rc;
}
