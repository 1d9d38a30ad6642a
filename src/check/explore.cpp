#include "ffq/check/explore.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ffq::check {

namespace {

using ffq::model::world;

/// Terminal-state oracles: exactly-once delivery + gap accounting.
std::string terminal_violation(const world& w) {
  for (std::size_t v = 1; v < w.consumed_count_.size(); ++v) {
    if (w.consumed_count_[v] != 1) {
      return "terminal: value " + std::to_string(v) + " consumed " +
             std::to_string(w.consumed_count_[v]) + " times (expected 1)";
    }
  }
  return w.check_gap_accounting();
}

constexpr std::size_t kNoNode = SIZE_MAX;

/// One memoized state: a node of the explored graph.
struct node {
  std::vector<std::size_t> succ;  ///< successor ids
  std::size_t parent = kNoNode;   ///< the node that first reached this one
  int pick = -1;                  ///< the thread stepped from `parent`
  int budget = 0;                 ///< best remaining budget explored
  bool terminal = false;
  bool pruned = false;            ///< an edge out was skipped as over budget
};

struct dfs_ctx {
  const dfs_options* opt = nullptr;
  explore_result* res = nullptr;
  // kUnbounded prunes no edge, so the last-running thread (which only
  // prices preemptions) is dropped from the memo key.
  bool unbounded = false;
  std::unordered_map<std::string, std::size_t> ids;
  std::vector<node> nodes;
  std::vector<int> path;

  /// Record a violation with its witness; returns true (search stops).
  bool fail(std::string violation, std::vector<int> picks) {
    res->ok = false;
    res->violation = std::move(violation);
    res->witness.picks = std::move(picks);
    return true;
  }
};

/// Returns true when a violation was found (res filled, search stops).
/// `from` is the node whose step produced `w` (kNoNode at the root).
bool dfs(const world& w, int last_tid, int budget, std::size_t from,
         dfs_ctx& ctx) {
  if (!w.violation_.empty()) {
    return ctx.fail("safety: " + w.violation_, ctx.path);
  }
  const bool done = w.all_done();
  if (done) {
    const std::string t = terminal_violation(w);
    if (!t.empty()) return ctx.fail("safety: " + t, ctx.path);
  }

  std::string key = w.encode();
  if (!ctx.unbounded) key.push_back(static_cast<char>(last_tid + 1));
  const auto [it, inserted] =
      ctx.ids.try_emplace(std::move(key), ctx.nodes.size());
  const std::size_t id = it->second;
  if (from != kNoNode) ctx.nodes[from].succ.push_back(id);
  if (inserted) {
    ctx.nodes.push_back({.succ = {}, .parent = from, .pick = last_tid,
                         .budget = budget, .terminal = done});
    ++ctx.res->states;
    if (done) ++ctx.res->terminals;
    if (ctx.res->states >= ctx.opt->max_states) {
      ctx.res->exhausted = false;
      return false;
    }
  } else {
    // A state is re-entered only with strictly more budget (budget
    // dominance); that explores a superset of its edges.
    node& seen = ctx.nodes[id];
    if (seen.budget >= budget) return false;
    seen.budget = budget;
    seen.succ.clear();
    seen.pruned = false;
  }
  if (done) return false;

  const bool last_runnable = last_tid >= 0 &&
                             !w.threads_[static_cast<std::size_t>(last_tid)]->done();
  const int n = static_cast<int>(w.threads_.size());
  // Continuation first (free), then preempting switches (cost 1 each
  // while the last thread still runs).
  for (int off = 0; off < n; ++off) {
    const int tid = last_tid >= 0 ? (last_tid + off) % n : off;
    if (w.threads_[static_cast<std::size_t>(tid)]->done()) continue;
    const int cost =
        (!ctx.unbounded && last_runnable && tid != last_tid) ? 1 : 0;
    if (cost > budget) {
      ctx.nodes[id].pruned = true;
      continue;
    }
    world next(w);
    next.threads_[static_cast<std::size_t>(tid)]->step(next);
    ctx.path.push_back(tid);
    if (dfs(next, tid, budget - cost, id, ctx)) return true;
    ctx.path.pop_back();
    if (!ctx.res->exhausted) return false;  // state budget gone: wind down
  }
  return false;
}

/// Liveness over the exhausted graph: every node must reach a terminal or
/// a pruned node (an over-budget edge may finish from there).
void check_liveness(dfs_ctx& ctx) {
  const std::vector<node>& nodes = ctx.nodes;
  const std::size_t n = nodes.size();
  std::vector<std::vector<std::size_t>> pred(n);
  std::vector<std::uint8_t> can_finish(n, 0);
  std::vector<std::size_t> work;
  bool any_pruned = false;
  for (std::size_t s = 0; s < n; ++s) {
    for (const std::size_t d : nodes[s].succ) pred[d].push_back(s);
    any_pruned = any_pruned || nodes[s].pruned;
    if (nodes[s].terminal || nodes[s].pruned) {
      can_finish[s] = 1;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const std::size_t s = work.back();
    work.pop_back();
    for (const std::size_t p : pred[s]) {
      if (!can_finish[p]) {
        can_finish[p] = 1;
        work.push_back(p);
      }
    }
  }

  if (ctx.res->terminals == 0 && !any_pruned) {
    ctx.fail("liveness: no schedule completes at all", {});
    return;
  }
  std::size_t stuck = 0;
  std::size_t first = n;
  for (std::size_t s = 0; s < n; ++s) {
    if (can_finish[s]) continue;
    ++stuck;
    if (first == n) first = s;
  }
  if (stuck == 0) return;
  std::vector<int> picks;  // the discovery path to the first stuck node
  for (std::size_t s = first; nodes[s].parent != kNoNode; s = nodes[s].parent) {
    picks.push_back(nodes[s].pick);
  }
  ctx.fail("liveness: " + std::to_string(stuck) +
               " reachable state(s) cannot reach completion "
               "(lost item or wedged protocol)",
           {picks.rbegin(), picks.rend()});
}

}  // namespace

explore_result dfs_explore(const world& initial, const dfs_options& opt) {
  explore_result res;
  dfs_ctx ctx;
  ctx.opt = &opt;
  ctx.res = &res;
  ctx.unbounded = opt.preemption_bound == dfs_options::kUnbounded;
  // The liveness phase needs the whole graph: not after a safety
  // violation, and not on a truncated search.
  if (!dfs(initial, -1, opt.preemption_bound, kNoNode, ctx) && res.exhausted) {
    check_liveness(ctx);
  }
  return res;
}

std::vector<int> model_target::runnable() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < w_.threads_.size(); ++i) {
    if (!w_.threads_[i]->done()) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::string model_target::step(int t) {
  w_.threads_[static_cast<std::size_t>(t)]->step(w_);
  return w_.violation_.empty() ? std::string() : "safety: " + w_.violation_;
}

std::string model_target::finish() const {
  const std::string t = terminal_violation(w_);
  return t.empty() ? t : "safety: " + t;
}

}  // namespace ffq::check
