#include "ffq/model/shapes.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "ffq/model/ffq_alg1.hpp"
#include "ffq/model/ffq_alg2.hpp"
#include "ffq/model/shard_sched.hpp"

namespace ffq::model {

namespace {

struct mutations {
  producer_mutation p = producer_mutation::none;
  consumer_mutation c = consumer_mutation::none;
  alg2_mutation m = alg2_mutation::none;
};

const std::pair<const char*, mutations> kMutations[] = {
    {"", {}},
    {"publish_before_data", {.p = producer_mutation::publish_before_data}},
    {"tail_after_batch", {.p = producer_mutation::tail_after_batch}},
    {"skip_line29_recheck", {.c = consumer_mutation::skip_line29_recheck}},
    {"faa_try_claim", {.c = consumer_mutation::faa_try_claim}},
    {"snapshot_ahead", {.c = consumer_mutation::snapshot_ahead}},
    {"stale_empty", {.c = consumer_mutation::stale_empty}},
    {"claim_publishes_directly", {.m = alg2_mutation::claim_publishes_directly}},
    {"gap_ignores_rank", {.m = alg2_mutation::gap_ignores_rank}},
    {"claim_ignores_gap", {.m = alg2_mutation::claim_ignores_gap}},
};

template <typename Machine, typename... Args>
void add(world& w, Args... args) {
  w.threads_.push_back(std::make_unique<Machine>(args...));
}

/// The bulk / try shapes: one producer with one 3-item batch, two try_
/// consumers (batch 2).
world try_shape(std::size_t cells, const mutations& mu) {
  world w(cells, 3);
  w.producer_ranges_ = {{1, 3}};
  add<alg1_bulk_producer>(w, 1, 3, 3, mu.p);
  add<alg1_try_consumer>(w, 2, mu.c);
  add<alg1_try_consumer>(w, 2, mu.c);
  return w;
}

using shape_fn = world (*)(const mutations&);

const std::pair<const char*, shape_fn> kShapes[] = {
    // 1 producer x 3 items, 1 consumer, 2 cells (forces wraps).
    {"spsc",
     [](const mutations& mu) {
       world w(2, 3);
       w.producer_ranges_ = {{1, 3}};
       add<alg1_producer>(w, 1, 3, mu.p);
       add<alg1_consumer>(w, 3, mu.c);
       return w;
     }},
    // 1 producer x 4 items, 2 consumers x quota 2, 2 cells.
    {"spmc",
     [](const mutations& mu) {
       world w(2, 4);
       w.producer_ranges_ = {{1, 4}};
       add<alg1_producer>(w, 1, 4, mu.p);
       add<alg1_consumer>(w, 2, mu.c);
       add<alg1_consumer>(w, 2, mu.c);
       return w;
     }},
    // 2 cells: the batch wraps the ring (publish before stall).
    {"spmc_bulk", [](const mutations& mu) { return try_shape(2, mu); }},
    // 4 cells: the racing claims meet an idle producer within bound 2.
    {"spmc_try", [](const mutations& mu) { return try_shape(4, mu); }},
    // 2 producers x 2 items, 2 consumers x quota 2, 2 cells.
    {"mpmc",
     [](const mutations& mu) {
       world w(2, 4);
       w.producer_ranges_ = {{1, 2}, {3, 4}};
       add<alg2_producer>(w, 1, 2, mu.m);
       add<alg2_producer>(w, 3, 2, mu.m);
       add<alg1_consumer>(w, 2, mu.c);
       add<alg1_consumer>(w, 2, mu.c);
       return w;
     }},
    // 2 shards of 2 cells: shard 0 wraps its ring twice (gaps and the
    // line-29 race are reachable), shard 1 runs short so consumers cross
    // shards and steal; 2 scheduler consumers x quota 3, batch 2, on
    // opposite start cursors so visits and steals both occur.
    {"shard",
     [](const mutations& mu) {
       world w(2, 6, 2);
       w.producer_ranges_ = {{1, 4}, {5, 6}};
       add<alg1_producer>(w, 1, 4, mu.p, 0);
       add<alg1_producer>(w, 5, 2, mu.p, 1);
       add<shard_consumer>(w, 0, 3, 2, mu.c);
       add<shard_consumer>(w, 1, 3, 2, mu.c);
       return w;
     }},
};

}  // namespace

world make_shape(const std::string& shape, const std::string& mutation) {
  const mutations* mu = nullptr;
  for (const auto& [name, m] : kMutations) {
    if (mutation == name) mu = &m;
  }
  if (mu == nullptr) throw std::invalid_argument("unknown mutation: " + mutation);
  for (const auto& [name, make] : kShapes) {
    if (shape == name) return make(*mu);
  }
  throw std::invalid_argument("unknown model: " + shape);
}

}  // namespace ffq::model
