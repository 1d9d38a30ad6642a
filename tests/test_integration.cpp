// Cross-module integration tests: exercise the public API the way the
// paper's application does — several subsystems composed end-to-end.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "ffq/core/ffq.hpp"
#include "ffq/core/waitable.hpp"
#include "ffq/harness/adapters.hpp"
#include "ffq/harness/pairwise.hpp"
#include "ffq/runtime/affinity.hpp"
#include "ffq/runtime/topology.hpp"

// ---------------------------------------------------------------------------
// The paper's full architecture in miniature: N requester threads submit
// work through per-requester SPMC queues; a pool of workers serves them;
// replies return through per-(requester, worker) waitable SPSC queues.
// Everything closed and drained cleanly at the end.
// ---------------------------------------------------------------------------
TEST(Integration, RequestReplyServiceEndToEnd) {
  constexpr int kRequesters = 2;
  constexpr int kWorkersPerRequester = 2;
  constexpr std::uint64_t kRequests = 20000;

  struct request {
    std::uint64_t id;
  };
  struct reply {
    std::uint64_t id;
    std::uint64_t result;
  };

  using submit_q = ffq::core::spmc_queue<request>;
  using reply_q = ffq::core::waitable_spsc_queue<reply>;

  std::vector<std::unique_ptr<submit_q>> submits;
  std::vector<std::vector<std::unique_ptr<reply_q>>> replies(kRequesters);
  for (int r = 0; r < kRequesters; ++r) {
    submits.push_back(std::make_unique<submit_q>(1 << 10));
    for (int w = 0; w < kWorkersPerRequester; ++w) {
      replies[r].push_back(std::make_unique<reply_q>(1 << 10));
    }
  }

  std::vector<std::thread> threads;
  // Workers.
  for (int r = 0; r < kRequesters; ++r) {
    for (int w = 0; w < kWorkersPerRequester; ++w) {
      threads.emplace_back([&, r, w] {
        request req;
        while (submits[r]->dequeue(req)) {
          replies[r][w]->enqueue(reply{req.id, req.id * 2 + 1});
        }
        replies[r][w]->close();  // propagate end-of-stream downstream
      });
    }
  }
  // Requesters.
  std::atomic<std::uint64_t> total_replies{0};
  std::atomic<bool> ok{true};
  for (int r = 0; r < kRequesters; ++r) {
    threads.emplace_back([&, r] {
      // Submit everything (flow control via queue capacity >> in-flight
      // is guaranteed by the per-queue window below).
      std::uint64_t submitted = 0, received = 0;
      std::size_t rr = 0;
      reply rep;
      while (received < kRequests) {
        while (submitted < kRequests && submitted - received < 256) {
          submits[r]->enqueue(request{submitted + 1});
          ++submitted;
        }
        if (replies[r][rr]->try_dequeue(rep)) {
          if (rep.result != rep.id * 2 + 1) ok.store(false);
          ++received;
        } else {
          rr = (rr + 1) % replies[r].size();
        }
      }
      submits[r]->close();
      total_replies.fetch_add(received);
      // Workers close the reply queues; drain any stragglers (there are
      // none, but the protocol must terminate regardless).
      for (auto& q : replies[r]) {
        while (q->dequeue(rep)) ok.store(false);  // nothing may remain
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_TRUE(ok.load());
  EXPECT_EQ(total_replies.load(), kRequesters * kRequests);
}

// ---------------------------------------------------------------------------
// Every harness adapter drives its queue through the pairwise benchmark
// (the Fig. 8 machinery) without loss: the adapters are part of the
// public surface and must agree on semantics.
// ---------------------------------------------------------------------------
template <typename Adapter>
void adapter_roundtrip() {
  ffq::harness::pairwise_config cfg;
  cfg.threads = 2;
  cfg.total_pairs = 4000;
  cfg.think_min_ns = 0;
  cfg.params.capacity = 1 << 8;
  cfg.params.ring_size = 1 << 6;
  const double ops = ffq::harness::run_pairwise_once<Adapter>(cfg);
  EXPECT_GT(ops, 0.0);
}

TEST(Integration, AdapterFfqMpmc) {
  adapter_roundtrip<
      ffq::harness::ffq_adapter<ffq::core::mpmc_queue<std::uint64_t>>>();
}
TEST(Integration, AdapterFfqMpmcCompact) {
  adapter_roundtrip<ffq::harness::ffq_adapter<
      ffq::core::mpmc_queue<std::uint64_t, ffq::core::layout_compact>>>();
}
TEST(Integration, AdapterMs) { adapter_roundtrip<ffq::harness::ms_adapter<>>(); }
TEST(Integration, AdapterCc) { adapter_roundtrip<ffq::harness::cc_adapter>(); }
TEST(Integration, AdapterLcrq) { adapter_roundtrip<ffq::harness::lcrq_adapter>(); }
TEST(Integration, AdapterWf) { adapter_roundtrip<ffq::harness::wf_adapter>(); }
TEST(Integration, AdapterVyukov) { adapter_roundtrip<ffq::harness::vyukov_adapter>(); }
TEST(Integration, AdapterHtm) { adapter_roundtrip<ffq::harness::htm_adapter>(); }

// ---------------------------------------------------------------------------
// Affinity plans applied to real queue traffic: pin a producer/consumer
// pair per the plan and verify the stream still conserves everything.
// ---------------------------------------------------------------------------
TEST(Integration, PinnedStreamsUnderEveryPolicy) {
  using ffq::runtime::placement_policy;
  const auto topo = ffq::runtime::cpu_topology::discover();
  for (auto policy : {placement_policy::same_ht, placement_policy::sibling_ht,
                      placement_policy::other_core, placement_policy::none}) {
    const auto plan = ffq::runtime::plan_placement(topo, policy, 1);
    ffq::core::spmc_queue<std::uint64_t> q(1 << 8);
    std::uint64_t sum = 0;
    std::thread consumer([&] {
      if (!plan[0].consumer_cpus.empty()) {
        ffq::runtime::pin_self_to(plan[0].consumer_cpus);
      }
      std::uint64_t v;
      while (q.dequeue(v)) sum += v;
    });
    if (!plan[0].producer_cpus.empty()) {
      ffq::runtime::pin_self_to(plan[0].producer_cpus);
    }
    constexpr std::uint64_t kItems = 20000;
    for (std::uint64_t i = 1; i <= kItems; ++i) q.enqueue(i);
    q.close();
    consumer.join();
    ffq::runtime::unpin_self();
    EXPECT_EQ(sum, kItems * (kItems + 1) / 2)
        << ffq::runtime::to_string(policy);
  }
}
