#include "ffq/sgxsim/syscall_service.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ffq/baselines/vyukov_mpmc.hpp"
#include "ffq/core/ffq.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/runtime/backoff.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/runtime/topology.hpp"
#include "ffq/runtime/affinity.hpp"
#include "ffq/telemetry/registry.hpp"
#include "ffq/trace/export.hpp"
#include "ffq/trace/registry.hpp"

namespace ffq::sgxsim {

const char* to_string(service_variant v) noexcept {
  switch (v) {
    case service_variant::native:
      return "native";
    case service_variant::sgx_sync:
      return "sgx-sync";
    case service_variant::sgx_ffq:
      return "sgx-ffq";
    case service_variant::sgx_mpmc:
      return "sgx-mpmc";
  }
  return "?";
}

namespace {

namespace rt = ffq::runtime;

/// The actual system call under test. getppid(2) "executes fast and
/// involves no costly system call argument copying, making system call
/// queues a bottleneck". When cfg.simulated_syscall_ns > 0, a calibrated
/// spin stands in for it (see the header comment).
inline std::uint64_t do_syscall(const service_config& cfg) {
  if (cfg.simulated_syscall_ns > 0.0) {
    rt::spin_ns(cfg.simulated_syscall_ns);
    return 42;
  }
  return static_cast<std::uint64_t>(::getppid());
}

namespace tel = ffq::telemetry;
using harness::worker_clock;

/// What every runner shares: placement, the latency recorders (all null
/// when cfg.collect_telemetry is off, so the hot paths pay one
/// predictable branch per sample and nothing else), and the two totals
/// the result is computed from.
struct service_run {
  const service_config& cfg;
  const rt::cpu_topology topo = rt::cpu_topology::discover();
  tel::latency_recorder* enqueue = nullptr;
  tel::latency_recorder* dequeue = nullptr;
  tel::latency_recorder* e2e = nullptr;
  double tsc_ghz = 1.0;
  std::atomic<std::uint64_t> latency_sum{0};
  std::atomic<std::uint64_t> transitions{0};

  service_run(const service_config& c, bool queued) : cfg(c) {
    if (!cfg.collect_telemetry) return;
    auto& reg = tel::registry::instance();
    const std::string base = std::string("syscall.") + to_string(cfg.variant);
    e2e = &reg.recorder(base + ".e2e_ns");
    if (queued) {
      enqueue = &reg.recorder(base + ".enqueue_ns");
      dequeue = &reg.recorder(base + ".dequeue_ns");
    }
    tsc_ghz = rt::tsc_ghz();
  }

  /// A fresh single-writer shard of `rec`, or null when not recording.
  static tel::log_histogram* shard(tel::latency_recorder* rec) {
    return rec != nullptr ? rec->new_shard() : nullptr;
  }

  void record_ns(tel::log_histogram* shard,
                 std::uint64_t cycles) const noexcept {
    if (shard != nullptr) {
      shard->record(
          static_cast<std::uint64_t>(static_cast<double>(cycles) / tsc_ghz));
    }
  }

  void pin(int idx) const {
    if (!cfg.pin_threads || topo.cpus().empty()) return;
    const auto& cpus = topo.cpus();
    std::size_t usable = cpus.size();
    if (cfg.cpu_limit > 0) {
      usable = std::min(usable, static_cast<std::size_t>(cfg.cpu_limit));
    }
    rt::pin_self_to(cpus[static_cast<std::size_t>(idx) % usable].os_id);
  }

  /// An app thread's measured section: cfg.calls_per_thread calls of
  /// `call()`, which returns the TSC its request was issued at, each
  /// timed end to end into the e2e histogram and latency_sum; then
  /// `finish()`, still inside the thread's window.
  template <typename Call, typename Finish>
  void timed_calls(worker_clock& clock, Call&& call, Finish&& finish) {
    auto* e2e_shard = shard(e2e);
    clock.start();
    std::uint64_t local_lat = 0;
    for (std::uint64_t i = 0; i < cfg.calls_per_thread; ++i) {
      const std::uint64_t issued = call();
      const std::uint64_t d = rt::rdtsc() - issued;
      local_lat += d;
      record_ns(e2e_shard, d);
    }
    finish();
    latency_sum.fetch_add(local_lat, std::memory_order_relaxed);
    clock.stop();
  }

  /// Run `threads` workers of `body`; every app thread's calls were
  /// summed into latency_sum.
  template <typename Body>
  service_result measure(int threads, Body&& body) {
    const double secs = harness::run_workers(static_cast<std::size_t>(threads),
                                             std::forward<Body>(body));
    service_result res;
    res.total_calls =
        cfg.calls_per_thread * static_cast<std::uint64_t>(cfg.app_threads);
    const auto calls = static_cast<double>(res.total_calls);
    res.calls_per_sec = calls / secs;
    res.avg_latency_cycles = static_cast<double>(latency_sum.load()) / calls;
    res.enclave_transitions = transitions.load();
    return res;
  }
};

// --------------------------------------------------------------------------
// native: direct calls.
// --------------------------------------------------------------------------
service_result run_native(const service_config& cfg) {
  service_run run(cfg, /*queued=*/false);
  return run.measure(cfg.app_threads, [&](std::size_t t, worker_clock& clock) {
    run.pin(static_cast<int>(t));
    run.timed_calls(
        clock,
        [&] {
          const std::uint64_t t0 = rt::rdtsc();
          volatile std::uint64_t r = do_syscall(cfg);
          (void)r;
          return t0;
        },
        [] {});
  });
}

// --------------------------------------------------------------------------
// sgx_sync: the traditional exit/trap/re-enter path.
// --------------------------------------------------------------------------
service_result run_sgx_sync(const service_config& cfg) {
  service_run run(cfg, /*queued=*/false);
  return run.measure(cfg.app_threads, [&](std::size_t t, worker_clock& clock) {
    run.pin(static_cast<int>(t));
    enclave_thread enclave(cfg.cost, &run.transitions);
    enclave.eenter();
    run.timed_calls(
        clock,
        [&] {
          const std::uint64_t t0 = rt::rdtsc();
          enclave.charge_inside_op();
          volatile std::uint64_t r =
              enclave.ocall([&] { return do_syscall(cfg); });
          (void)r;
          return t0;
        },
        [] {});
    enclave.eexit();
  });
}

// --------------------------------------------------------------------------
// sgx_ffq: per-app-thread FFQ SPMC submission + FFQ SPSC response.
// --------------------------------------------------------------------------
service_result run_sgx_ffq(const service_config& cfg) {
  using submission_q = ffq::core::spmc_queue<syscall_request>;
  using response_q = ffq::core::spsc_queue<syscall_response>;

  const int apps = cfg.app_threads;
  // Every submission queue needs at least one executor.
  const int oss = std::max(cfg.os_threads, apps);

  // "an array with SPSC response queues for each of the consumers
  // assigned to the producer" (§V-A): one response queue per
  // (app thread, executor) pair, so each stays single-producer.
  std::vector<std::unique_ptr<submission_q>> submissions;
  std::vector<std::vector<std::unique_ptr<response_q>>> responses(apps);
  for (int a = 0; a < apps; ++a) {
    submissions.push_back(std::make_unique<submission_q>(cfg.queue_capacity));
  }
  for (int j = 0; j < oss; ++j) {
    responses[j % apps].push_back(
        std::make_unique<response_q>(cfg.queue_capacity));
  }

  service_run run(cfg, /*queued=*/true);
  // Workers 0..oss-1 are the OS executor threads, the rest app threads.
  const auto res = run.measure(oss + apps, [&](std::size_t w,
                                               worker_clock& clock) {
    const int idx = static_cast<int>(w);
    if (idx < oss) {
      // OS executor thread j serves submission queue j % apps; with more
      // OS threads than apps, queues get multiple consumers — the SPMC
      // fan-out the design exists for.
      const int j = idx;
      run.pin(apps + j);
      if (!cfg.trace_path.empty()) {
        ffq::trace::set_thread_name("os-" + std::to_string(j));
      }
      auto& sub = *submissions[static_cast<std::size_t>(j % apps)];
      auto& resp = *responses[static_cast<std::size_t>(j % apps)]
                             [static_cast<std::size_t>(j / apps)];
      auto* deq = service_run::shard(run.dequeue);
      clock.start();
      syscall_request req;
      for (;;) {
        // The dequeue sample includes the blocking wait for work — that
        // is the latency an executor actually pays per request.
        const std::uint64_t t0 = deq != nullptr ? rt::rdtsc() : 0;
        if (!sub.dequeue(req)) break;
        if (deq != nullptr) run.record_ns(deq, rt::rdtsc() - t0);
        syscall_response r;
        r.result = do_syscall(cfg);
        r.issue_tsc = req.issue_tsc;
        resp.enqueue(r);
      }
      clock.stop();
      return;
    }
    // App threads ("inside the enclave"): one outstanding call at a time
    // — the paper's flow-control assumption.
    const int a = idx - oss;
    run.pin(a);
    if (!cfg.trace_path.empty()) {
      ffq::trace::set_thread_name("app-" + std::to_string(a));
    }
    enclave_thread enclave(cfg.cost, &run.transitions);
    enclave.eenter();
    auto* enq = service_run::shard(run.enqueue);
    auto& sub = *submissions[a];
    auto& my_responses = responses[a];
    std::size_t rr = 0;  // round-robin over this thread's response queues
    auto call = [&] {
      enclave.charge_inside_op();
      syscall_request req;
      req.app_thread = static_cast<std::uint32_t>(a);
      req.issue_tsc = rt::rdtsc();
      sub.enqueue(req);
      if (enq != nullptr) run.record_ns(enq, rt::rdtsc() - req.issue_tsc);
      // "loop through the response queues for dequeuing values".
      syscall_response r;
      rt::yielding_backoff bo;
      for (;;) {
        if (my_responses[rr]->try_dequeue(r)) break;
        rr = (rr + 1) % my_responses.size();
        if (rr == 0) bo.pause();
      }
      return r.issue_tsc;
    };
    run.timed_calls(clock, call, [&] { sub.close(); });
    enclave.eexit();
  });

  if (cfg.collect_telemetry) {
    // Fold queue event counters into registry totals before the queues
    // die with this scope (no-op in FFQ_TELEMETRY=OFF builds, where the
    // default policy's counter block is empty).
    auto& reg = tel::registry::instance();
    for (const auto& s : submissions) {
      reg.accumulate_queue("queue.sgx-ffq.submission", s->telemetry());
    }
    for (const auto& per_app : responses) {
      for (const auto& r : per_app) {
        reg.accumulate_queue("queue.sgx-ffq.response", r->telemetry());
      }
    }
  }
  return res;
}

// --------------------------------------------------------------------------
// sgx_mpmc: one global generic MPMC queue for submissions (the paper's
// "external MPMC queue"), per-app-thread MPMC response queues.
// --------------------------------------------------------------------------
service_result run_sgx_mpmc(const service_config& cfg) {
  using submission_q = ffq::baselines::vyukov_mpmc_queue<syscall_request>;
  using response_q = ffq::baselines::vyukov_mpmc_queue<syscall_response>;

  const int apps = cfg.app_threads;
  const int oss = std::max(cfg.os_threads, 1);

  submission_q submission(cfg.queue_capacity);
  std::vector<std::unique_ptr<response_q>> responses;
  for (int a = 0; a < apps; ++a) {
    responses.push_back(std::make_unique<response_q>(cfg.queue_capacity));
  }

  service_run run(cfg, /*queued=*/true);
  std::atomic<int> producers_done{0};
  // Workers 0..oss-1 are the OS executor threads, the rest app threads.
  return run.measure(oss + apps, [&](std::size_t w, worker_clock& clock) {
    const int idx = static_cast<int>(w);
    if (idx < oss) {
      run.pin(apps + idx);
      auto* deq = service_run::shard(run.dequeue);
      clock.start();
      syscall_request req;
      rt::yielding_backoff bo;
      auto serve = [&] {
        syscall_response r;
        r.result = do_syscall(cfg);
        r.issue_tsc = req.issue_tsc;
        responses[req.app_thread]->enqueue(r);
      };
      std::uint64_t wait_start = deq != nullptr ? rt::rdtsc() : 0;
      for (;;) {
        if (submission.try_dequeue(req)) {
          bo.reset();
          if (deq != nullptr) run.record_ns(deq, rt::rdtsc() - wait_start);
          serve();
          if (deq != nullptr) wait_start = rt::rdtsc();
        } else if (producers_done.load(std::memory_order_acquire) == apps) {
          if (!submission.try_dequeue(req)) break;
          serve();
        } else {
          bo.pause();
        }
      }
      clock.stop();
      return;
    }
    const int a = idx - oss;
    run.pin(a);
    enclave_thread enclave(cfg.cost, &run.transitions);
    enclave.eenter();
    auto* enq = service_run::shard(run.enqueue);
    auto& resp = *responses[a];
    auto call = [&] {
      enclave.charge_inside_op();
      syscall_request req;
      req.app_thread = static_cast<std::uint32_t>(a);
      req.issue_tsc = rt::rdtsc();
      submission.enqueue(req);
      if (enq != nullptr) run.record_ns(enq, rt::rdtsc() - req.issue_tsc);
      syscall_response r;
      rt::yielding_backoff bo;
      while (!resp.try_dequeue(r)) bo.pause();
      return r.issue_tsc;
    };
    run.timed_calls(clock, call, [&] {
      producers_done.fetch_add(1, std::memory_order_release);
    });
    enclave.eexit();
  });
}

}  // namespace

service_result run_syscall_service(const service_config& cfg) {
  if (cfg.app_threads < 1) {
    throw std::invalid_argument("syscall service: app_threads must be >= 1");
  }
  if (cfg.calls_per_thread == 0) {
    throw std::invalid_argument(
        "syscall service: calls_per_thread must be >= 1");
  }
  const std::size_t cap = cfg.queue_capacity;
  if (cap < 2 || (cap & (cap - 1)) != 0) {
    throw std::invalid_argument(
        "syscall service: queue_capacity must be a power of two >= 2");
  }
  service_result res{};
  switch (cfg.variant) {
    case service_variant::native:
      res = run_native(cfg);
      break;
    case service_variant::sgx_sync:
      res = run_sgx_sync(cfg);
      break;
    case service_variant::sgx_ffq:
      res = run_sgx_ffq(cfg);
      break;
    case service_variant::sgx_mpmc:
      res = run_sgx_mpmc(cfg);
      break;
  }
  if (!cfg.trace_path.empty()) {
    ffq::trace::export_options opts;
    tel::metrics_snapshot snap;
    if (cfg.collect_telemetry) {
      snap = tel::registry::instance().snapshot();
      if (!snap.empty()) opts.metrics = &snap;
    }
    ffq::trace::write_chrome_trace(cfg.trace_path, opts);
  }
  return res;
}

}  // namespace ffq::sgxsim
