// bench_fig7_application — reproduces paper Fig. 7 (both panels):
//
// Left: "Throughput of the benchmark application with different number
// of available cores" — native vs SGX+MPMC vs SGX+FFQ; "In contrast to
// the MPMC variant, the binary with FFQ achieves a 5 times higher
// throughput and scales linearly."
//
// Right: "latency of the getppid system call with different queues" —
// single application thread; "The system call latency of FFQ is almost
// twice as low compared to the MPMC variant. The latency is higher than
// the [native] baseline because it involves a ping/pong of request and
// answer between two threads."
//
// SGX is simulated (DESIGN.md §5.1); the extra `sgx-sync` variant shows
// the traditional exit/trap/re-enter path the async design replaces.
#include <unistd.h>

#include <cstdio>

#include "ffq/harness/report.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/runtime/topology.hpp"
#include "ffq/sgxsim/syscall_service.hpp"
#include "ffq/telemetry/registry.hpp"

using namespace ffq;
using namespace ffq::harness;
using namespace ffq::sgxsim;

namespace {

/// The last of `runs` runs, with throughput and latency averaged.
service_result run_avg(const service_config& cfg, int runs) {
  service_result last{};
  double latency_sum = 0.0;
  const double calls_per_sec = sample(runs, [&] {
    last = run_syscall_service(cfg);
    latency_sum += last.avg_latency_cycles;
    return last.calls_per_sec;
  }).mean;
  last.calls_per_sec = calls_per_sec;
  last.avg_latency_cycles = latency_sum / runs;
  return last;
}

int run(const bench_cli& cli) {
  {
    // Context: in sandboxed environments (gVisor etc.) the raw syscall
    // costs microseconds and dominates every variant.
    ffq::runtime::stopwatch sw;
    for (int i = 0; i < 2000; ++i) {
      volatile long r = ::getppid();
      (void)r;
    }
    std::printf("raw getppid cost here: ~%.0f ns\n\n",
                sw.seconds() / 2000 * 1e9);
  }

  const auto topo = runtime::cpu_topology::discover();
  const int max_cores = static_cast<int>(
      std::min<std::size_t>(4, std::max<std::size_t>(1, topo.num_cores())));
  const std::uint64_t calls = static_cast<std::uint64_t>(
      std::max(2000.0, 30000 * cli.scale));
  const int runs = std::max(2, cli.runs / 2);

  // --- left panel: throughput vs cores ---------------------------------
  // Two regimes: the real syscall (whatever it costs in this
  // environment), and the paper's regime -- a ~100 ns syscall that makes
  // the queues the bottleneck (simulated; see DESIGN.md s5). The second
  // regime additionally scales producers with "cores" because the
  // MPMC-vs-FFQ gap of Fig. 7 comes from producer contention on the
  // shared submission queue.
  for (int regime = 0; regime < 2; ++regime) {
    const double sim_ns = regime == 0 ? 0.0 : 100.0;
    table left({"cores", "native", "sgx-sync", "sgx-mpmc", "sgx-ffq",
                "ffq/mpmc"});
    // The FFQ-vs-MPMC gap of Fig. 7 comes from several producers
    // contending on the one shared MPMC queue; sweep the queue-bound
    // regime up to 4 producer groups even when that oversubscribes this
    // machine (the paper's Skylake hosts them on real cores).
    const int sweep_max = regime == 0 ? max_cores : 4;
    for (int cores = 1; cores <= sweep_max; ++cores) {
      service_config cfg;
      cfg.simulated_syscall_ns = sim_ns;
      if (regime == 0) {
        // Total threads fit the core budget (paper methodology).
        cfg.app_threads = std::max(1, cores / 2);
        cfg.os_threads = std::max(1, cores - cfg.app_threads);
      } else {
        // Queue-bound regime: producers scale with "cores" to build up
        // contention on the submission path.
        cfg.app_threads = cores;
        cfg.os_threads = cores;
      }
      cfg.calls_per_thread =
          calls / static_cast<std::uint64_t>(cfg.app_threads);
      cfg.pin_threads = true;
      cfg.cpu_limit = cores;  // emulate "available cores"

      cfg.variant = service_variant::native;
      const auto native = run_avg(cfg, runs);
      cfg.variant = service_variant::sgx_sync;
      const auto sync = run_avg(cfg, runs);
      cfg.variant = service_variant::sgx_mpmc;
      const auto mpmc = run_avg(cfg, runs);
      cfg.variant = service_variant::sgx_ffq;
      const auto ffqv = run_avg(cfg, runs);

      left.add_row({std::to_string(cores), human_rate(native.calls_per_sec),
                    human_rate(sync.calls_per_sec),
                    human_rate(mpmc.calls_per_sec),
                    human_rate(ffqv.calls_per_sec),
                    fixed(ffqv.calls_per_sec / mpmc.calls_per_sec, 2)});
      std::printf("done: %d core(s) [%s]\n", cores,
                  regime == 0 ? "real syscall" : "queue-bound");
    }
    std::printf("\nthroughput (calls/s) -- %s:\n%s",
                regime == 0 ? "real getppid(2)"
                            : "queue-bound regime (simulated 100 ns syscall)",
                left.str().c_str());
  }

  // --- right panel: single-thread end-to-end latency --------------------
  // collect_telemetry turns on the per-thread latency histograms: the
  // paper reports the average; the percentile columns expose the tail
  // the average hides (DESIGN.md §8).
  telemetry::registry::instance().reset();
  table right({"variant", "avg latency (cycles)", "avg latency (ns)",
               "p50 (ns)", "p99 (ns)", "p999 (ns)"});
  for (auto v : {service_variant::native, service_variant::sgx_sync,
                 service_variant::sgx_mpmc, service_variant::sgx_ffq}) {
    service_config cfg;
    cfg.variant = v;
    cfg.app_threads = 1;
    cfg.os_threads = 1;
    cfg.calls_per_thread = calls;
    cfg.collect_telemetry = true;
    const auto r = run_avg(cfg, runs);
    const auto e2e = telemetry::registry::instance()
                         .recorder(std::string("syscall.") + to_string(v) +
                                   ".e2e_ns")
                         .merge()
                         .summary();
    right.add_row({to_string(v), fixed(r.avg_latency_cycles, 0),
                   fixed(ffq::runtime::tsc_to_ns(
                             static_cast<std::uint64_t>(r.avg_latency_cycles)),
                         0),
                   std::to_string(e2e.p50), std::to_string(e2e.p99),
                   std::to_string(e2e.p999)});
  }
  std::printf("\nlatency (single app thread):");
  return finish_report(cli, right, "fig7_application_latency",
      "\npaper reference: FFQ ~5x the external-MPMC throughput, scaling "
      "~linearly with cores; latency native < FFQ < MPMC (~2x FFQ). "
      "Caveat: in sandboxed containers the raw syscall cost dominates "
      "and compresses the queue-induced gap; orderings still hold.\n");
}

}  // namespace

int main(int argc, char** argv) {
  return run_bench(
      argc, argv,
      "Figure 7 — application benchmark: async syscalls for enclaves",
      "getppid(2) service; native vs simulated-SGX variants (sync ocall, "
      "external MPMC queue, FFQ).",
      run);
}
