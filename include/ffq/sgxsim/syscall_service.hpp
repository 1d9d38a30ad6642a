// syscall_service.hpp — the paper's application benchmark (§V-F, Fig. 7):
// asynchronous system calls for enclave threads.
//
// "The benchmark spawns threads that execute getppid(2) in a loop. ...
// The application records throughput (system calls per second) and
// average latency (CPU cycles). The benchmark application is built in
// three variants: native version, SGX enclave with an external MPMC
// queue, and SGX enclave with FFQ."
//
// Variants:
//   native    — threads call getppid() directly (the paper's baseline);
//   sgx_sync  — traditional path: exit the enclave, trap, re-enter
//               (extension beyond the paper's figure; quantifies why the
//               async design exists);
//   sgx_ffq   — per-app-thread FFQ SPMC submission queue + FFQ SPSC
//               response queues, OS-side executor threads consume;
//   sgx_mpmc  — the same architecture over generic bounded MPMC
//               (Vyukov) queues, the paper's "external MPMC queue".
//
// Threads called "app" live inside the simulated enclave (and pay the
// inside-op surcharge); "os" threads execute the real getppid(2) outside.
#pragma once

#include <cstdint>
#include <string>

#include "ffq/sgxsim/enclave.hpp"

namespace ffq::sgxsim {

enum class service_variant { native, sgx_sync, sgx_ffq, sgx_mpmc };

const char* to_string(service_variant v) noexcept;

struct syscall_request {
  std::uint32_t app_thread = 0;
  std::uint32_t number = 0;     ///< syscall number (getppid in the bench)
  std::uint64_t issue_tsc = 0;  ///< for end-to-end latency
};

struct syscall_response {
  std::uint64_t result = 0;
  std::uint64_t issue_tsc = 0;
};

struct service_config {
  service_variant variant = service_variant::sgx_ffq;
  int app_threads = 1;          ///< producers ("inside the enclave")
  int os_threads = 1;           ///< syscall executors (consumers)
  std::uint64_t calls_per_thread = 100000;
  std::size_t queue_capacity = 1 << 12;
  enclave_cost_model cost{};
  bool pin_threads = false;
  /// When pinning, restrict threads to the first N online CPUs
  /// (0 = use all). This is how the Fig. 7 bench limits "available
  /// cores" on a machine that cannot hot-unplug them.
  int cpu_limit = 0;
  /// 0 = execute the real getppid(2). >0 = replace it with a calibrated
  /// spin of that many nanoseconds. The paper picked getppid *because*
  /// it is nearly free (~100 ns), keeping the queues the bottleneck; in
  /// sandboxed environments where a trapped syscall costs ~10 us, the
  /// simulated syscall restores that queue-bound regime (DESIGN.md §5).
  double simulated_syscall_ns = 0.0;
  /// Record per-thread latency histograms into the process-wide
  /// telemetry registry (recorders "syscall.<variant>.e2e_ns" for all
  /// variants, plus ".enqueue_ns"/".dequeue_ns" for the queue-based
  /// ones) and fold queue event counters into "queue.<variant>.*"
  /// totals. The paper reports only the latency *average*; the
  /// histograms expose the tail (DESIGN.md §8).
  bool collect_telemetry = false;
  /// When non-empty, write an "ffq.trace.v1" Chrome/Perfetto trace of
  /// the run to this path after the service finishes. Worker threads
  /// are named ("app-N", "os-N") so tracks read meaningfully in the
  /// viewer. In FFQ_TRACE=OFF builds the queues emit no events, so the
  /// file carries thread names only.
  std::string trace_path;
};

struct service_result {
  double calls_per_sec = 0.0;
  double avg_latency_cycles = 0.0;
  std::uint64_t total_calls = 0;
  std::uint64_t enclave_transitions = 0;
};

/// Run one benchmark of the configured variant. Blocking; spawns
/// app_threads (+ os_threads for the queue variants). Throws
/// std::invalid_argument, before any thread starts, when app_threads
/// < 1, calls_per_thread == 0 or queue_capacity is not a power of two
/// >= 2. Too few os_threads are clamped up: sgx_ffq runs at least one
/// executor per app thread, sgx_mpmc at least one.
service_result run_syscall_service(const service_config& cfg);

}  // namespace ffq::sgxsim
