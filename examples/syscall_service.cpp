// syscall_service — the paper's motivating application (§I, §V-F): an
// asynchronous system-call service for threads that cannot issue
// syscalls directly (in the paper: SGX enclave threads).
//
//   build/examples/syscall_service [app_threads] [os_threads] [calls]
//
// Thread counts are 1..64 and calls 1..2^58; anything else is a usage
// error (exit 2).
//
// Architecture (one group per app thread):
//
//   [app thread]  --request-->  SPMC submission queue  --> [executor]
//        ^                                                    |
//        +------ SPSC response queue (per executor) <---------+
//
// The demo runs the same workload through all four service variants and
// prints the comparison the paper's Fig. 7 makes.
#include <cstdint>
#include <cstdio>

#include "ffq/harness/parse.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/sgxsim/syscall_service.hpp"

using namespace ffq::sgxsim;

int main(int argc, char** argv) {
  using ffq::harness::parse_arg;
  const auto apps = parse_arg(argc, argv, 1, 2, 1, 64);
  const auto oss = parse_arg(argc, argv, 2, 2, 1, 64);
  // At most 2^64 / 64 calls per thread, so the total fits in 64 bits.
  const auto calls = parse_arg(argc, argv, 3, 20000, 1, UINT64_MAX / 64);
  if (argc > 4 || !apps || !oss || !calls) {
    std::fprintf(stderr, "usage: syscall_service [app_threads 1..64] "
                         "[os_threads 1..64] [calls 1..2^58]\n");
    return 2;
  }
  service_config cfg;
  cfg.app_threads = static_cast<int>(*apps);
  cfg.os_threads = static_cast<int>(*oss);
  cfg.calls_per_thread = *calls;

  std::printf("async syscall service: %d app thread(s), %d executor(s), "
              "%llu calls each\n\n",
              cfg.app_threads, cfg.os_threads,
              static_cast<unsigned long long>(cfg.calls_per_thread));

  std::printf("%-10s  %14s  %16s  %12s\n", "variant", "calls/s",
              "latency (cycles)", "transitions");
  for (auto v : {service_variant::native, service_variant::sgx_sync,
                 service_variant::sgx_mpmc, service_variant::sgx_ffq}) {
    cfg.variant = v;
    const auto r = run_syscall_service(cfg);
    std::printf("%-10s  %14.0f  %16.0f  %12llu\n", to_string(v),
                r.calls_per_sec, r.avg_latency_cycles,
                static_cast<unsigned long long>(r.enclave_transitions));
  }

  std::printf(
      "\nreading the table: the sync variant pays two enclave transitions "
      "per call; the async variants pay two per *thread lifetime* and "
      "synchronize through queues instead — and the FFQ queues beat the "
      "generic MPMC ones. That is the paper's Fig. 7 in miniature.\n");
  return 0;
}
