// green_syscalls — the paper's full §I architecture: m application-level
// threads (fibers) multiplexed on one OS thread, issuing asynchronous
// system calls through FFQ queues and *yielding to the scheduler* while
// the response is in flight, instead of spinning.
//
//   build/examples/green_syscalls [fibers] [calls_per_fiber]
//
// Fibers are 1..256 and calls 1..2^56; anything else is a usage error
// (exit 2).
//
// The demo runs the same total work twice:
//   (a) one fiber (sequential: each call waits out its full latency);
//   (b) m fibers (overlapped: up to m calls outstanding in the
//       submission queue — the paper's "implicit flow control"
//       population).
// With a simulated 20 us syscall, (b) finishes close to m× faster even
// though both use a single application OS thread.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "ffq/core/ffq.hpp"
#include "ffq/harness/parse.hpp"
#include "ffq/runtime/fiber.hpp"
#include "ffq/runtime/timing.hpp"

namespace rt = ffq::runtime;

namespace {

struct request {
  std::uint32_t fiber;
  std::uint64_t seq;
};

double run_service(int fibers, std::uint64_t calls_per_fiber,
                   double syscall_ns) {
  ffq::core::spmc_queue<request> submission(1 << 12);
  std::vector<std::unique_ptr<ffq::core::spsc_queue<std::uint64_t>>> responses;
  for (int f = 0; f < fibers; ++f) {
    responses.push_back(
        std::make_unique<ffq::core::spsc_queue<std::uint64_t>>(1 << 8));
  }

  std::thread executor([&] {
    request req;
    while (submission.dequeue(req)) {
      rt::spin_ns(syscall_ns);  // the "system call"
      responses[req.fiber]->enqueue(req.seq + 1);
    }
  });

  rt::stopwatch sw;
  rt::fiber_scheduler sched;
  for (int f = 0; f < fibers; ++f) {
    sched.spawn([&, f] {
      for (std::uint64_t s = 0; s < calls_per_fiber; ++s) {
        submission.enqueue(request{static_cast<std::uint32_t>(f), s});
        std::uint64_t resp;
        // Paper §I: "call the scheduler to indicate that another
        // application thread can execute".
        rt::fiber_scheduler::wait_until(
            [&] { return responses[f]->try_dequeue(resp); });
      }
    });
  }
  sched.run();
  const double secs = sw.seconds();
  submission.close();
  executor.join();
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  // At most 2^64 / 256 calls per fiber, so the total fits in 64 bits.
  const auto fiber_arg = ffq::harness::parse_arg(argc, argv, 1, 8, 1, 256);
  const auto call_arg =
      ffq::harness::parse_arg(argc, argv, 2, 2000, 1, UINT64_MAX / 256);
  if (argc > 3 || !fiber_arg || !call_arg) {
    std::fprintf(stderr, "usage: green_syscalls [fibers 1..256] "
                         "[calls_per_fiber 1..2^56]\n");
    return 2;
  }
  const int fibers = static_cast<int>(*fiber_arg);
  const std::uint64_t calls = *call_arg;
  constexpr double kSyscallNs = 20000.0;  // 20 us simulated syscall

  const std::uint64_t total = static_cast<std::uint64_t>(fibers) * calls;

  std::printf("total work: %llu syscalls of ~20 us each, one app OS thread\n\n",
              static_cast<unsigned long long>(total));

  // Calibrate the TSC (about 10 ms, once per process) before timing: its
  // first call is the executor's spin_ns, inside run (a)'s stopwatch.
  rt::tsc_ghz();

  const double seq = run_service(1, total, kSyscallNs);
  std::printf("1 fiber  (sequential): %.3f s  (%.0f calls/s)\n", seq,
              static_cast<double>(total) / seq);

  const double par = run_service(fibers, calls, kSyscallNs);
  std::printf("%d fibers (overlapped): %.3f s  (%.0f calls/s)\n", fibers, par,
              static_cast<double>(total) / par);

  std::printf("\nspeedup from yielding fibers: %.2fx ", seq / par);
  std::printf("(the executor pipeline bounds it; with one executor the\n"
              "overlap hides queue latency, not the syscall itself — add\n"
              "executors for more)\n");
  return 0;
}
