// rpc.cpp — rpc_low / rpc_high: the paper's request/response service
// (§V-A, and the asynchronous system calls of §V-F) driven open loop.
//
// One client sends requests on a fixed schedule into one FFQ^s submission
// ring (core::spmc_queue) and polls the replies between sends. Two
// executors dequeue, spin a calibrated 100 ns "system call", and reply
// through their own core::spsc_queue. A request's latency runs from the
// time it was due to the client's dequeue of its reply, so a stalled
// client or executor is charged to every request it delays.
#include <thread>

#include "bench.hpp"
#include "ffq/core/spmc.hpp"
#include "ffq/core/spsc.hpp"

namespace ffqbench {
namespace {

constexpr std::size_t kRingCells = 4096;
constexpr std::size_t kExecutors = 2;
/// Admission cap on requests in flight (sent, reply not yet received). It
/// is below every ring's capacity, so no ring can fill and the client never
/// calls an enqueue that blocks: a full FFQ^s ring breaks the paper's
/// flow-control assumption, and enqueue then announces a whole sweep of
/// gaps and waits. At the cap the client sends nothing and keeps polling
/// replies; a due request is charged its wait as latency.
constexpr std::uint64_t kInflightCap = 3072;
/// A request still not sent this long after it was due is refused and
/// counted. Stalls of the executors' CPUs from 10 ms to a few hundred ms
/// occur on a shared VM; refusing at the cap itself turned them into
/// refusals in four of ten 1M req/s runs.
constexpr double kAdmitTimeoutNs = 1e9;
/// The "system call" an executor performs per request: the paper's
/// getppid regime, and sgxsim's simulated system-call cost.
constexpr double kSyscallNs = 100;
constexpr std::size_t kArgTable = std::size_t{1} << 16;
/// Injected executor stall for the burst self-test: longer than the
/// admission timeout, so requests due during it are refused.
constexpr auto kStall = std::chrono::milliseconds(1500);
/// Traced phases keep full span stamps for at most this many requests.
constexpr std::uint64_t kMaxSpans = std::uint64_t{1} << 20;
/// CPU plan: client, executor 0, executor 1. The main thread blocks in join.
const std::vector<int> kPlan = {0, 1, 2};

struct request {
  std::uint64_t id = 0;
  std::uint64_t due = 0;     ///< TSC at which the request was due
  std::uint64_t arg = 0;     ///< seeded payload
  std::uint64_t result = 0;  ///< executor's answer
};

std::uint64_t answer(std::uint64_t arg) {
  return arg * 0x9e3779b97f4a7c15ull + 1;
}

using submit_ring = ffq::core::spmc_queue<request>;
using reply_ring = ffq::core::spsc_queue<request>;

/// The queues of one set-up, every cell touched once through the public
/// API before the start line.
struct rings {
  submit_ring submit{kRingCells};
  reply_ring reply[kExecutors] = {reply_ring{kRingCells},
                                  reply_ring{kRingCells}};

  rings() {
    request r;
    for (std::size_t i = 0; i < kRingCells; ++i) submit.enqueue(r);
    for (std::size_t i = 0; i < kRingCells; ++i) submit.dequeue(r);
    for (reply_ring& q : reply) {
      for (std::size_t i = 0; i < kRingCells; ++i) q.enqueue(r);
      for (std::size_t i = 0; i < kRingCells; ++i) q.try_dequeue(r);
    }
  }
};

/// Span stamps of a sampled request, split by the thread that writes them
/// (each slot has exactly one writer; all are read after join).
struct client_span {
  std::uint64_t due = 0, enq_start = 0, enq_return = 0, receive = 0;
};
struct executor_span {
  std::uint64_t deq_return = 0, reply_start = 0, reply_return = 0;
};

struct alignas(64) executor_stats {
  std::uint64_t begin = 0, end = 0, in_dequeue = 0;
};

/// Everything one phase records; allocated before set-up.
struct rpc_phase {
  rpc_phase(const config& c, const tsc_clock& k, double r, bool t, double s)
      : cfg(c), clk(k), rate(r), traced(t), seconds(s),
        args(seeded_table(c.seed, kArgTable, 0, 0xffffffffu)) {
    interval = clk.ghz * 1e9 / rate;
    total = static_cast<std::uint64_t>((kWarmupSeconds + seconds) * rate);
    while (traced && total / stride > kMaxSpans) stride *= 2;
    if (traced) {
      cspans.resize(total / stride + 1);
      xspans.resize(total / stride + 1);
    }
  }

  bool sampled(std::uint64_t id) const { return id % stride == 0; }

  const config& cfg;
  const tsc_clock& clk;
  double rate;
  bool traced;
  double seconds;
  std::vector<std::uint32_t> args;
  double interval = 0;     ///< cycles between due times
  std::uint64_t total = 0;  ///< requests due in the phase
  std::uint64_t stride = 1;

  // Client-owned.
  windowed e2e;  ///< replies by arrival window, latency by due window
  tally checks;
  std::uint64_t polls = 0, hits = 0, inflight_max = 0;
  std::vector<client_span> cspans;
  // Executor-owned.
  executor_stats xstats[kExecutors];
  std::vector<executor_span> xspans;
};

template <bool Traced>
void client(rpc_phase& ph, rings& q, start_line& line) {
  if (!line.arrive()) return;
  const tsc_clock& clk = ph.clk;
  const std::uint64_t start = line.start_tsc();
  const std::uint64_t from = start + clk.cycles(kWarmupSeconds * 1e9);
  const std::uint64_t to = from + clk.cycles(ph.seconds * 1e9);
  ph.e2e.begin(from, to);
  const std::uint64_t admit_timeout = clk.cycles(kAdmitTimeoutNs);
  bool drop = ph.cfg.inject == "drop";

  std::uint64_t next = 0, inflight = 0, sent = 0, sent_sum = 0;
  std::uint64_t received = 0, received_sum = 0;
  std::int64_t last[kExecutors];
  bool open[kExecutors];
  for (std::size_t e = 0; e < kExecutors; ++e) {
    last[e] = -1;
    open[e] = true;
  }
  tally& t = ph.checks;

  auto receive = [&](std::size_t e, const request& r, std::uint64_t now) {
    --inflight;
    if (drop && r.id >= ph.total / 2) {  // test-only: lose this reply
      drop = false;
      return;
    }
    ++received;
    received_sum += r.id;
    if (r.id >= next || r.arg != ph.args[r.id % kArgTable] ||
        r.result != answer(r.arg)) {
      ++t.corrupted;
      return;
    }
    if (static_cast<std::int64_t>(r.id) <= last[e]) ++t.disorder;
    last[e] = static_cast<std::int64_t>(r.id);
    // Throughput by when replies arrive; latency by when requests were due.
    if (const std::size_t w = ph.e2e.index(now); w < kWindows) {
      ph.e2e.count(w, 1);
    }
    if (const std::size_t w = ph.e2e.index(r.due); w < kWindows) {
      ph.e2e.latency(w, now - r.due);
    }
    if (Traced && ph.sampled(r.id)) ph.cspans[r.id / ph.stride].receive = now;
  };

  for (;;) {
    // Poll every reply ring once between sends.
    bool any_open = false;
    for (std::size_t e = 0; e < kExecutors; ++e) {
      if (!open[e]) continue;
      any_open = true;
      request r;
      if (Traced) ++ph.polls;
      if (q.reply[e].try_dequeue(r)) {
        if (Traced) ++ph.hits;
        receive(e, r, rdtsc());
      } else if (q.reply[e].closed()) {
        // Closed after the executor's last reply: drain, then stop polling.
        while (q.reply[e].try_dequeue(r)) receive(e, r, rdtsc());
        open[e] = false;
      }
    }
    if (next == ph.total) {
      if (!any_open) break;
      continue;
    }
    const std::uint64_t due =
        start + static_cast<std::uint64_t>(static_cast<double>(next) *
                                           ph.interval);
    const std::uint64_t now = rdtsc();
    if (now < due) continue;
    if (now - due > admit_timeout) {
      ++t.refused;
    } else if (inflight >= kInflightCap) {
      continue;  // at the cap: poll replies, never block in enqueue
    } else {
      request r{next, due, ph.args[next % kArgTable], 0};
      if (Traced && ph.sampled(next)) {
        client_span& s = ph.cspans[next / ph.stride];
        s.due = due;
        s.enq_start = now;
        q.submit.enqueue(r);
        s.enq_return = rdtsc();
      } else {
        q.submit.enqueue(r);
      }
      ++inflight;
      ++sent;
      sent_sum += next;
      if (Traced && inflight > ph.inflight_max) ph.inflight_max = inflight;
    }
    if (++next == ph.total) q.submit.close();
  }

  t.attempted = ph.total;
  if (received < sent) t.lost += sent - received;
  if (received > sent) t.disorder += received - sent;
  if (received == sent && received_sum != sent_sum) ++t.corrupted;
}

template <bool Traced>
void executor(rpc_phase& ph, rings& q, std::size_t e, start_line& line) {
  if (!line.arrive()) return;
  const std::uint64_t syscall = ph.clk.cycles(kSyscallNs);
  // Test-only: both executors stall once, half-way through the requests,
  // as if descheduled, while the client keeps sending.
  bool stall = ph.cfg.inject == "stall";
  executor_stats& st = ph.xstats[e];
  if (Traced) st.begin = rdtsc();
  request r;
  for (;;) {
    const std::uint64_t t0 = Traced ? rdtsc() : 0;
    if (!q.submit.dequeue(r)) break;
    const std::uint64_t t1 = rdtsc();
    if (Traced) st.in_dequeue += t1 - t0;
    if (stall && r.id >= ph.total / 2) {
      stall = false;
      std::this_thread::sleep_for(kStall);
    }
    spin_until(t1 + syscall);
    r.result = answer(r.arg);
    if (Traced && ph.sampled(r.id)) {
      executor_span& s = ph.xspans[r.id / ph.stride];
      s.deq_return = t1;
      s.reply_start = rdtsc();
      q.reply[e].enqueue(r);
      s.reply_return = rdtsc();
    } else {
      q.reply[e].enqueue(r);
    }
  }
  if (Traced) st.end = rdtsc();
  q.reply[e].close();
}

template <bool Traced>
std::vector<std::function<void()>> crew(rpc_phase& ph, rings& q,
                                        start_line& line) {
  return {[&] { client<Traced>(ph, q, line); },
          [&] { executor<Traced>(ph, q, 0, line); },
          [&] { executor<Traced>(ph, q, 1, line); }};
}

/// Per-layer metrics from the sampled spans and the counters.
std::vector<metric> layer_metrics(const rpc_phase& ph) {
  const tsc_clock& clk = ph.clk;
  histogram enq, late, queue_wait, spsc_enq, reply_wait;
  for (std::size_t i = 0; i < ph.cspans.size(); ++i) {
    const client_span& c = ph.cspans[i];
    const executor_span& x = ph.xspans[i];
    // Refused, lost, or due outside the measured part: no span.
    if (c.receive == 0 || ph.e2e.index(c.due) == kWindows) continue;
    late.add(c.enq_start - c.due);
    enq.add(c.enq_return - c.enq_start);
    queue_wait.add_signed(
        static_cast<std::int64_t>(x.deq_return - c.enq_return));
    spsc_enq.add(x.reply_return - x.reply_start);
    reply_wait.add_signed(
        static_cast<std::int64_t>(c.receive - x.reply_return));
  }
  double in_dequeue = 0, span = 0;
  for (const executor_stats& s : ph.xstats) {
    in_dequeue += static_cast<double>(s.in_dequeue);
    span += static_cast<double>(s.end - s.begin);
  }
  return {
      {"core.spmc.enqueue_ns.p50", clk.ns(enq.quantile(0.5)), "ns"},
      {"core.spmc.enqueue_ns.p99", clk.ns(enq.quantile(0.99)), "ns"},
      {"core.spmc.dequeue_idle_share", in_dequeue / span, "share"},
      {"rpc.queue_wait_us.p50", clk.us(queue_wait.quantile(0.5)), "us"},
      {"rpc.queue_wait_us.p99", clk.us(queue_wait.quantile(0.99)), "us"},
      {"core.spsc.enqueue_ns.p50", clk.ns(spsc_enq.quantile(0.5)), "ns"},
      {"core.spsc.enqueue_ns.p99", clk.ns(spsc_enq.quantile(0.99)), "ns"},
      {"core.spsc.poll_hit_share",
       static_cast<double>(ph.hits) / static_cast<double>(ph.polls), "share"},
      {"rpc.reply_wait_us.p50", clk.us(reply_wait.quantile(0.5)), "us"},
      {"rpc.reply_wait_us.p99", clk.us(reply_wait.quantile(0.99)), "us"},
      {"gen.late_us.p99", clk.us(late.quantile(0.99)), "us"},
      {"gen.inflight_max", static_cast<double>(ph.inflight_max), "count"},
  };
}

}  // namespace

phase_result run_rpc(const config& cfg, const tsc_clock& clk, double rate,
                     bool traced, double seconds) {
  rpc_phase ph(cfg, clk, rate, traced, seconds);
  std::unique_ptr<rings> last;
  phase_result res;
  res.setup_s = setup_and_run<rings>(
      kPlan, [] { return std::make_unique<rings>(); },
      [&](rings& q, start_line& line) {
        return traced ? crew<true>(ph, q, line) : crew<false>(ph, q, line);
      },
      last);
  res.checks = ph.checks;
  res.take_e2e(ph.e2e, clk);
  if (traced) res.layer = layer_metrics(ph);
  return res;
}

}  // namespace ffqbench
