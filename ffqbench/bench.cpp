// bench.cpp — ffqbench entry point: parses the command line, calibrates
// the TSC, runs the chosen workload (untraced, or untraced then traced),
// checks it, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every delivered item checked out (admission
// refusals are counted, not fatal), 1 on any other failure, 2 on usage.
#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>

#include "ffq/runtime/affinity.hpp"

namespace ffqbench {

// --- histogram / windows ----------------------------------------------------

double histogram::value(std::size_t b) noexcept {
  if (b < kLinear) return static_cast<double>(b);
  const std::size_t octave = (b - kLinear) >> kSubBits;
  const std::size_t sub = (b - kLinear) & ((1u << kSubBits) - 1);
  const unsigned msb = static_cast<unsigned>(octave) + kLinearBits;
  const double width = std::ldexp(1.0, static_cast<int>(msb - kSubBits));
  return std::ldexp(1.0, static_cast<int>(msb)) + sub * width + width / 2;
}

void histogram::merge(const histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) return value(i);
  }
  return value(kBuckets - 1);
}

void windowed::merge(const windowed& other) {
  for (std::size_t w = 0; w < kWindows; ++w) {
    count_[w] += other.count_[w];
    latency_[w].merge(other.latency_[w]);
  }
}

double windowed::rate_median(const tsc_clock& clk) const {
  const double secs = clk.ns(static_cast<double>(len_)) * 1e-9;
  std::vector<double> rates;
  for (const std::uint64_t c : count_) rates.push_back(c / secs);
  return median(rates);
}

double windowed::latency_median_us(double q, const tsc_clock& clk) const {
  std::vector<double> v;
  for (const histogram& h : latency_) {
    if (h.count() > 0) v.push_back(clk.us(h.quantile(q)));
  }
  return median(v);
}

std::uint64_t windowed::total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : count_) n += c;
  return n;
}

histogram windowed::latency_all() const {
  histogram all;
  for (const histogram& h : latency_) all.merge(h);
  return all;
}

// --- start line / crew ------------------------------------------------------

bool start_line::arrive() {
  if (left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ready_at_ = steady::now();
    start_tsc_ = rdtsc();
    state_.store(rehearsal_ ? kCancel : kGo, std::memory_order_release);
  } else {
    while (state_.load(std::memory_order_acquire) == kWaiting) {
      std::this_thread::yield();
    }
  }
  return state_.load(std::memory_order_acquire) == kGo;
}

void run_crew(const std::vector<int>& plan,
              const std::vector<std::function<void()>>& bodies) {
  // Read once, before any worker (or the caller) has been pinned.
  static const std::vector<int> cpus = ffq::runtime::current_affinity();
  const std::size_t n = bodies.size();
  const bool caller_works = n >= cpus.size();
  // Threads inherit the caller's affinity; a caller still pinned by an
  // earlier crew would queue every new thread on its own CPU until they
  // pin themselves.
  ffq::runtime::pin_self_to(cpus);
  std::vector<std::exception_ptr> errors(n);
  auto body = [&](std::size_t i) {
    try {
      ffq::runtime::pin_self_to(
          cpus[static_cast<std::size_t>(plan[i]) % cpus.size()]);
      bodies[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i + (caller_works ? 1 : 0) < n; ++i) {
    threads.emplace_back(body, i);
  }
  if (caller_works) body(n - 1);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// --- small helpers ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<std::uint32_t> seeded_table(std::uint64_t seed, std::size_t n,
                                        std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> t(n);
  std::uint64_t state = seed;
  for (std::uint32_t& x : t) {
    // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    x = lo + static_cast<std::uint32_t>(z % (std::uint64_t{hi} - lo + 1));
  }
  return t;
}

namespace {

// --- workloads and metrics --------------------------------------------------

/// The two offered rates of the open-loop RPC shape, in requests/s. The
/// shape's capacity, bound by the single client thread, is 4.7-4.9M req/s
/// on a 4-vCPU x86 VM (Xeon, 2.1 GHz TSC), so `high` is about half of it.
constexpr double kRpcLowRate = 1e6;
constexpr double kRpcHighRate = 2.5e6;

const char* const kWorkloads[] = {"rpc_low", "rpc_high", "fanin_bulk",
                                  "mpmc_pairs"};

/// Every per-layer metric, in report order. A traced run prints all of
/// them; a layer the workload does not call reads 0.
const metric kLayerMetrics[] = {
    {"core.spmc.enqueue_ns.p50", 0, "ns"},
    {"core.spmc.enqueue_ns.p99", 0, "ns"},
    {"core.spmc.dequeue_idle_share", 0, "share"},
    {"rpc.queue_wait_us.p50", 0, "us"},
    {"rpc.queue_wait_us.p99", 0, "us"},
    {"core.spsc.enqueue_ns.p50", 0, "ns"},
    {"core.spsc.enqueue_ns.p99", 0, "ns"},
    {"core.spsc.poll_hit_share", 0, "share"},
    {"rpc.reply_wait_us.p50", 0, "us"},
    {"rpc.reply_wait_us.p99", 0, "us"},
    {"gen.late_us.p99", 0, "us"},
    {"gen.inflight_max", 0, "count"},
    {"shard.enqueue_bulk_ns.p50", 0, "ns"},
    {"shard.enqueue_bulk_ns.p99", 0, "ns"},
    {"shard.enqueue_ns_per_item", 0, "ns"},
    {"shard.dequeue_bulk_ns.p50", 0, "ns"},
    {"shard.dequeue_bulk_ns.p99", 0, "ns"},
    {"shard.claim_fill_ratio", 0, "ratio"},
    {"shard.empty_poll_share", 0, "share"},
    {"shard.consumer_skew", 0, "ratio"},
    {"core.mpmc.enqueue_ns.p50", 0, "ns"},
    {"core.mpmc.enqueue_ns.p99", 0, "ns"},
    {"core.mpmc.dequeue_ns.p50", 0, "ns"},
    {"core.mpmc.dequeue_ns.p99", 0, "ns"},
    {"core.mpmc.queue_share", 0, "share"},
    {"trace.overhead_share", 0, "share"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ffqbench: %s\n"
               "usage: ffqbench --workload rpc_low|rpc_high|fanin_bulk|"
               "mpmc_pairs --seed N --seconds S --trace 0|1 "
               "[--inject drop|stall]\n",
               why);
  std::exit(2);
}

config parse(int argc, char** argv) {
  config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = val;
        have_workload = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                                  val) != std::end(kWorkloads);
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        cfg.trace = val == "1";
      } else if (flag == "--inject") {
        if (val != "drop" && val != "stall") usage("unknown --inject fault");
        cfg.inject = val;
      } else {
        usage("unknown flag");
      }
    } catch (const std::exception&) {
      usage("bad number");
    }
  }
  if (!have_workload) usage("unknown or missing --workload");
  if (!(cfg.seconds >= 0.5 && cfg.seconds <= 60)) {
    usage("--seconds must be within [0.5, 60]");
  }
  return cfg;
}

phase_result run_phase(const config& cfg, const tsc_clock& clk, bool traced,
                       double seconds) {
  if (cfg.workload == "rpc_low") {
    return run_rpc(cfg, clk, kRpcLowRate, traced, seconds);
  }
  if (cfg.workload == "rpc_high") {
    return run_rpc(cfg, clk, kRpcHighRate, traced, seconds);
  }
  if (cfg.workload == "fanin_bulk") return run_fanin(cfg, clk, traced, seconds);
  return run_pairs(cfg, clk, traced, seconds);
}

/// Per-workload names of the headline figures, printed next to the generic
/// JSON names so reports can quote either.
void print_aliases(const std::string& w, const phase_result& r) {
  if (w == "rpc_low" || w == "rpc_high") {
    const char* name = w.c_str();
    std::printf("  %s_p50_us = %.4f us\n  %s_p99_us = %.4f us\n", name,
                r.p50_us, name, r.p99_us);
  } else if (w == "fanin_bulk") {
    std::printf("  fanin_items_per_s = %.0f 1/s\n", r.ops_per_s);
  } else {
    std::printf("  pairs_ops_per_s = %.0f 1/s\n", r.ops_per_s);
  }
}

void print_checks(const tally& t) {
  const double share = t.attempted ? static_cast<double>(t.failed()) /
                                         static_cast<double>(t.attempted)
                                   : 0;
  std::printf(
      "  error_share = %.9f share (attempted %llu: refused %llu, lost %llu, "
      "duplicated/reordered %llu, corrupted %llu)\n",
      share, static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.refused),
      static_cast<unsigned long long>(t.lost),
      static_cast<unsigned long long>(t.disorder),
      static_cast<unsigned long long>(t.corrupted));
}

int run(const config& cfg) {
  // Calibrated once per process, before any set-up.
  const tsc_clock clk{ffq::runtime::tsc_ghz()};
  std::printf("ffqbench workload=%s seed=%llu seconds=%g trace=%d tsc=%.4fGHz\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, clk.ghz);

  tally checks;
  std::vector<metric> out;
  if (!cfg.trace) {
    const phase_result r = run_phase(cfg, clk, false, cfg.seconds);
    checks = r.checks;
    out = {{"setup_s", r.setup_s, "s"},
           {"rss_mb", peak_rss_mb(), "MB"},
           {"ops_per_s", r.ops_per_s, "1/s"},
           {"p50_us", r.p50_us, "us"},
           {"p90_us", r.p90_us, "us"}};
    print_aliases(cfg.workload, r);
    std::printf(
        "  latency over %llu samples: p99 = %.4f us, p99.9 = %.4f us "
        "(printed, not gated)\n",
        static_cast<unsigned long long>(r.latency_samples), r.p99_us,
        r.p999_us);
  } else {
    // Same workload twice, half the time each: untraced, then traced. The
    // difference in the workload's headline figure is the tracing cost.
    const phase_result plain = run_phase(cfg, clk, false, cfg.seconds / 2);
    const phase_result traced = run_phase(cfg, clk, true, cfg.seconds / 2);
    checks = plain.checks;
    checks += traced.checks;

    const bool by_latency = cfg.workload.rfind("rpc_", 0) == 0;
    const double overhead =
        by_latency ? traced.p50_us / plain.p50_us - 1
                   : plain.ops_per_s / traced.ops_per_s - 1;
    std::map<std::string, double> got;
    for (const metric& m : traced.layer) got[m.name] = m.value;
    got["trace.overhead_share"] = overhead;
    for (metric m : kLayerMetrics) {
      if (const auto it = got.find(m.name); it != got.end()) {
        m.value = it->second;
        got.erase(it);
      }
      out.push_back(m);
    }
    if (!got.empty()) {
      throw std::logic_error("unlisted per-layer metric " + got.begin()->first);
    }
    std::printf("  untraced: ops_per_s = %.0f 1/s, p50_us = %.4f us\n",
                plain.ops_per_s, plain.p50_us);
    std::printf("  traced:   ops_per_s = %.0f 1/s, p50_us = %.4f us\n",
                traced.ops_per_s, traced.p50_us);
  }
  print_checks(checks);
  for (metric& m : out) {
    if (!std::isfinite(m.value)) m.value = 0;
    std::printf("  %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += checks.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", out[i].value);
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.correct() ? 0 : 1;
}

}  // namespace
}  // namespace ffqbench

int main(int argc, char** argv) {
  const ffqbench::config cfg = ffqbench::parse(argc, argv);
  try {
    return ffqbench::run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffqbench: %s\n", e.what());
    return 1;
  }
}
