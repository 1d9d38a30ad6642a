// Tests for the benchmark harness: stats, tables, CLI parsing, the
// pairwise driver, and the §V-A SPMC micro-benchmark (integration-level:
// these spin up real queues and threads and validate that the harness
// terminates and reports sane numbers).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ffq/harness/driver.hpp"
#include "ffq/harness/pairwise.hpp"
#include "ffq/harness/report.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/harness/spmc_bench.hpp"
#include "ffq/harness/stats.hpp"
#include "ffq/shard/shard.hpp"

using namespace ffq::harness;

TEST(Stats, SummarizeBasics) {
  auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
  EXPECT_EQ(s.runs, 4u);
}

TEST(Stats, SummarizeSingleAndEmpty) {
  auto one = summarize({7.0});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  auto none = summarize({});
  EXPECT_EQ(none.runs, 0u);
}

TEST(Stats, HumanRate) {
  EXPECT_EQ(human_rate(1.25e9), "1.25G");
  EXPECT_EQ(human_rate(3.5e6), "3.50M");
  EXPECT_EQ(human_rate(9.0e3), "9.00k");
  EXPECT_EQ(human_rate(12.0), "12.00");
}

TEST(Report, TableAlignsAndCountsRows) {
  table t({"queue", "threads", "Mops"});
  t.add_row({"ffq", "1", "120.5"});
  t.add_row({"msqueue", "8", "3.2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("ffq"), std::string::npos);
  EXPECT_NE(s.find("msqueue"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Report, CsvRoundTrip) {
  table t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string path = "/tmp/ffq_test_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::filesystem::remove(path);
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

}  // namespace

// Golden-file test for the "ffq.report.v1" JSON export: byte-for-byte
// stable output is the contract that makes downstream tooling (and this
// repo's committed BENCH_*.json artifacts) diffable. The fixture covers
// the sharp edges: numeric-vs-string cell detection, full RFC 8259
// escaping (quotes, backslashes, \n, \t), and an embedded
// "ffq.metrics.v1" snapshot whose std::map backing guarantees sorted,
// deterministic key order.
TEST(Report, JsonMatchesGoldenFile) {
  table t({"queue", "ops", "note"});
  t.add_row({"ffq-spsc", "1.68", "plain"});
  t.add_row({"weird \"name\"\\path", "nan", "line1\nline2\ttab"});

  ffq::telemetry::metrics_snapshot snap;
  // Inserted out of order on purpose: the export must sort.
  snap.counters["queue.ffq-spsc/gaps_created"] = 4;
  snap.counters["queue.ffq-spsc/consumer_skips"] = 4;
  snap.histograms["syscall.native.e2e_ns"] =
      ffq::telemetry::histogram_summary{1000, 2500, 310, 290, 420, 1100, 2500};
  snap.perf["cycles"] = 123456789;

  const std::string path = "/tmp/ffq_test_report_golden.json";
  ASSERT_TRUE(t.write_json(path, "telemetry golden", &snap));
  const std::string produced = slurp(path);
  const std::string golden = slurp(std::string(FFQ_GOLDEN_DIR) +
                                   "/report_v1.json");
  ASSERT_FALSE(golden.empty()) << "golden file missing";
  EXPECT_EQ(produced, golden)
      << "report JSON drifted from tests/golden/report_v1.json; if the "
         "schema changed intentionally, bump kReportSchema and regenerate";
  std::filesystem::remove(path);
}

TEST(Report, JsonEscapesControlCharactersInCells) {
  table t({"k"});
  t.add_row({std::string{'a', '\x01', 'b', '\x1f'} + "\b\f\r"});
  const std::string path = "/tmp/ffq_test_report_esc.json";
  ASSERT_TRUE(t.write_json(path, "esc"));
  const std::string s = slurp(path);
  EXPECT_NE(s.find("\\u0001"), std::string::npos);
  EXPECT_NE(s.find("\\u001f"), std::string::npos);
  EXPECT_NE(s.find("\\b\\f\\r"), std::string::npos);
  // No raw control bytes may survive into the file.
  for (char c : s) EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
  std::filesystem::remove(path);
}

TEST(Report, JsonWithoutMetricsOmitsTheKey) {
  table t({"a"});
  t.add_row({"1"});
  const std::string path = "/tmp/ffq_test_report_nometrics.json";
  ASSERT_TRUE(t.write_json(path, "none"));
  const std::string s = slurp(path);
  EXPECT_NE(s.find("\"schema\": \"ffq.report.v1\""), std::string::npos);
  EXPECT_EQ(s.find("\"metrics\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Report, CliParsing) {
  const char* argv[] = {"bench", "--csv", "/tmp/x.csv", "--runs", "5",
                        "--scale", "0.5", "--metrics", "/tmp/m.json"};
  auto cli = bench_cli::parse(9, const_cast<char**>(argv));
  EXPECT_EQ(cli.csv_path, "/tmp/x.csv");
  EXPECT_EQ(cli.metrics_path, "/tmp/m.json");
  EXPECT_EQ(cli.runs, 5);
  EXPECT_DOUBLE_EQ(cli.scale, 0.5);
  // --help exits 0; an unknown flag or a missing value exits 2.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* help[] = {"bench", "--help"};
  EXPECT_EXIT(bench_cli::parse(2, const_cast<char**>(help)),
              testing::ExitedWithCode(0), "");
  const char* unknown[] = {"bench", "--runs", "2", "--bogus"};
  EXPECT_EXIT(bench_cli::parse(4, const_cast<char**>(unknown)),
              testing::ExitedWithCode(2), "unknown flag: --bogus");
  // There is no quick mode: --runs and --scale size every run.
  const char* quick[] = {"bench", "--quick"};
  EXPECT_EXIT(bench_cli::parse(2, const_cast<char**>(quick)),
              testing::ExitedWithCode(2), "unknown flag: --quick");
  const char* missing[] = {"bench", "--json"};
  EXPECT_EXIT(bench_cli::parse(2, const_cast<char**>(missing)),
              testing::ExitedWithCode(2), "missing value for: --json");
  // --runs is a whole number >= 1 and --scale a finite number > 0:
  // junk, trailing characters and out-of-range values exit 2.
  for (const char* runs : {"abc", "5x", "0", "-1", " 5", ""}) {
    const char* bad[] = {"bench", "--runs", runs};
    EXPECT_EXIT(bench_cli::parse(3, const_cast<char**>(bad)),
                testing::ExitedWithCode(2), "invalid value for: --runs")
        << runs;
  }
  for (const char* scale : {"xyz", "0.5x", "0", "-1", "inf", "nan", "1e999"}) {
    const char* bad[] = {"bench", "--scale", scale};
    EXPECT_EXIT(bench_cli::parse(3, const_cast<char**>(bad)),
                testing::ExitedWithCode(2), "invalid value for: --scale")
        << scale;
  }

  // A failed --csv/--json/--metrics/--trace write makes the bench exit 1.
  table t({"a"});
  t.add_row({"1"});
  const std::string bad = "/nonexistent-dir/out";
  for (std::string bench_cli::*path :
       {&bench_cli::csv_path, &bench_cli::json_path, &bench_cli::metrics_path,
        &bench_cli::trace_path}) {
    bench_cli out;
    out.*path = bad;
    EXPECT_EXIT(std::exit(finish_report(out, t, "x")),
                testing::ExitedWithCode(1), "cannot write .* to " + bad);
  }
  EXPECT_EQ(finish_report(bench_cli{}, t, "x"), 0);
}

TEST(Report, RunBenchTurnsARunFailureIntoExitOne) {
  const char* argv[] = {"bench"};
  EXPECT_EQ(run_bench(1, const_cast<char**>(argv), "id", "desc",
                      [](const bench_cli&) -> int {
                        throw run_failure("conservation: test");
                      }),
            1);
  EXPECT_EQ(run_bench(1, const_cast<char**>(argv), "id", "desc",
                      [](const bench_cli&) { return 0; }),
            0);
}

TEST(Driver, ThinkOverheadIsNearTheRequestedMean) {
  const double ns = measure_think_overhead_ns(50, 150, 5000);
  // Mean request is 100 ns; allow generous slack for draw overhead and
  // container noise, but it must be the right order of magnitude.
  EXPECT_GT(ns, 60.0);
  EXPECT_LT(ns, 2000.0);
}

// --- pairwise driver over a few representative adapters --------------------

using ffq_mpmc = ffq_adapter<ffq::core::mpmc_queue<std::uint64_t>>;
using ffq_spsc = ffq_adapter<ffq::core::spsc_queue<std::uint64_t>>;

template <typename Adapter>
void smoke_pairwise(int threads) {
  pairwise_config cfg;
  cfg.threads = threads;
  cfg.total_pairs = 20000;
  cfg.think_min_ns = 0;  // fast test
  cfg.params.capacity = 1 << 10;
  const double ops = run_pairwise_once<Adapter>(cfg);
  EXPECT_GT(ops, 1000.0) << "implausibly slow — likely a stall";
}

TEST(Pairwise, FfqMpmcSingleThread) { smoke_pairwise<ffq_mpmc>(1); }
TEST(Pairwise, FfqMpmcFourThreads) { smoke_pairwise<ffq_mpmc>(4); }
TEST(Pairwise, FfqSpscSingleThread) { smoke_pairwise<ffq_spsc>(1); }
TEST(Pairwise, MsQueueTwoThreads) { smoke_pairwise<ms_adapter<>>(2); }
TEST(Pairwise, CcQueueTwoThreads) { smoke_pairwise<cc_adapter>(2); }
TEST(Pairwise, LcrqTwoThreads) { smoke_pairwise<lcrq_adapter>(2); }
TEST(Pairwise, WfQueueTwoThreads) { smoke_pairwise<wf_adapter>(2); }
TEST(Pairwise, VyukovTwoThreads) { smoke_pairwise<vyukov_adapter>(2); }
TEST(Pairwise, HtmTwoThreads) { smoke_pairwise<htm_adapter>(2); }

// Every run checks what the dequeues returned: one wrong value fails it.
struct off_by_one_adapter : ffq_spsc {
  static bool dequeue(queue_type& q, context& c, std::uint64_t& out) {
    const bool ok = ffq_spsc::dequeue(q, c, out);
    ++out;
    return ok;
  }
};

TEST(Pairwise, WrongItemIsARunFailure) {
  pairwise_config cfg;
  cfg.total_pairs = 1000;
  cfg.think_min_ns = 0;
  cfg.params.capacity = 1 << 10;
  EXPECT_THROW(run_pairwise_once<off_by_one_adapter>(cfg), run_failure);
}

TEST(Pairwise, WithThinkTimeStillTerminates) {
  pairwise_config cfg;
  cfg.threads = 2;
  cfg.total_pairs = 5000;
  cfg.think_min_ns = 50;
  cfg.think_max_ns = 150;
  const double ops = run_pairwise_once<ffq_mpmc>(cfg);
  EXPECT_GT(ops, 100.0);
}

TEST(Pairwise, MultiRunSummary) {
  pairwise_config cfg;
  cfg.threads = 2;
  cfg.total_pairs = 10000;
  cfg.think_min_ns = 0;
  auto stats = run_pairwise<ffq_mpmc>(cfg, 3);
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_GT(stats.mean, 0.0);
  EXPECT_GE(stats.max, stats.min);
}

// --- §V-A SPMC micro-benchmark ---------------------------------------------

TEST(SpmcBench, SingleGroupSingleConsumer) {
  spmc_bench_config cfg;
  cfg.items_per_producer = 20000;
  cfg.capacity = 1 << 10;
  const double rt = run_spmc_bench_once<
      ffq::core::spmc_queue<std::uint64_t, ffq::core::layout_aligned>,
      ffq::core::layout_aligned>(cfg);
  EXPECT_GT(rt, 1000.0);
}

TEST(SpmcBench, FanOutFourConsumers) {
  spmc_bench_config cfg;
  cfg.consumers_per_group = 4;
  cfg.items_per_producer = 10000;
  const double rt = run_spmc_bench_once<
      ffq::core::spmc_queue<std::uint64_t, ffq::core::layout_aligned>,
      ffq::core::layout_aligned>(cfg);
  EXPECT_GT(rt, 100.0);
}

TEST(SpmcBench, MpmcVariantAndTwoGroups) {
  spmc_bench_config cfg;
  cfg.groups = 2;
  cfg.consumers_per_group = 2;
  cfg.items_per_producer = 10000;
  const double rt = run_spmc_bench_once<
      ffq::core::mpmc_queue<std::uint64_t, ffq::core::layout_compact>,
      ffq::core::layout_compact>(cfg);
  EXPECT_GT(rt, 100.0);
}

TEST(SpmcBench, AffinityPoliciesAllTerminate) {
  using ffq::runtime::placement_policy;
  for (auto policy : {placement_policy::same_ht, placement_policy::sibling_ht,
                      placement_policy::other_core, placement_policy::none}) {
    spmc_bench_config cfg;
    cfg.items_per_producer = 5000;
    cfg.policy = policy;
    const double rt = run_spmc_bench_once<
        ffq::core::spmc_queue<std::uint64_t, ffq::core::layout_aligned>,
        ffq::core::layout_aligned>(cfg);
    EXPECT_GT(rt, 100.0) << ffq::runtime::to_string(policy);
  }
}

TEST(SpmcBench, TinyQueuesExerciseFlowControl) {
  spmc_bench_config cfg;
  cfg.capacity = 4;
  cfg.consumers_per_group = 2;
  cfg.items_per_producer = 5000;
  const double rt = run_spmc_bench_once<
      ffq::core::spmc_queue<std::uint64_t, ffq::core::layout_aligned>,
      ffq::core::layout_aligned>(cfg);
  EXPECT_GT(rt, 10.0);
}

// --- stream loops -----------------------------------------------------------

template <typename Queue>
void expect_stream_delivers(std::size_t producers, std::size_t consumers) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    double rate = 0.0;
    EXPECT_NO_THROW(rate = run_stream<Queue>(producers, consumers, batch,
                                             batch, 20000, 1 << 10))
        << "batch " << batch;
    EXPECT_GT(rate, 0.0) << "batch " << batch;
  }
}

TEST(Stream, DeliversEveryItemOverSpsc) {
  expect_stream_delivers<ffq::core::spsc_queue<std::uint64_t>>(1, 1);
}
TEST(Stream, DeliversEveryItemOverSpmc) {
  expect_stream_delivers<ffq::core::spmc_queue<std::uint64_t>>(1, 3);
}
TEST(Stream, DeliversEveryItemOverMpmc) {
  expect_stream_delivers<ffq::core::mpmc_queue<std::uint64_t>>(3, 2);
}
TEST(Stream, DeliversEveryItemOverFabric) {
  expect_stream_delivers<ffq::shard::fabric<std::uint64_t, false>>(3, 2);
}
TEST(Stream, DeliversEveryItemOverOrderedFabric) {
  expect_stream_delivers<ffq::shard::fabric<std::uint64_t, true>>(3, 2);
}

TEST(Stream, TryStreamDeliversEveryItemOverMcRingBuffer) {
  ffq::baselines::mcring_queue<std::uint64_t> q(1 << 10, 64);
  double rate = 0.0;
  EXPECT_NO_THROW(rate = run_try_stream(q, 20000));
  EXPECT_GT(rate, 0.0);
}

namespace {

/// An SPMC queue whose producer endpoint loses the value 7.
struct dropping_queue : ffq::core::spmc_queue<std::uint64_t> {
  using spmc_queue::spmc_queue;
  void enqueue(std::uint64_t v) noexcept {
    if (v != 7) spmc_queue::enqueue(v);
  }
};

}  // namespace

TEST(Stream, ReportsALostItem) {
  EXPECT_THROW(run_stream<dropping_queue>(1, 2, 1, 1, 1000, 1 << 8),
               run_failure);
}
