// report.hpp — table and CSV output for the benchmark binaries.
//
// Every bench prints (a) a header block identifying the experiment and
// environment, (b) an aligned text table mirroring the paper's figure
// series, and (c) optionally CSV/JSON/metrics/trace files — all through
// run_bench() and finish_report().
#pragma once

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ffq/telemetry/snapshot.hpp"

namespace ffq::harness {

/// Version tag of the bench report JSON layout (bump on layout changes).
inline constexpr const char* kReportSchema = "ffq.report.v1";

class table {
 public:
  explicit table(std::vector<std::string> columns);

  void add_row(std::vector<std::string> cells);

  /// Render with right-aligned numeric columns and a separator line.
  std::string str() const;

  /// Write as CSV (header + rows). Returns false on I/O failure.
  bool write_csv(const std::string& path) const;

  /// Write as a JSON report: {"schema", "experiment", "columns", "rows":
  /// [{col: value, ...}]}. Keys appear in a fixed order (document keys as
  /// listed, row keys in column order) and strings are fully escaped, so
  /// the output is byte-stable for a given table — golden-file testable.
  /// Cells that parse fully as numbers are emitted as JSON numbers so
  /// downstream tooling can compare runs without re-parsing. When
  /// `metrics` is non-null a "metrics" object (telemetry snapshot,
  /// schema "ffq.metrics.v1") is embedded after the rows. Returns false
  /// on I/O failure.
  bool write_json(const std::string& path, const std::string& experiment,
                  const ffq::telemetry::metrics_snapshot* metrics =
                      nullptr) const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Standard experiment header: figure id, description, machine summary,
/// and the caveats that apply in this environment.
void print_experiment_header(const std::string& experiment_id,
                             const std::string& description);

/// Parse `--csv <path>`-style flags shared by all benches.
struct bench_cli {
  std::string csv_path;      ///< empty = no CSV
  std::string json_path;     ///< empty = no JSON report
  std::string metrics_path;  ///< empty = no standalone metrics snapshot
  std::string trace_path;    ///< empty = no "ffq.trace.v1" export
  int runs = 10;             ///< repetitions per configuration
  double scale = 1.0;        ///< workload scale factor (ops multiplier)

  /// `--help` prints the usage and exits 0; an unknown flag, a flag
  /// missing its value, a `--runs` that is not a whole number >= 1 or a
  /// `--scale` that is not a finite number > 0 prints the usage to stderr
  /// and exits 2.
  static bench_cli parse(int argc, char** argv);
};

/// The one bench entry point: parse the command line, print the
/// experiment header, and return `body(cli)`, or 1 when a measured run
/// throws run_failure (run.hpp).
int run_bench(int argc, char** argv, const std::string& experiment_id,
              const std::string& description,
              const std::function<int(const bench_cli&)>& body);

/// The one report epilogue: print `t`, write every file the command line
/// asked for (--csv and --json from `t` under `experiment`; --metrics and
/// --trace from the telemetry registry and the trace rings, with the
/// registry's snapshot embedded in the JSON report and the trace when it
/// is non-empty), then print `note`. Returns 0, or 1 after printing an
/// error when a write failed. In a build whose queues use
/// trace::disabled the trace file carries only thread-name metadata.
int finish_report(const bench_cli& cli, const table& t,
                  const std::string& experiment, const std::string& note = {});

}  // namespace ffq::harness
