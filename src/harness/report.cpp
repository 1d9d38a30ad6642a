#include "ffq/harness/report.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "ffq/harness/parse.hpp"
#include "ffq/harness/run.hpp"
#include "ffq/runtime/perf_counters.hpp"
#include "ffq/runtime/timing.hpp"
#include "ffq/runtime/topology.hpp"
#include "ffq/telemetry/json.hpp"
#include "ffq/telemetry/registry.hpp"
#include "ffq/trace/export.hpp"

namespace ffq::harness {

table::table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void table::add_row(std::vector<std::string> cells) {
  cells.resize(columns_.size());
  rows_.push_back(std::move(cells));
}

std::string table::str() const {
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) width[i] = columns_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (i) os << "  ";
      const std::string& cell = i < row.size() ? row[i] : "";
      // Right-align everything but the first (label) column.
      if (i == 0) {
        os << cell << std::string(width[i] - cell.size(), ' ');
      } else {
        os << std::string(width[i] - cell.size(), ' ') << cell;
      }
    }
    os << '\n';
  };
  emit_row(columns_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < width.size(); ++i) total += width[i] + (i ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

bool table::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (i) f << ',';
      f << (i < row.size() ? row[i] : "");
    }
    f << '\n';
  };
  emit(columns_);
  for (const auto& row : rows_) emit(row);
  return static_cast<bool>(f);
}

namespace {

// Full RFC 8259 escaping (quote, backslash, all control characters),
// shared with the telemetry snapshot writer.
using ffq::telemetry::json_escape;

/// Emit a cell as a bare number when the whole cell parses as one,
/// otherwise as a quoted string.
void emit_json_value(std::ofstream& f, const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size() && std::isfinite(v)) {
      f << cell;
      return;
    }
  }
  f << '"' << json_escape(cell) << '"';
}

}  // namespace

bool table::write_json(const std::string& path, const std::string& experiment,
                       const ffq::telemetry::metrics_snapshot* metrics) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"schema\": \"" << kReportSchema << "\",\n";
  f << "  \"experiment\": \"" << json_escape(experiment) << "\",\n";
  f << "  \"columns\": [";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i) f << ", ";
    f << '"' << json_escape(columns_[i]) << '"';
  }
  f << "],\n  \"rows\": [\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    f << "    {";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (i) f << ", ";
      f << '"' << json_escape(columns_[i]) << "\": ";
      emit_json_value(f, i < rows_[r].size() ? rows_[r][i] : "");
    }
    f << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  f << "  ]";
  if (metrics != nullptr) {
    f << ",\n  \"metrics\": " << metrics->to_json(2);
  }
  f << "\n}\n";
  return static_cast<bool>(f);
}

void print_experiment_header(const std::string& experiment_id,
                             const std::string& description) {
  const auto topo = ffq::runtime::cpu_topology::discover();
  std::printf("=== %s ===\n", experiment_id.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("machine: %s; TSC %.2f GHz\n", topo.summary().c_str(),
              ffq::runtime::tsc_ghz());
  std::printf("%s\n", ffq::runtime::perf_capability_summary().c_str());
  std::printf("note: paper testbeds are 8–80 hardware threads; thread "
              "counts beyond this machine run oversubscribed, which "
              "shifts crossover points but preserves orderings.\n\n");
}

namespace {

constexpr const char* kUsage =
    "flags: --csv <path>  --json <path>  --metrics <path>  --trace <path>  "
    "--runs <n>  --scale <f>  --help\n";

[[noreturn]] void usage_error(const char* what, const char* flag) {
  std::fprintf(stderr, "%s: %s\n%s", what, flag, kUsage);
  std::exit(2);
}

}  // namespace

bench_cli bench_cli::parse(int argc, char** argv) {
  bench_cli cli;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    auto is = [&](const char* name) { return std::strcmp(flag, name) == 0; };
    auto value = [&] {
      if (i + 1 >= argc) usage_error("missing value for", flag);
      return argv[++i];
    };
    if (is("--help")) {
      std::printf("%s", kUsage);
      std::exit(0);
    } else if (is("--csv")) {
      cli.csv_path = value();
    } else if (is("--json")) {
      cli.json_path = value();
    } else if (is("--metrics")) {
      cli.metrics_path = value();
    } else if (is("--trace")) {
      cli.trace_path = value();
    } else if (is("--runs")) {
      const auto runs = parse_count(value(), INT_MAX);
      if (!runs || *runs < 1) usage_error("invalid value for", flag);
      cli.runs = static_cast<int>(*runs);
    } else if (is("--scale")) {
      const auto scale = parse_positive(value());
      if (!scale) usage_error("invalid value for", flag);
      cli.scale = *scale;
    } else {
      usage_error("unknown flag", flag);
    }
  }
  return cli;
}

int run_bench(int argc, char** argv, const std::string& experiment_id,
              const std::string& description,
              const std::function<int(const bench_cli&)>& body) {
  const auto cli = bench_cli::parse(argc, argv);
  print_experiment_header(experiment_id, description);
  try {
    return body(cli);
  } catch (const run_failure& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }
}

int finish_report(const bench_cli& cli, const table& t,
                  const std::string& experiment, const std::string& note) {
  std::printf("\n%s", t.str().c_str());
  const auto snap = ffq::telemetry::registry::instance().snapshot();
  const auto* metrics = snap.empty() ? nullptr : &snap;
  int rc = 0;
  auto written = [&](bool ok, const char* what, const std::string& path) {
    if (ok) {
      std::printf("%s written to %s\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
      rc = 1;
    }
  };
  if (!cli.csv_path.empty()) {
    written(t.write_csv(cli.csv_path), "csv", cli.csv_path);
  }
  if (!cli.json_path.empty()) {
    written(t.write_json(cli.json_path, experiment, metrics), "json",
            cli.json_path);
  }
  if (!cli.metrics_path.empty()) {
    written(snap.write_json_file(cli.metrics_path), "metrics",
            cli.metrics_path);
  }
  if (!cli.trace_path.empty()) {
    ffq::trace::export_options opts;
    opts.metrics = metrics;
    written(ffq::trace::write_chrome_trace(cli.trace_path, opts), "trace",
            cli.trace_path);
  }
  std::printf("%s", note.c_str());
  return rc;
}

}  // namespace ffq::harness
