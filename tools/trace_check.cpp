// trace_check — offline validator for exported "ffq.trace.v1" files.
//
// Parses the document with the strict RFC 8259 reader (a parse failure
// is itself a finding: the export must be standards-clean), replays the
// queue events through ffq::trace::validate_trace, and reports:
//
//   * per-producer FIFO order of published ranks,
//   * no rank consumed twice, none fabricated,
//   * no rank lost (only asserted for drained traces with no ring drops),
//   * per-thread seq continuity (gaps = records lost to ring overwrite).
//
// A queue event whose tid, args.seq or args.rank is missing or is not an
// integer (tid and seq also >= 0) is malformed: it is reported and the
// file fails, since a defaulted field would be replayed as a real one.
//
// Usage: trace_check [--expect-drained] FILE
// Exit status: 0 = valid, 1 = violations found, 2 = unreadable/usage.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ffq/trace/json_reader.hpp"
#include "ffq/trace/validate.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: trace_check [--expect-drained] FILE\n");
  return 2;
}

/// `v` as an integer in [lo, hi], or nullopt when it is missing, is not
/// an integer literal or is out of range. The reader holds numbers as
/// doubles, so no bound exceeds 2^53, where every integer is exact.
std::optional<std::int64_t> integer(const ffq::trace::json::value& v,
                                    double lo, double hi) {
  if (!v.is_number() || !v.int_exact() || v.as_double() < lo ||
      v.as_double() > hi) {
    return std::nullopt;
  }
  return v.as_int();
}

}  // namespace

int main(int argc, char** argv) {
  bool expect_drained = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--expect-drained") {
      expect_drained = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  const auto doc = ffq::trace::json::parse(text);
  if (!doc.ok) {
    std::fprintf(stderr, "trace_check: %s: JSON parse error: %s\n",
                 path.c_str(), doc.error.c_str());
    return 1;
  }
  if (doc.root["schema"].as_string() != ffq::trace::kTraceSchema) {
    std::fprintf(stderr, "trace_check: %s: schema is \"%s\", expected \"%s\"\n",
                 path.c_str(), doc.root["schema"].as_string().c_str(),
                 ffq::trace::kTraceSchema);
    return 1;
  }
  const auto& events = doc.root["traceEvents"];
  if (!events.is_array()) {
    std::fprintf(stderr, "trace_check: %s: traceEvents is not an array\n",
                 path.c_str());
    return 1;
  }

  // Cross-thread file order is irrelevant: the validator replays each
  // thread in seq (program) order, since start-timestamped duration
  // records interleave with mid-operation instants in the tsc merge.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  std::vector<ffq::trace::trace_op> ops;
  ops.reserve(events.as_array().size());
  for (std::size_t i = 0; i < events.as_array().size(); ++i) {
    const auto& e = events.as_array()[i];
    if (e["cat"].as_string() != "queue") continue;  // metadata, counters
    const auto tid = integer(e["tid"], 0, UINT32_MAX);
    const auto seq = integer(e["args"]["seq"], 0, kExact);
    const auto rank = integer(e["args"]["rank"], -kExact, kExact);
    if (!tid || !seq || !rank) {
      std::fprintf(stderr,
                   "trace_check: %s: malformed queue event %zu (\"%s\"): "
                   "tid and args.seq must be integers >= 0, args.rank an "
                   "integer\n",
                   path.c_str(), i, e["name"].as_string().c_str());
      return 1;
    }
    ffq::trace::trace_op op;
    op.tid = static_cast<std::uint32_t>(*tid);
    op.seq = static_cast<std::uint64_t>(*seq);
    op.type = e["name"].as_string();
    op.queue = e["args"]["queue"].as_string();
    op.rank = *rank;
    ops.push_back(std::move(op));
  }

  const auto rep = ffq::trace::validate_trace(ops, expect_drained);
  std::printf(
      "trace_check: %s: %zu queue events "
      "(%llu enqueue, %llu dequeue, %llu instant), %llu dropped, "
      "%llu unconsumed\n",
      path.c_str(), ops.size(),
      static_cast<unsigned long long>(rep.enqueues),
      static_cast<unsigned long long>(rep.dequeues),
      static_cast<unsigned long long>(rep.instants),
      static_cast<unsigned long long>(rep.dropped),
      static_cast<unsigned long long>(rep.lost));
  for (const auto& err : rep.errors) {
    std::fprintf(stderr, "trace_check: VIOLATION: %s\n", err.c_str());
  }
  if (!rep.ok()) {
    std::fprintf(stderr, "trace_check: FAIL (%zu violation(s))\n",
                 rep.errors.size());
    return 1;
  }
  std::printf("trace_check: OK\n");
  return 0;
}
