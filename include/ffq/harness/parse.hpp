// parse.hpp — strict number parsing for the command-line tools.
//
// A flag value is accepted only when the whole string is the number: no
// surrounding junk, no overflow, nothing out of range. The bench CLIs,
// check_explore and trace_stress share it, so `--runs abc` is a usage
// error, not a silent zero. The examples read their positional
// arguments through parse_arg.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

namespace ffq::harness {

/// The whole of `s` as a decimal number in [0, max], without a sign.
inline std::optional<std::uint64_t> parse_count(std::string_view s,
                                                std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end || v > max) return std::nullopt;
  return v;
}

/// The whole of `s` as a finite number > 0.
inline std::optional<double> parse_positive(std::string_view s) {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end || !std::isfinite(v) || !(v > 0)) {
    return std::nullopt;
  }
  return v;
}

/// A program's optional positional argument `argv[i]` as a count in
/// [lo, hi]: `fallback` when the argument is absent, nullopt when it is
/// present but not such a count.
inline std::optional<std::uint64_t> parse_arg(int argc, char** argv, int i,
                                              std::uint64_t fallback,
                                              std::uint64_t lo,
                                              std::uint64_t hi) {
  if (i >= argc) return fallback;
  const auto v = parse_count(argv[i], hi);
  if (!v || *v < lo) return std::nullopt;
  return v;
}

}  // namespace ffq::harness
