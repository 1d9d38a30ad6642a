// stats.hpp — summary statistics for repeated benchmark runs.
//
// "The reported results represent the average of 10 runs" (paper §V-A);
// we additionally carry stddev/min/max so EXPERIMENTS.md can show run
// stability on a noisy container.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace ffq::harness {

struct run_stats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  std::size_t runs = 0;
};

/// Summarize a set of per-run measurements (any unit).
run_stats summarize(std::vector<double> samples);

/// Summarize `runs` measurements, each the value one call of `once()`
/// returns.
template <typename Fn>
run_stats sample(int runs, Fn&& once) {
  std::vector<double> samples;
  for (int r = 0; r < runs; ++r) samples.push_back(once());
  return summarize(std::move(samples));
}

/// "12.34M" style human formatting for ops/s values.
std::string human_rate(double ops_per_sec);

/// Fixed-precision decimal as a string (no iostream noise at call sites).
std::string fixed(double v, int decimals = 2);

}  // namespace ffq::harness
