// Test Vector Leakage Assessment (TVLA): the fixed-vs-random Welch t-test
// (Goodwill et al., NIAT 2011) that became the standard certification-style
// leakage check.  Unlike CPA it needs no leakage model: any statistically
// significant difference between traces of a *fixed* input and traces of
// *random* inputs flags exploitable leakage.  |t| > 4.5 is the conventional
// failure threshold.
//
// This is a methodological extension over the paper's CPA-only evaluation:
// the same acquisition engine feeds both assessments.
// The assessment runs through one streaming engine, TvlaAccumulator
// (accumulator.hpp): per-class Welford sums per sample, so fixed and random
// populations of any size are assessed in bounded memory.
#pragma once

#include <cstddef>
#include <vector>

namespace pgmcml::sca {

struct TvlaResult {
  /// Welch t statistic per time sample.
  std::vector<double> t_statistic;
  /// max |t| over the trace.
  double max_abs_t = 0.0;
  std::size_t fixed_traces = 0;
  std::size_t random_traces = 0;

  /// Conventional pass threshold.
  static constexpr double kThreshold = 4.5;
  bool leaks() const { return max_abs_t > kThreshold; }
};

}  // namespace pgmcml::sca
