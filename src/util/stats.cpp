#include "pgmcml/util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace pgmcml::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double lerp(double x0, double y0, double x1, double y1, double x) {
  if (x1 == x0) return y0;
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

int hamming_weight(std::uint64_t v) { return __builtin_popcountll(v); }

}  // namespace pgmcml::util
