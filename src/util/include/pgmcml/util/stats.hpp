// Small statistics toolkit: a Welford accumulator and a few scalar helpers
// used by the characterization flows, the power composer and the attacks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pgmcml::util {

/// Welford online accumulator for mean and variance.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n).
  double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }
  /// Sample variance (divides by n-1).
  double sample_variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean(std::span<const double> xs);

/// Linear interpolation helper: y at `x` on segment (x0,y0)-(x1,y1).
double lerp(double x0, double y0, double x1, double y1, double x);

/// Population Hamming weight of a 64-bit word.
int hamming_weight(std::uint64_t v);

}  // namespace pgmcml::util
