// The fixed-vs-random Welch t-test as TvlaAccumulator runs it: pass/fail
// behaviour on synthetic populations, under-filled and ragged inputs, and
// the plaintext classification of a trace stream.
#include "pgmcml/sca/tvla.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/util/rng.hpp"

namespace pgmcml::sca {
namespace {

std::vector<std::vector<double>> noise_traces(util::Rng& rng, int n, int m,
                                              double offset = 0.0,
                                              int offset_sample = -1) {
  std::vector<std::vector<double>> out;
  for (int i = 0; i < n; ++i) {
    std::vector<double> t(m);
    for (auto& v : t) v = rng.gaussian(0.0, 1.0);
    if (offset_sample >= 0) t[offset_sample] += offset;
    out.push_back(std::move(t));
  }
  return out;
}

/// Folds both populations into one accumulator sized by the first fixed
/// trace (which throws on any trace of another width).
TvlaResult welch(const std::vector<std::vector<double>>& fixed,
                 const std::vector<std::vector<double>>& random) {
  TvlaAccumulator acc(fixed.front().size());
  for (const auto& t : fixed) acc.add(/*is_fixed=*/true, t);
  for (const auto& t : random) acc.add(/*is_fixed=*/false, t);
  return acc.snapshot();
}

TEST(Tvla, IdenticalPopulationsPass) {
  util::Rng rng(1);
  const auto fixed = noise_traces(rng, 400, 50);
  const auto random = noise_traces(rng, 400, 50);
  const TvlaResult r = welch(fixed, random);
  EXPECT_FALSE(r.leaks());
  EXPECT_LT(r.max_abs_t, TvlaResult::kThreshold);
  EXPECT_EQ(r.t_statistic.size(), 50u);
}

TEST(Tvla, MeanShiftIsDetected) {
  util::Rng rng(2);
  const auto fixed = noise_traces(rng, 400, 50, 0.8, 23);
  const auto random = noise_traces(rng, 400, 50);
  const TvlaResult r = welch(fixed, random);
  EXPECT_TRUE(r.leaks());
  // The leaking sample carries the peak statistic.
  std::size_t peak = 0;
  for (std::size_t j = 1; j < r.t_statistic.size(); ++j) {
    if (std::fabs(r.t_statistic[j]) > std::fabs(r.t_statistic[peak])) peak = j;
  }
  EXPECT_EQ(peak, 23u);
}

TEST(Tvla, SensitivityGrowsWithTraces) {
  util::Rng rng(3);
  const double shift = 0.25;
  const auto fixed_small = noise_traces(rng, 60, 30, shift, 10);
  const auto random_small = noise_traces(rng, 60, 30);
  const auto fixed_big = noise_traces(rng, 2000, 30, shift, 10);
  const auto random_big = noise_traces(rng, 2000, 30);
  const double t_small = welch(fixed_small, random_small).max_abs_t;
  const double t_big = welch(fixed_big, random_big).max_abs_t;
  EXPECT_GT(t_big, t_small);
  EXPECT_TRUE(welch(fixed_big, random_big).leaks());
}

TEST(Tvla, TooFewTracesReturnsEmpty) {
  const TvlaResult r = welch({{1.0}}, {{2.0}});
  EXPECT_EQ(r.max_abs_t, 0.0);
  EXPECT_TRUE(r.t_statistic.empty());
}

TEST(Tvla, RaggedInputThrows) {
  EXPECT_THROW(
      welch({{1.0, 2.0}, {1.0}}, {{1.0, 2.0}, {0.0, 1.0}}),
      std::invalid_argument);
}

TEST(Tvla, TraceSetSplitter) {
  util::Rng rng(4);
  TraceSet ts(10);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> t(10);
    for (auto& v : t) v = rng.gaussian(0.0, 1.0);
    const std::uint8_t p = (i % 2 == 0) ? 0x55 : static_cast<std::uint8_t>(
                                                     rng.bounded(256));
    if (p == 0x55) t[4] += 1.0;  // the fixed class leaks
    ts.add(p, t);
  }
  TvlaAccumulator acc(ts.samples_per_trace());
  TraceSetSource source(ts);
  TraceBatch batch;
  while (source.next(batch)) acc.add_batch(batch, /*fixed_plaintext=*/0x55);
  const TvlaResult r = acc.snapshot();
  EXPECT_GT(r.fixed_traces, 90u);
  EXPECT_TRUE(r.leaks());
}

}  // namespace
}  // namespace pgmcml::sca
