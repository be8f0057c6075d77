#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/sca/traces.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::sca {
namespace {

/// Synthetic leaky traces: sample j0 leaks alpha * HW(sbox(p ^ key)) plus
/// Gaussian noise.
TraceSet synthetic_traces(std::uint8_t key, std::size_t n, double alpha,
                          double noise, std::size_t samples = 50,
                          std::size_t leak_at = 17, std::uint64_t seed = 3) {
  util::Rng rng(seed);
  TraceSet ts(samples);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(samples);
    for (auto& v : tr) v = rng.gaussian(0.0, noise);
    tr[leak_at] += alpha * util::hamming_weight(aes::reduced_target(p, key));
    ts.add(p, tr);
  }
  return ts;
}

/// Single-pass Hamming-weight CPA MTD over a whole trace set: a checkpointed
/// tracker with a `grid_points` grid, fed trace by trace.
std::size_t tracked_mtd(const TraceSet& ts, std::uint8_t key,
                        std::size_t grid_points) {
  MtdTracker tracker(LeakageModel::kHammingWeight, ts.samples_per_trace(),
                     key, ts.num_traces(), grid_points);
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    tracker.add(ts.plaintext(i), ts.trace(i));
  }
  return tracker.finish();
}

TEST(TraceSet, AddAndQuery) {
  TraceSet ts;
  ts.add(0x12, {1.0, 2.0});
  ts.add(0x34, {3.0, 4.0});
  EXPECT_EQ(ts.num_traces(), 2u);
  EXPECT_EQ(ts.samples_per_trace(), 2u);
  EXPECT_EQ(ts.plaintext(1), 0x34);
  EXPECT_DOUBLE_EQ(ts.trace(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(ts.trace(1)[0], 3.0);
}

TEST(TraceSet, RejectsMismatchedLength) {
  TraceSet ts;
  ts.add(0, {1.0, 2.0});
  EXPECT_THROW(ts.add(1, {1.0}), std::invalid_argument);
}

TEST(TraceSet, ReserveDoesNotChangeContents) {
  TraceSet ts(4);
  ts.reserve(1000);
  EXPECT_EQ(ts.num_traces(), 0u);
  ts.add(0x11, {1.0, 2.0, 3.0, 4.0});
  ts.add(0x22, {5.0, 6.0, 7.0, 8.0});
  EXPECT_EQ(ts.num_traces(), 2u);
  EXPECT_EQ(ts.plaintext(1), 0x22);
  EXPECT_DOUBLE_EQ(ts.trace(1)[2], 7.0);
}

TEST(Leakage, PredictModels) {
  EXPECT_DOUBLE_EQ(
      predict_leakage(LeakageModel::kHammingWeight, 0x00, 0x00),
      util::hamming_weight(aes::sbox()[0]));
  EXPECT_DOUBLE_EQ(predict_leakage(LeakageModel::kIdentity, 0x10, 0x20),
                   aes::sbox()[0x30]);
  EXPECT_DOUBLE_EQ(predict_leakage(LeakageModel::kSboxBit0, 0x10, 0x20),
                   aes::sbox()[0x30] & 1);
}

TEST(Cpa, RecoversKeyFromCleanLeak) {
  const std::uint8_t key = 0xa7;
  const TraceSet ts = synthetic_traces(key, 300, 1.0, 0.1);
  const CpaResult r = cpa_attack(ts);
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.key_rank(key), 0);
  EXPECT_GT(r.margin(key), 0.0);
  EXPECT_GT(r.peak_correlation[key], 0.9);
}

TEST(Cpa, RecoversKeyUnderHeavyNoise) {
  const std::uint8_t key = 0x3c;
  const TraceSet ts = synthetic_traces(key, 5000, 1.0, 10.0);
  const CpaResult r = cpa_attack(ts);
  EXPECT_EQ(r.key_rank(key), 0);
}

TEST(Cpa, FailsOnPureNoise) {
  util::Rng rng(9);
  TraceSet ts(40);
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> tr(40);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(static_cast<std::uint8_t>(rng.bounded(256)), tr);
  }
  const CpaResult r = cpa_attack(ts);
  // Everything should be small, statistically indistinguishable noise.
  double lo = 1.0;
  double hi = 0.0;
  for (double v : r.peak_correlation) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(hi, 0.2);
  EXPECT_LT(hi - lo, 0.15);
}

TEST(Cpa, TimeCurvesLocateTheLeak) {
  const std::uint8_t key = 0x55;
  const std::size_t leak_at = 23;
  const TraceSet ts = synthetic_traces(key, 500, 1.0, 0.2, 50, leak_at);
  const CpaResult r = cpa_attack(ts, LeakageModel::kHammingWeight, true);
  ASSERT_EQ(r.correlation_vs_time.size(), 50u);
  std::size_t best_t = 0;
  double best = 0.0;
  for (std::size_t t = 0; t < 50; ++t) {
    const double c = std::fabs(r.correlation_vs_time[t][key]);
    if (c > best) {
      best = c;
      best_t = t;
    }
  }
  EXPECT_EQ(best_t, leak_at);
}

TEST(Cpa, EmptyTraceSetIsHandled) {
  const CpaResult r = cpa_attack(TraceSet(10));
  EXPECT_EQ(r.best_guess, -1);
}

TEST(Dpa, RecoversKeyFromBitLeak) {
  // Traces leak the S-box output bit 0 directly.
  util::Rng rng(12);
  const std::uint8_t key = 0x9e;
  TraceSet ts(30);
  for (int i = 0; i < 3000; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(30);
    for (auto& v : tr) v = rng.gaussian(0.0, 0.5);
    tr[11] += (aes::reduced_target(p, key) & 1) ? 1.0 : 0.0;
    ts.add(p, tr);
  }
  DpaAccumulator acc(ts.samples_per_trace());
  TraceSetSource source(ts);
  TraceBatch batch;
  while (source.next(batch)) acc.add_batch(batch);
  const DpaResult r = acc.snapshot();
  EXPECT_EQ(r.best_guess, key);
}

TEST(Metrics, KeyRankCountsStrictlyBetterGuesses) {
  CpaResult r;
  r.peak_correlation.fill(0.1);
  r.peak_correlation[5] = 0.9;
  r.peak_correlation[7] = 0.5;
  EXPECT_EQ(r.key_rank(5), 0);
  EXPECT_EQ(r.key_rank(7), 1);
  EXPECT_GT(r.key_rank(0), 1);
  EXPECT_NEAR(r.margin(5), 0.4, 1e-12);
  EXPECT_NEAR(r.margin(7), -0.4, 1e-12);
}

TEST(Metrics, MtdFindsDisclosurePoint) {
  const std::uint8_t key = 0x42;
  // Moderate noise: needs a few hundred traces.
  const TraceSet ts = synthetic_traces(key, 2000, 1.0, 4.0);
  const std::size_t mtd = tracked_mtd(ts, key, 8);
  EXPECT_GT(mtd, 0u);
  EXPECT_LT(mtd, 2000u);
  // Cross-check: the attack with mtd traces indeed succeeds.
  TraceSetSource head(ts, mtd);
  const CpaResult r = cpa_attack(head);
  EXPECT_EQ(r.key_rank(key), 0);
}

TEST(Metrics, MtdZeroWhenNeverDisclosed) {
  util::Rng rng(77);
  TraceSet ts(20);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> tr(20);
    for (auto& v : tr) v = rng.gaussian(0.0, 1.0);
    ts.add(static_cast<std::uint8_t>(rng.bounded(256)), tr);
  }
  // Pure noise: with overwhelming probability some wrong key beats any fixed
  // "true" key on the final prefix.
  const std::size_t mtd = tracked_mtd(ts, 0x11, 4);
  EXPECT_EQ(mtd, 0u);
}

/// First-order-masked leakage: one sample leaks HW(v ^ m) + HW(m) for a
/// fresh random mask m, which hides v from any first-order attack.
TraceSet masked_traces(std::uint8_t key, std::size_t n, double noise,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  TraceSet ts(24);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    const auto m = static_cast<std::uint8_t>(rng.bounded(256));
    const std::uint8_t v = aes::reduced_target(p, key);
    std::vector<double> t(24);
    for (auto& x : t) x = rng.gaussian(0.0, noise);
    t[7] += util::hamming_weight(static_cast<std::uint8_t>(v ^ m));
    t[7] += util::hamming_weight(m);  // co-located shares (univariate case)
    ts.add(p, t);
  }
  return ts;
}

TEST(SecondOrder, FirstOrderCpaFailsOnMaskedLeak) {
  const std::uint8_t key = 0x3a;
  const TraceSet ts = masked_traces(key, 4000, 0.3, 9);
  const CpaResult first = cpa_attack(ts);
  EXPECT_GT(first.key_rank(key), 3);
}

}  // namespace
}  // namespace pgmcml::sca
