// Plaintext-bucketed CPA/DPA/MLPA engines in the MCML regime: traces whose
// DC level dwarfs the planted Hamming-weight signal by >= 10^4.  The
// engines centre per-plaintext bucket sums at snapshot time, which cancels
// the DC catastrophically unless the buckets hold sums of (s - ref) for a
// reference row near the traces.  These tests pin the snapshots against a
// long-double two-pass reference tightly enough that the unshifted variant
// fails, and pin the engines' bitwise batching / thread-count contract on
// the saved state AND on the (parallel) snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"
#include "support/one_trace.hpp"

namespace pgmcml::sca {
namespace {

constexpr std::uint8_t kKey = 0x3c;
constexpr std::size_t kSamples = 24;
constexpr std::size_t kLeakAt = 9;

/// Flat, MCML-like traces: a per-sample DC level around 2.5 plus noise of
/// 2e-5 and a HW leak of 1e-5 per bit at kLeakAt (DC / signal >= 2.5e5),
/// with single-bit leaks of S-box bits 0 and 5 at two other samples.
TraceSet near_dc_traces(std::size_t n, std::uint64_t seed = 21) {
  util::Rng rng(seed);
  TraceSet ts(kSamples);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    const std::uint8_t v = aes::reduced_target(p, kKey);
    std::vector<double> tr(kSamples);
    for (std::size_t j = 0; j < kSamples; ++j) {
      tr[j] = 2.5 + 0.1 * std::sin(static_cast<double>(j)) +
              rng.gaussian(0.0, 2e-5);
    }
    tr[kLeakAt] += 1e-5 * util::hamming_weight(v);
    tr[3] += (v & 1) ? 2e-5 : 0.0;
    tr[15] += ((v >> 5) & 1) ? 2e-5 : 0.0;
    ts.add(p, tr);
  }
  return ts;
}

using Wide = long double;

/// Relative error bound on the DPA / MLPA partition statistics.
constexpr double kPartitionBound = 1e-13;

/// Long-double two-pass Pearson correlation per (sample, guess).
std::vector<std::array<Wide, 256>> reference_correlation(const TraceSet& ts) {
  const std::size_t n = ts.num_traces();
  const std::size_t m = ts.samples_per_trace();
  std::vector<std::vector<Wide>> ds(m, std::vector<Wide>(n));
  std::vector<Wide> sss(m, 0);
  for (std::size_t j = 0; j < m; ++j) {
    Wide mean_s = 0;
    for (std::size_t i = 0; i < n; ++i) mean_s += ts.trace(i)[j];
    mean_s /= static_cast<Wide>(n);
    for (std::size_t i = 0; i < n; ++i) {
      ds[j][i] = ts.trace(i)[j] - mean_s;
      sss[j] += ds[j][i] * ds[j][i];
    }
  }
  std::vector<std::array<Wide, 256>> corr(m);
  std::vector<Wide> dh(n);
  for (std::size_t k = 0; k < 256; ++k) {
    Wide mean_h = 0;
    for (std::size_t i = 0; i < n; ++i) {
      dh[i] = predict_leakage(LeakageModel::kHammingWeight, ts.plaintext(i),
                              static_cast<std::uint8_t>(k));
      mean_h += dh[i];
    }
    mean_h /= static_cast<Wide>(n);
    Wide ssh = 0;
    for (std::size_t i = 0; i < n; ++i) {
      dh[i] -= mean_h;
      ssh += dh[i] * dh[i];
    }
    for (std::size_t j = 0; j < m; ++j) {
      Wide num = 0;
      for (std::size_t i = 0; i < n; ++i) num += dh[i] * ds[j][i];
      corr[j][k] = num / std::sqrt(ssh * sss[j]);
    }
  }
  return corr;
}

/// Long-double difference of means mean1 - mean0 per (guess, bit, sample),
/// partitioning on bit b of S(p ^ k); rows [k * 8 + b] of m samples.
std::vector<Wide> reference_partition_diffs(const TraceSet& ts) {
  const std::size_t n = ts.num_traces();
  const std::size_t m = ts.samples_per_trace();
  // Centre on the long-double column mean first, so the reference itself
  // does not pay the DC cancellation it is checking for.
  std::vector<Wide> mean(m, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) mean[j] += ts.trace(i)[j];
  }
  for (auto& v : mean) v /= static_cast<Wide>(n);
  std::vector<Wide> diff(256 * 8 * m, 0);
  for (int k = 0; k < 256; ++k) {
    for (int b = 0; b < 8; ++b) {
      std::vector<Wide> sum1(m, 0), sum0(m, 0);
      std::size_t n1 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool bit = ((aes::reduced_target(ts.plaintext(i),
                                               static_cast<std::uint8_t>(k)) >>
                           b) &
                          1) != 0;
        n1 += bit ? 1 : 0;
        auto& sums = bit ? sum1 : sum0;
        for (std::size_t j = 0; j < m; ++j) sums[j] += ts.trace(i)[j] - mean[j];
      }
      const std::size_t n0 = n - n1;
      const std::size_t row =
          (static_cast<std::size_t>(k) * 8 + static_cast<std::size_t>(b)) * m;
      for (std::size_t j = 0; j < m; ++j) {
        diff[row + j] =
            sum1[j] / static_cast<Wide>(n1) - sum0[j] / static_cast<Wide>(n0);
      }
    }
  }
  return diff;
}

template <typename Acc>
Acc accumulate(const TraceSet& ts, Acc acc, std::size_t batch_size) {
  TraceSetSource source(ts, TraceSetSource::kNoLimit, batch_size);
  TraceBatch batch;
  while (source.next(batch)) acc.add_batch(batch);
  return acc;
}

template <typename Acc>
std::string serialized(const Acc& acc) {
  SnapshotWriter w;
  acc.save(w);
  return w.take();
}

TEST(BucketPrecision, HypothesesDependOnlyOnTheSboxIndex) {
  // The XOR-convolution premise of the bucketed engines.
  for (const LeakageModel model :
       {LeakageModel::kHammingWeight, LeakageModel::kSboxBit0,
        LeakageModel::kIdentity}) {
    for (int p = 0; p < 256; ++p) {
      for (int k = 0; k < 256; ++k) {
        ASSERT_EQ(predict_leakage(model, static_cast<std::uint8_t>(p),
                                  static_cast<std::uint8_t>(k)),
                  predict_leakage(model, static_cast<std::uint8_t>(p ^ k), 0));
      }
    }
  }
}

TEST(BucketPrecision, CpaMatchesLongDoubleReferenceOnNearDcTraces) {
  const TraceSet ts = near_dc_traces(3000);
  const CpaResult got =
      accumulate(ts, CpaAccumulator(LeakageModel::kHammingWeight, kSamples),
                 128)
          .snapshot(/*keep_time_curves=*/true);
  const auto ref = reference_correlation(ts);
  ASSERT_EQ(got.correlation_vs_time.size(), kSamples);
  double worst = 0.0;
  for (std::size_t j = 0; j < kSamples; ++j) {
    for (std::size_t k = 0; k < 256; ++k) {
      worst = std::max(worst, static_cast<double>(std::fabs(
                                  got.correlation_vs_time[j][k] - ref[j][k])));
    }
  }
  EXPECT_LE(worst, 1e-13);
  for (std::size_t k = 0; k < 256; ++k) {
    Wide peak = 0;
    for (std::size_t j = 0; j < kSamples; ++j) {
      peak = std::max(peak, std::fabs(ref[j][k]));
    }
    EXPECT_NEAR(got.peak_correlation[k], static_cast<double>(peak), 1e-13)
        << "guess " << k;
  }
  EXPECT_EQ(got.key_rank(kKey), 0);
}

TEST(BucketPrecision, DpaAndMlpaMatchLongDoubleReferenceOnNearDcTraces) {
  const TraceSet ts = near_dc_traces(2000);
  const auto ref = reference_partition_diffs(ts);
  const DpaResult dpa =
      accumulate(ts, DpaAccumulator(kSamples), 128).snapshot();
  const MlpaResult mlpa =
      accumulate(ts, MlpaAccumulator(kSamples), 128).snapshot();

  std::array<Wide, 256> dpa_ref{};
  std::array<Wide, 256> mlpa_ref{};
  for (std::size_t k = 0; k < 256; ++k) {
    Wide peak_sq = 0;
    for (std::size_t j = 0; j < kSamples; ++j) {
      Wide sq = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        const Wide d = ref[(k * 8 + b) * kSamples + j];
        sq += d * d;
        if (b == 0) dpa_ref[k] = std::max(dpa_ref[k], std::fabs(d));
      }
      peak_sq = std::max(peak_sq, sq);
    }
    mlpa_ref[k] = std::sqrt(peak_sq);
  }
  // The statistics are differences of means of ~1e-5; errors are measured
  // relative to the largest one.
  const Wide dpa_scale = *std::max_element(dpa_ref.begin(), dpa_ref.end());
  const Wide mlpa_scale = *std::max_element(mlpa_ref.begin(), mlpa_ref.end());
  double dpa_worst = 0.0;
  double mlpa_worst = 0.0;
  for (std::size_t k = 0; k < 256; ++k) {
    const Wide dpa_err = std::fabs(dpa.peak_difference[k] - dpa_ref[k]);
    const Wide mlpa_err = std::fabs(mlpa.score[k] - mlpa_ref[k]);
    dpa_worst = std::max(dpa_worst, static_cast<double>(dpa_err / dpa_scale));
    mlpa_worst =
        std::max(mlpa_worst, static_cast<double>(mlpa_err / mlpa_scale));
  }
  EXPECT_LE(dpa_worst, kPartitionBound);
  EXPECT_LE(mlpa_worst, kPartitionBound);
  EXPECT_EQ(dpa.best_guess, kKey);
  EXPECT_EQ(mlpa.key_rank(kKey), 0);
}

TEST(BucketPrecision, MergedShardsMatchTheReferenceToo) {
  // Shards with different reference rows re-shift onto the first one.
  const TraceSet ts = near_dc_traces(1200, 5);
  CpaAccumulator merged(LeakageModel::kHammingWeight, kSamples);
  for (std::size_t lo = 0; lo < ts.num_traces(); lo += 300) {
    CpaAccumulator shard(LeakageModel::kHammingWeight, kSamples);
    for (std::size_t i = lo; i < lo + 300; ++i) {
      shard.add(ts.plaintext(i), ts.trace(i));
    }
    merged.merge(shard);
  }
  const CpaResult got = merged.snapshot(true);
  const auto ref = reference_correlation(ts);
  for (std::size_t j = 0; j < kSamples; ++j) {
    for (std::size_t k = 0; k < 256; ++k) {
      ASSERT_NEAR(got.correlation_vs_time[j][k],
                  static_cast<double>(ref[j][k]), 1e-13)
          << "sample " << j << " guess " << k;
    }
  }
}

/// Every bucketed engine: save() bytes and snapshot bits are identical for
/// one-trace batches, any batch split, and any worker count.
template <typename Acc, typename Make, typename Bits>
void expect_bitwise_invariance(const TraceSet& ts, Make make, Bits bits) {
  Acc serial = make();
  for (std::size_t i = 0; i < ts.num_traces(); ++i) {
    add_one(serial, ts.plaintext(i), ts.trace(i));
  }
  const std::string golden = serialized(serial);
  const std::string golden_bits = bits(serial);
  for (const std::size_t threads : {1ul, 4ul}) {
    const std::size_t prev = util::set_parallel_threads(threads);
    for (const std::size_t batch : {1ul, 7ul, 64ul, 1000ul}) {
      const Acc acc = accumulate(ts, make(), batch);
      EXPECT_EQ(serialized(acc), golden)
          << "threads " << threads << " batch " << batch;
      EXPECT_EQ(bits(acc), golden_bits)
          << "threads " << threads << " batch " << batch;
    }
    util::set_parallel_threads(prev);
  }
}

template <typename T>
std::string raw_bytes(const T& v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

TEST(BucketedEngines, SaveAndSnapshotAreBitwiseAcrossBatchingAndThreads) {
  // 70 samples: several snapshot column blocks, the last one ragged.
  util::Rng rng(8);
  TraceSet ts(70);
  for (int i = 0; i < 301; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.bounded(256));
    std::vector<double> tr(70);
    for (auto& v : tr) v = 1.0 + rng.gaussian(0.0, 0.1);
    tr[40] += 0.05 * util::hamming_weight(aes::reduced_target(p, 0x11));
    ts.add(p, tr);
  }
  expect_bitwise_invariance<CpaAccumulator>(
      ts, [] { return CpaAccumulator(LeakageModel::kHammingWeight, 70); },
      [](const CpaAccumulator& a) {
        const CpaResult r = a.snapshot(true);
        std::string out = raw_bytes(r.peak_correlation);
        for (const auto& row : r.correlation_vs_time) out += raw_bytes(row);
        return out;
      });
  expect_bitwise_invariance<DpaAccumulator>(
      ts, [] { return DpaAccumulator(70); },
      [](const DpaAccumulator& a) {
        return raw_bytes(a.snapshot().peak_difference);
      });
  expect_bitwise_invariance<MlpaAccumulator>(
      ts, [] { return MlpaAccumulator(70); },
      [](const MlpaAccumulator& a) { return raw_bytes(a.snapshot().score); });
}

}  // namespace
}  // namespace pgmcml::sca
