#include "pgmcml/sca/accumulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::sca {

namespace {

/// Column-block width shared by the streaming engines: fixed, so the
/// per-column update sequence never depends on the worker count.
constexpr std::size_t kColBlock = 64;

/// Per-engine obs counters (rows folded in, bytes streamed, merges).  Handles
/// are resolved once per engine and bumped outside the parallel regions, so
/// the hot column loops stay untouched and the totals are thread-invariant.
struct EngineCounters {
  obs::Counter rows;
  obs::Counter bytes;
  obs::Counter merges;

  explicit EngineCounters(const std::string& prefix)
      : rows(obs::Registry::global().counter(prefix + ".rows_merged")),
        bytes(obs::Registry::global().counter(prefix + ".bytes_streamed")),
        merges(obs::Registry::global().counter(prefix + ".merges")) {}

  void note_rows(std::size_t n, std::size_t samples) {
    rows.add(n);
    bytes.add(n * samples * sizeof(double));
  }
};

EngineCounters& cpa_obs() {
  static EngineCounters c("sca.cpa");
  return c;
}
EngineCounters& dpa_obs() {
  static EngineCounters c("sca.dpa");
  return c;
}
EngineCounters& tvla_obs() {
  static EngineCounters c("sca.tvla");
  return c;
}
EngineCounters& static_obs() {
  static EngineCounters c("sca.static");
  return c;
}
EngineCounters& mlpa_obs() {
  static EngineCounters c("sca.mlpa");
  return c;
}

void check_trace_width(std::size_t got, std::size_t want, const char* who) {
  if (got != want) {
    throw std::invalid_argument(std::string(who) +
                                ": sample-count mismatch (ragged trace)");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PlaintextBuckets and the Walsh-Hadamard snapshot kernel.
//
// A hypothesis h(p, k) = f(S(p ^ k)) makes every per-guess statistic an
// XOR-convolution over the plaintext axis: for the centred bucket column D,
//   sum_i (h_ik - mean_h_k)(s_ij - mean_s_j) = sum_p f(S(p ^ k)) D[p][j],
// because sum_p D[p][j] = 0.  The unnormalized transform H (H * H = 256 I)
// diagonalizes XOR-convolution, so all 256 guesses of a column cost one
// forward transform of D, a pointwise product with H f, and one inverse.

namespace {

/// Snapshot column-block width: fixed, so the per-column arithmetic never
/// depends on the worker count.  256 x 16 doubles = 32 KiB per block buffer.
constexpr std::size_t kSpectrumBlock = 16;

/// In-place unnormalized Walsh-Hadamard transform over the 256 rows of a
/// row-major 256 x w block (one transform per column).  Each pass fuses two
/// radix-2 stages into a radix-4 butterfly: the same sums and differences
/// in the same order, with half the sweeps over the block.
void fwht256(double* a, std::size_t w) {
  for (std::size_t h = 1; h < 256; h <<= 2) {
    for (std::size_t i = 0; i < 256; i += 4 * h) {
      for (std::size_t p = i; p < i + h; ++p) {
        double* r0 = a + p * w;
        double* r1 = r0 + h * w;
        double* r2 = r1 + h * w;
        double* r3 = r2 + h * w;
        for (std::size_t c = 0; c < w; ++c) {
          const double s01 = r0[c] + r1[c];
          const double d01 = r0[c] - r1[c];
          const double s23 = r2[c] + r3[c];
          const double d23 = r2[c] - r3[c];
          r0[c] = s01 + s23;
          r1[c] = d01 + d23;
          r2[c] = s01 - s23;
          r3[c] = d01 - d23;
        }
      }
    }
  }
}

/// Hypothesis function of the S-box output index x = p ^ k.
using SboxFunction = std::array<double, 256>;

/// H f / 256 with the DC term zeroed: the transform side of an
/// XOR-convolution with the centred f.  Dropping the DC term is exact in
/// real arithmetic (sum_p D = 0) and discards the rounding residue of D's
/// column sum.
SboxFunction centred_spectrum_of(const SboxFunction& f) {
  SboxFunction hat = f;
  fwht256(hat.data(), 1);
  hat[0] = 0.0;
  for (double& v : hat) v /= 256.0;  // exact: power of two
  return hat;
}

/// Leakage-model values f(x) with predict_leakage(model, p, k) = f(p ^ k).
SboxFunction model_function(LeakageModel model) {
  SboxFunction f{};
  for (int x = 0; x < 256; ++x) {
    f[static_cast<std::size_t>(x)] =
        predict_leakage(model, static_cast<std::uint8_t>(x), 0);
  }
  return f;
}

/// Bit b of the S-box output, as a function of x = p ^ k.
SboxFunction sbox_bit_function(int b) {
  SboxFunction f{};
  for (int x = 0; x < 256; ++x) {
    f[static_cast<std::size_t>(x)] =
        (aes::reduced_target(static_cast<std::uint8_t>(x), 0) >> b) & 1;
  }
  return f;
}

/// out[k][c] = sum_p f(p ^ k) D[p][c] for a 256 x w block, from the block's
/// spectrum and centred_spectrum_of(f).
void xor_convolve(const double* spectrum, const SboxFunction& f_hat,
                  std::size_t w, double* out) {
  for (std::size_t k = 0; k < 256; ++k) {
    const double g = f_hat[k];
    const double* in = spectrum + k * w;
    double* o = out + k * w;
    for (std::size_t c = 0; c < w; ++c) o[c] = g * in[c];
  }
  fwht256(out, w);
}

/// Per S-box output bit b, N / (n1 * n0) for every guess k, where n1 counts
/// the traces whose bit b of S(p ^ k) is 1: the factor turning the bit-1
/// partition's centred sum E into mean1 - mean0 (the bit-0 partition's
/// centred sum is -E).  0 where a partition is empty: the bit is unusable.
std::array<std::array<double, 256>, 8> partition_scales(
    const std::array<std::uint64_t, 256>& counts, std::size_t n) {
  std::array<std::array<std::uint64_t, 256>, 8> ones{};
  for (std::size_t p = 0; p < 256; ++p) {
    const std::uint64_t c = counts[p];
    if (c == 0) continue;
    for (std::size_t k = 0; k < 256; ++k) {
      const std::uint8_t v = aes::reduced_target(
          static_cast<std::uint8_t>(p), static_cast<std::uint8_t>(k));
      for (std::size_t b = 0; b < 8; ++b) ones[b][k] += c * ((v >> b) & 1u);
    }
  }
  const double total = static_cast<double>(n);
  std::array<std::array<double, 256>, 8> scale{};
  for (std::size_t b = 0; b < 8; ++b) {
    for (std::size_t k = 0; k < 256; ++k) {
      const double n1 = static_cast<double>(ones[b][k]);
      const double n0 = total - n1;
      scale[b][k] = n1 > 0.0 && n0 > 0.0 ? total / (n1 * n0) : 0.0;
    }
  }
  return scale;
}

std::size_t spectrum_blocks(std::size_t m) {
  return (m + kSpectrumBlock - 1) / kSpectrumBlock;
}

/// Runs `block(blk, lo, hi, spectrum)` on every fixed column block in
/// parallel, each with its own 256 x (hi - lo) spectrum of the centred
/// buckets.
template <typename BlockFn>
void for_each_spectrum_block(const PlaintextBuckets& buckets, BlockFn block) {
  const std::size_t m = buckets.samples();
  util::parallel_for(
      spectrum_blocks(m),
      [&](std::size_t blk) {
        const std::size_t lo = blk * kSpectrumBlock;
        const std::size_t hi = std::min(m, lo + kSpectrumBlock);
        std::vector<double> spectrum(256 * (hi - lo));
        buckets.centred_spectrum(lo, hi, spectrum.data());
        block(blk, lo, hi, spectrum.data());
      },
      /*grain=*/1);
}

/// Per-guess maximum over the per-block maxima, in block order.
std::array<double, 256> reduce_block_peaks(
    const std::vector<std::array<double, 256>>& block_peaks) {
  std::array<double, 256> peak{};
  for (const auto& bp : block_peaks) {
    for (std::size_t k = 0; k < 256; ++k) peak[k] = std::max(peak[k], bp[k]);
  }
  return peak;
}

int argmax(const std::array<double, 256>& v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

/// Per guess k, the max over samples of sqrt(sum_{b < bits} d_b^2), where
/// d_b = mean1 - mean0 partitions the traces on bit b of S(p ^ k): bits = 1
/// is classic DPA's |d_0|, bits = 8 the multi-linear MLPA score.  d_b is
/// the bit-1 partition's centred sum times partition_scales(); a bit with
/// an empty partition drops out.
std::array<double, 256> partition_peaks(const PlaintextBuckets& buckets,
                                        int bits) {
  const auto scale = partition_scales(buckets.counts(), buckets.num_traces());
  std::vector<SboxFunction> bit_hat;
  for (int b = 0; b < bits; ++b) {
    bit_hat.push_back(centred_spectrum_of(sbox_bit_function(b)));
  }
  std::vector<std::array<double, 256>> block_peaks(
      spectrum_blocks(buckets.samples()));
  for_each_spectrum_block(buckets, [&](std::size_t blk, std::size_t lo,
                                       std::size_t hi,
                                       const double* spectrum) {
    const std::size_t w = hi - lo;
    std::vector<double> sums(256 * w);
    std::vector<double> sq(256 * w, 0.0);
    for (int b = 0; b < bits; ++b) {
      xor_convolve(spectrum, bit_hat[static_cast<std::size_t>(b)], w,
                   sums.data());
      const auto& sb = scale[static_cast<std::size_t>(b)];
      for (std::size_t k = 0; k < 256; ++k) {
        const double* row = sums.data() + k * w;
        double* acc = sq.data() + k * w;
        for (std::size_t c = 0; c < w; ++c) {
          const double diff = row[c] * sb[k];
          acc[c] += diff * diff;
        }
      }
    }
    auto& peak = block_peaks[blk];
    for (std::size_t k = 0; k < 256; ++k) {
      const double* acc = sq.data() + k * w;
      for (std::size_t c = 0; c < w; ++c) peak[k] = std::max(peak[k], acc[c]);
    }
  });
  std::array<double, 256> peak = reduce_block_peaks(block_peaks);
  for (double& v : peak) v = std::sqrt(v);
  return peak;
}

}  // namespace

PlaintextBuckets::PlaintextBuckets(std::size_t samples)
    : m_(samples), ref_(samples, 0.0), sum_(256 * samples, 0.0) {}

void PlaintextBuckets::add_batch(const TraceBatch& batch) {
  const std::size_t nb = batch.size();
  if (nb == 0) return;
  if (n_ == 0) ref_.assign(batch.traces[0].begin(), batch.traces[0].end());
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint8_t p = batch.plaintexts[i];
    const double* t = batch.traces[i].data();
    double* row = sum_.data() + static_cast<std::size_t>(p) * m_;
    for (std::size_t j = 0; j < m_; ++j) row[j] += t[j] - ref_[j];
    ++count_[p];
  }
  n_ += nb;
}

void PlaintextBuckets::merge(const PlaintextBuckets& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  std::vector<double> shift(m_);
  for (std::size_t j = 0; j < m_; ++j) shift[j] = other.ref_[j] - ref_[j];
  for (std::size_t p = 0; p < 256; ++p) {
    if (other.count_[p] == 0) continue;
    const double cnt = static_cast<double>(other.count_[p]);
    double* row = sum_.data() + p * m_;
    const double* orow = other.sum_.data() + p * m_;
    for (std::size_t j = 0; j < m_; ++j) row[j] += orow[j] + cnt * shift[j];
    count_[p] += other.count_[p];
  }
  n_ += other.n_;
}

void PlaintextBuckets::centred_spectrum(std::size_t lo, std::size_t hi,
                                        double* out) const {
  const std::size_t w = hi - lo;
  std::vector<double> mean(w, 0.0);
  for (std::size_t p = 0; p < 256; ++p) {
    const double* row = sum_.data() + p * m_ + lo;
    for (std::size_t c = 0; c < w; ++c) mean[c] += row[c];
  }
  const double n = static_cast<double>(n_);
  for (double& v : mean) v /= n;
  for (std::size_t p = 0; p < 256; ++p) {
    const double cnt = static_cast<double>(count_[p]);
    const double* row = sum_.data() + p * m_ + lo;
    double* o = out + p * w;
    for (std::size_t c = 0; c < w; ++c) o[c] = row[c] - cnt * mean[c];
  }
  fwht256(out, w);
}

// ---------------------------------------------------------------------------
// CpaAccumulator

CpaAccumulator::CpaAccumulator(LeakageModel model, std::size_t samples)
    : model_(model),
      m_(samples),
      buckets_(samples),
      mean_s_(samples, 0.0),
      m2_s_(samples, 0.0) {}

void CpaAccumulator::add(std::uint8_t plaintext,
                         std::span<const double> trace) {
  TraceBatch one;
  one.add(plaintext, trace);
  add_batch(one);
}

void CpaAccumulator::add_batch(const TraceBatch& batch) {
  const std::size_t nb = batch.size();
  if (nb == 0) return;
  for (const auto& t : batch.traces) {
    check_trace_width(t.size(), m_, "CpaAccumulator");
  }
  const std::size_t n0 = buckets_.num_traces();
  buckets_.add_batch(batch);
  // Welford over the shifted samples s - ref, serial in trace order.
  const std::vector<double>& ref = buckets_.reference();
  for (std::size_t i = 0; i < nb; ++i) {
    const double cnt = static_cast<double>(n0 + i + 1);
    const double* t = batch.traces[i].data();
    for (std::size_t j = 0; j < m_; ++j) {
      const double x = t[j] - ref[j];
      const double dx = x - mean_s_[j];
      mean_s_[j] += dx / cnt;
      m2_s_[j] += dx * (x - mean_s_[j]);
    }
  }
  cpa_obs().note_rows(nb, m_);
}

void CpaAccumulator::merge(const CpaAccumulator& other) {
  cpa_obs().merges.add(1);
  if (other.model_ != model_ || other.m_ != m_) {
    throw std::invalid_argument(
        "CpaAccumulator::merge: model/sample-count mismatch");
  }
  if (other.num_traces() == 0) return;
  if (num_traces() == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(num_traces());
  const double nb = static_cast<double>(other.num_traces());
  const double n = na + nb;
  const double w = na * nb / n;  // Chan's cross-term weight
  const std::vector<double>& ref = buckets_.reference();
  const std::vector<double>& oref = other.buckets_.reference();
  for (std::size_t j = 0; j < m_; ++j) {
    // The other side's mean, re-shifted onto this reference row.
    const double ds = (other.mean_s_[j] + (oref[j] - ref[j])) - mean_s_[j];
    m2_s_[j] += other.m2_s_[j] + ds * ds * w;
    mean_s_[j] += ds * nb / n;
  }
  buckets_.merge(other.buckets_);
}

CpaResult CpaAccumulator::snapshot(bool keep_time_curves) const {
  CpaResult result;
  const std::size_t n = num_traces();
  if (n < 2 || m_ == 0) return result;

  // Hypothesis side, exact from the plaintext counts (two-pass per guess):
  // inv_h[k] = 1 / sqrt(sum_i (h_ik - mean_h_k)^2), 0 for a constant guess.
  const std::array<std::uint64_t, 256>& counts = buckets_.counts();
  const SboxFunction f = model_function(model_);
  std::array<double, 256> inv_h{};
  for (std::size_t k = 0; k < 256; ++k) {
    double sum = 0.0;
    for (std::size_t p = 0; p < 256; ++p) {
      sum += static_cast<double>(counts[p]) * f[p ^ k];
    }
    const double mean = sum / static_cast<double>(n);
    double m2 = 0.0;
    for (std::size_t p = 0; p < 256; ++p) {
      const double d = f[p ^ k] - mean;
      m2 += static_cast<double>(counts[p]) * d * d;
    }
    inv_h[k] = m2 > 0.0 ? 1.0 / std::sqrt(m2) : 0.0;
  }

  if (keep_time_curves) result.correlation_vs_time.assign(m_, {});
  const SboxFunction f_hat = centred_spectrum_of(f);
  std::vector<std::array<double, 256>> block_peaks(spectrum_blocks(m_));
  for_each_spectrum_block(buckets_, [&](std::size_t blk, std::size_t lo,
                                        std::size_t hi,
                                        const double* spectrum) {
    const std::size_t w = hi - lo;
    std::vector<double> comoment(256 * w);
    xor_convolve(spectrum, f_hat, w, comoment.data());
    std::vector<double> inv_s(w);
    for (std::size_t c = 0; c < w; ++c) {
      const double m2 = m2_s_[lo + c];
      inv_s[c] = m2 > 0.0 ? 1.0 / std::sqrt(m2) : 0.0;
    }
    auto& peak = block_peaks[blk];
    for (std::size_t k = 0; k < 256; ++k) {
      const double* row = comoment.data() + k * w;
      for (std::size_t c = 0; c < w; ++c) {
        const double corr = row[c] * inv_s[c] * inv_h[k];
        if (keep_time_curves) result.correlation_vs_time[lo + c][k] = corr;
        peak[k] = std::max(peak[k], std::fabs(corr));
      }
    }
  });
  result.peak_correlation = reduce_block_peaks(block_peaks);
  result.best_guess = argmax(result.peak_correlation);
  return result;
}

// ---------------------------------------------------------------------------
// DpaAccumulator

DpaAccumulator::DpaAccumulator(std::size_t samples)
    : m_(samples), buckets_(samples) {}

void DpaAccumulator::add_batch(const TraceBatch& batch) {
  const std::size_t nb = batch.size();
  if (nb == 0) return;
  for (const auto& t : batch.traces) {
    check_trace_width(t.size(), m_, "DpaAccumulator");
  }
  buckets_.add_batch(batch);
  dpa_obs().note_rows(nb, m_);
}

void DpaAccumulator::merge(const DpaAccumulator& other) {
  dpa_obs().merges.add(1);
  if (other.m_ != m_) {
    throw std::invalid_argument("DpaAccumulator::merge: sample-count mismatch");
  }
  buckets_.merge(other.buckets_);
}

DpaResult DpaAccumulator::snapshot() const {
  DpaResult result;
  if (num_traces() < 2 || m_ == 0) return result;
  result.peak_difference = partition_peaks(buckets_, 1);
  result.best_guess = argmax(result.peak_difference);
  return result;
}

// ---------------------------------------------------------------------------
// TvlaAccumulator

TvlaAccumulator::TvlaAccumulator(std::size_t samples)
    : m_(samples),
      mean_a_(samples, 0.0),
      m2_a_(samples, 0.0),
      mean_b_(samples, 0.0),
      m2_b_(samples, 0.0) {}

void TvlaAccumulator::add(bool is_fixed, std::span<const double> trace) {
  check_trace_width(trace.size(), m_, "TvlaAccumulator");
  std::size_t& n = is_fixed ? na_ : nb_;
  std::vector<double>& mean = is_fixed ? mean_a_ : mean_b_;
  std::vector<double>& m2 = is_fixed ? m2_a_ : m2_b_;
  const double cnt = static_cast<double>(++n);
  for (std::size_t j = 0; j < m_; ++j) {
    const double d = trace[j] - mean[j];
    mean[j] += d / cnt;
    m2[j] += d * (trace[j] - mean[j]);
  }
  tvla_obs().note_rows(1, m_);
}

void TvlaAccumulator::add_batch(const TraceBatch& batch,
                                std::uint8_t fixed_plaintext) {
  const std::size_t nb = batch.size();
  if (nb == 0) return;
  for (const auto& t : batch.traces) {
    check_trace_width(t.size(), m_, "TvlaAccumulator");
  }
  if (is_fixed_scratch_.size() < nb) is_fixed_scratch_.resize(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    is_fixed_scratch_[i] = batch.plaintexts[i] == fixed_plaintext ? 1 : 0;
  }

  const std::size_t col_blocks = (m_ + kColBlock - 1) / kColBlock;
  util::parallel_for(
      col_blocks,
      [&](std::size_t blk) {
        const std::size_t j_lo = blk * kColBlock;
        const std::size_t j_hi = std::min(m_, j_lo + kColBlock);
        for (std::size_t j = j_lo; j < j_hi; ++j) {
          double mean_a = mean_a_[j], m2_a = m2_a_[j];
          double mean_b = mean_b_[j], m2_b = m2_b_[j];
          std::size_t na = na_, nbr = nb_;
          for (std::size_t i = 0; i < nb; ++i) {
            const double s = batch.traces[i][j];
            if (is_fixed_scratch_[i]) {
              const double cnt = static_cast<double>(++na);
              const double d = s - mean_a;
              mean_a += d / cnt;
              m2_a += d * (s - mean_a);
            } else {
              const double cnt = static_cast<double>(++nbr);
              const double d = s - mean_b;
              mean_b += d / cnt;
              m2_b += d * (s - mean_b);
            }
          }
          mean_a_[j] = mean_a;
          m2_a_[j] = m2_a;
          mean_b_[j] = mean_b;
          m2_b_[j] = m2_b;
        }
      },
      /*grain=*/1);

  for (std::size_t i = 0; i < nb; ++i) {
    if (is_fixed_scratch_[i]) {
      ++na_;
    } else {
      ++nb_;
    }
  }
  tvla_obs().note_rows(nb, m_);
}

void TvlaAccumulator::merge(const TvlaAccumulator& other) {
  tvla_obs().merges.add(1);
  if (other.m_ != m_) {
    throw std::invalid_argument(
        "TvlaAccumulator::merge: sample-count mismatch");
  }
  const auto merge_class = [this](std::size_t& n, std::vector<double>& mean,
                                  std::vector<double>& m2, std::size_t on,
                                  const std::vector<double>& omean,
                                  const std::vector<double>& om2) {
    if (on == 0) return;
    const double na = static_cast<double>(n);
    const double nb = static_cast<double>(on);
    const double w = na * nb / (na + nb);
    for (std::size_t j = 0; j < m_; ++j) {
      const double d = omean[j] - mean[j];
      m2[j] += om2[j] + d * d * w;
      mean[j] += d * nb / (na + nb);
    }
    n += on;
  };
  merge_class(na_, mean_a_, m2_a_, other.na_, other.mean_a_, other.m2_a_);
  merge_class(nb_, mean_b_, m2_b_, other.nb_, other.mean_b_, other.m2_b_);
}

TvlaResult TvlaAccumulator::snapshot() const {
  TvlaResult result;
  result.fixed_traces = na_;
  result.random_traces = nb_;
  if (na_ < 2 || nb_ < 2) return result;
  result.t_statistic.assign(m_, 0.0);
  const double na = static_cast<double>(na_);
  const double nb = static_cast<double>(nb_);
  for (std::size_t j = 0; j < m_; ++j) {
    const double var_a = m2_a_[j] / (na - 1.0);
    const double var_b = m2_b_[j] / (nb - 1.0);
    const double denom = std::sqrt(var_a / na + var_b / nb);
    const double t = denom > 0.0 ? (mean_a_[j] - mean_b_[j]) / denom : 0.0;
    result.t_statistic[j] = t;
    result.max_abs_t = std::max(result.max_abs_t, std::fabs(t));
  }
  return result;
}

// ---------------------------------------------------------------------------
// StaticPowerAccumulator

StaticPowerAccumulator::StaticPowerAccumulator(LeakageModel model,
                                               std::size_t samples,
                                               StaticWindow window)
    : model_(model), window_(window), m_(samples) {}

void StaticPowerAccumulator::add_batch(const TraceBatch& batch) {
  const std::size_t nb = batch.size();
  if (nb == 0) return;
  for (const auto& t : batch.traces) {
    check_trace_width(t.size(), m_, "StaticPowerAccumulator");
  }
  const auto [lo, hi] = static_window_bounds(window_, m_);
  const double width = static_cast<double>(hi - lo);
  // Serial fold: 257 Welford slots total, so parallelizing would only buy
  // contention.  Trace order fixes the arithmetic sequence per slot, which
  // is the whole batch/thread-invariance argument.
  for (std::size_t i = 0; i < nb; ++i) {
    const auto& t = batch.traces[i];
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += t[j];
    const double x = width > 0.0 ? sum / width : 0.0;

    const double cnt = static_cast<double>(++n_);
    const double dx = x - mean_x_;
    mean_x_ += dx / cnt;
    const double dx_new = x - mean_x_;
    m2_x_ += dx * dx_new;
    for (int k = 0; k < 256; ++k) {
      const double h = predict_leakage(model_, batch.plaintexts[i],
                                       static_cast<std::uint8_t>(k));
      const double dh = h - mean_h_[k];
      mean_h_[k] += dh / cnt;
      m2_h_[k] += dh * (h - mean_h_[k]);
      comoment_[k] += dh * dx_new;
    }
  }
  static_obs().note_rows(nb, m_);
}

void StaticPowerAccumulator::merge(const StaticPowerAccumulator& other) {
  static_obs().merges.add(1);
  if (other.model_ != model_ || other.window_ != window_ || other.m_ != m_) {
    throw std::invalid_argument(
        "StaticPowerAccumulator::merge: model/window/sample-count mismatch");
  }
  if (other.n_ == 0) return;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double w = na * nb / n;  // Chan's cross-term weight
  const double dx = other.mean_x_ - mean_x_;
  for (int k = 0; k < 256; ++k) {
    const double dh = other.mean_h_[k] - mean_h_[k];
    comoment_[k] += other.comoment_[k] + dh * dx * w;
    m2_h_[k] += other.m2_h_[k] + dh * dh * w;
    mean_h_[k] += dh * nb / n;
  }
  m2_x_ += other.m2_x_ + dx * dx * w;
  mean_x_ += dx * nb / n;
  n_ += other.n_;
}

StaticPowerResult StaticPowerAccumulator::snapshot() const {
  StaticPowerResult result;
  result.window = window_;
  result.traces = n_;
  if (n_ < 2) return result;
  for (int k = 0; k < 256; ++k) {
    const double denom = std::sqrt(m2_h_[k] * m2_x_);
    result.correlation[k] =
        denom > 0.0 ? std::fabs(comoment_[k] / denom) : 0.0;
  }
  result.best_guess = static_cast<int>(
      std::max_element(result.correlation.begin(), result.correlation.end()) -
      result.correlation.begin());
  return result;
}

// ---------------------------------------------------------------------------
// MlpaAccumulator

MlpaAccumulator::MlpaAccumulator(std::size_t samples)
    : m_(samples), buckets_(samples) {}

void MlpaAccumulator::add_batch(const TraceBatch& batch) {
  const std::size_t nb = batch.size();
  if (nb == 0) return;
  for (const auto& t : batch.traces) {
    check_trace_width(t.size(), m_, "MlpaAccumulator");
  }
  buckets_.add_batch(batch);
  mlpa_obs().note_rows(nb, m_);
}

void MlpaAccumulator::merge(const MlpaAccumulator& other) {
  mlpa_obs().merges.add(1);
  if (other.m_ != m_) {
    throw std::invalid_argument(
        "MlpaAccumulator::merge: sample-count mismatch");
  }
  buckets_.merge(other.buckets_);
}

MlpaResult MlpaAccumulator::snapshot() const {
  MlpaResult result;
  if (num_traces() < 2 || m_ == 0) return result;
  result.score = partition_peaks(buckets_, 8);
  result.best_guess = argmax(result.score);
  return result;
}

// ---------------------------------------------------------------------------
// Bitwise state serialization.  Every double crosses the boundary as its
// exact bit pattern (SnapshotWriter::f64), so save/load round-trips resume
// the identical arithmetic -- the invariant the campaign checkpoint tests
// pin with memcmp-level comparisons.  Scratch members (is_fixed_scratch_,
// GridMtdTracker::scratch_) are deliberately excluded: they carry no state
// between batches.  A format change bumps the tag's digit, so a stream of
// the previous layout fails expect_tag instead of loading as garbage.

namespace {

constexpr std::uint32_t kMaxLeakageModel =
    static_cast<std::uint32_t>(LeakageModel::kIdentity);

void save_span(SnapshotWriter& w, const double* data, std::size_t n) {
  w.f64_span(std::span<const double>(data, n));
}

void load_exact(SnapshotReader& r, double* data, std::size_t n) {
  std::vector<double> tmp;
  r.f64_into(tmp, n);
  std::copy(tmp.begin(), tmp.end(), data);
}

/// Reads a sample count and rejects one the remaining stream cannot hold as
/// `rows` rows of doubles, before anything is allocated for it.
std::size_t read_width(SnapshotReader& r, std::size_t rows, const char* who) {
  const auto m = static_cast<std::size_t>(r.u64());
  if (m > r.remaining() / (rows * sizeof(double))) {
    throw std::runtime_error(std::string(who) +
                             ": sample count exceeds stream");
  }
  return m;
}

}  // namespace

void PlaintextBuckets::save(SnapshotWriter& w) const {
  w.u64(n_);
  for (const std::uint64_t c : count_) w.u64(c);
  save_span(w, ref_.data(), ref_.size());
  save_span(w, sum_.data(), sum_.size());
}

void PlaintextBuckets::load(SnapshotReader& r) {
  n_ = static_cast<std::size_t>(r.u64());
  std::uint64_t total = 0;
  for (auto& c : count_) {
    c = r.u64();
    total += c;
  }
  if (total != n_) {
    throw std::runtime_error(
        "PlaintextBuckets::load: bucket counts do not sum to the trace count");
  }
  r.f64_into(ref_, m_);
  r.f64_into(sum_, 256 * m_);
}

void CpaAccumulator::save(SnapshotWriter& w) const {
  w.tag("CPA2");
  w.u32(static_cast<std::uint32_t>(model_));
  w.u64(m_);
  buckets_.save(w);
  save_span(w, mean_s_.data(), mean_s_.size());
  save_span(w, m2_s_.data(), m2_s_.size());
}

CpaAccumulator CpaAccumulator::load(SnapshotReader& r) {
  r.expect_tag("CPA2");
  const std::uint32_t model = r.u32();
  if (model > kMaxLeakageModel) {
    throw std::runtime_error("CpaAccumulator::load: unknown leakage model");
  }
  const std::size_t m = read_width(r, 256, "CpaAccumulator::load");
  CpaAccumulator acc(static_cast<LeakageModel>(model), m);
  acc.buckets_.load(r);
  r.f64_into(acc.mean_s_, m);
  r.f64_into(acc.m2_s_, m);
  return acc;
}

void DpaAccumulator::save(SnapshotWriter& w) const {
  w.tag("DPA2");
  w.u64(m_);
  buckets_.save(w);
}

DpaAccumulator DpaAccumulator::load(SnapshotReader& r) {
  r.expect_tag("DPA2");
  DpaAccumulator acc(read_width(r, 256, "DpaAccumulator::load"));
  acc.buckets_.load(r);
  return acc;
}

void TvlaAccumulator::save(SnapshotWriter& w) const {
  w.tag("TVL1");
  w.u64(m_);
  w.u64(na_);
  w.u64(nb_);
  save_span(w, mean_a_.data(), mean_a_.size());
  save_span(w, m2_a_.data(), m2_a_.size());
  save_span(w, mean_b_.data(), mean_b_.size());
  save_span(w, m2_b_.data(), m2_b_.size());
}

TvlaAccumulator TvlaAccumulator::load(SnapshotReader& r) {
  r.expect_tag("TVL1");
  const std::size_t m = read_width(r, 4, "TvlaAccumulator::load");
  TvlaAccumulator acc(m);
  acc.na_ = static_cast<std::size_t>(r.u64());
  acc.nb_ = static_cast<std::size_t>(r.u64());
  r.f64_into(acc.mean_a_, m);
  r.f64_into(acc.m2_a_, m);
  r.f64_into(acc.mean_b_, m);
  r.f64_into(acc.m2_b_, m);
  return acc;
}

void StaticPowerAccumulator::save(SnapshotWriter& w) const {
  w.tag("SPA1");
  w.u32(static_cast<std::uint32_t>(model_));
  w.u32(static_cast<std::uint32_t>(window_));
  w.u64(m_);
  w.u64(n_);
  save_span(w, mean_h_.data(), mean_h_.size());
  save_span(w, m2_h_.data(), m2_h_.size());
  w.f64(mean_x_);
  w.f64(m2_x_);
  save_span(w, comoment_.data(), comoment_.size());
}

StaticPowerAccumulator StaticPowerAccumulator::load(SnapshotReader& r) {
  r.expect_tag("SPA1");
  const std::uint32_t model = r.u32();
  if (model > kMaxLeakageModel) {
    throw std::runtime_error(
        "StaticPowerAccumulator::load: unknown leakage model");
  }
  const std::uint32_t window = r.u32();
  if (window > static_cast<std::uint32_t>(StaticWindow::kAsleep)) {
    throw std::runtime_error(
        "StaticPowerAccumulator::load: unknown static window");
  }
  const std::size_t m = static_cast<std::size_t>(r.u64());
  StaticPowerAccumulator acc(static_cast<LeakageModel>(model), m,
                             static_cast<StaticWindow>(window));
  acc.n_ = static_cast<std::size_t>(r.u64());
  load_exact(r, acc.mean_h_.data(), acc.mean_h_.size());
  load_exact(r, acc.m2_h_.data(), acc.m2_h_.size());
  acc.mean_x_ = r.f64();
  acc.m2_x_ = r.f64();
  load_exact(r, acc.comoment_.data(), acc.comoment_.size());
  return acc;
}

void MlpaAccumulator::save(SnapshotWriter& w) const {
  w.tag("MLP2");
  w.u64(m_);
  buckets_.save(w);
}

MlpaAccumulator MlpaAccumulator::load(SnapshotReader& r) {
  r.expect_tag("MLP2");
  MlpaAccumulator acc(read_width(r, 256, "MlpaAccumulator::load"));
  acc.buckets_.load(r);
  return acc;
}

// ---------------------------------------------------------------------------
// GridMtdTracker

namespace {

/// Snapshot tag of each tracker instantiation.
template <typename Acc>
constexpr char kTrackerTag[5] = "";
template <>
constexpr char kTrackerTag<CpaAccumulator>[5] = "MTD1";
template <>
constexpr char kTrackerTag<StaticPowerAccumulator>[5] = "SMT1";
template <>
constexpr char kTrackerTag<MlpaAccumulator>[5] = "MMT1";

}  // namespace

template <typename Acc>
GridMtdTracker<Acc>::GridMtdTracker(Acc acc, std::uint8_t true_key,
                                    std::size_t expected_traces,
                                    std::size_t grid_points)
    : acc_(std::move(acc)), true_key_(true_key) {
  // Same grid as the prefix-rerun implementation; an empty grid (campaign
  // too small, degenerate grid) makes finish() report "never disclosed".
  if (expected_traces >= 4 && grid_points >= 2) {
    for (std::size_t g = 1; g <= grid_points; ++g) {
      grid_.push_back(
          std::max<std::size_t>(4, g * expected_traces / grid_points));
    }
    success_.assign(grid_.size(), 0);
  }
}

template <typename Acc>
void GridMtdTracker<Acc>::add(std::uint8_t plaintext,
                              std::span<const double> trace) {
  TraceBatch one;
  one.add(plaintext, trace);
  add_batch(one);
}

template <typename Acc>
void GridMtdTracker<Acc>::checkpoint() {
  success_[next_grid_] = acc_.snapshot().key_rank(true_key_) == 0 ? 1 : 0;
  ++next_grid_;
}

template <typename Acc>
void GridMtdTracker<Acc>::add_batch(const TraceBatch& batch) {
  // Split at the grid boundaries, checkpointing whenever the stream crosses
  // one.  Splitting does not perturb the final accumulator state: add_batch
  // is invariant to any batching of the stream.
  std::size_t pos = 0;
  while (pos < batch.size()) {
    std::size_t take = batch.size() - pos;
    if (next_grid_ < grid_.size() && acc_.num_traces() < grid_[next_grid_]) {
      take = std::min(take, grid_[next_grid_] - acc_.num_traces());
    }
    if (pos == 0 && take == batch.size()) {
      acc_.add_batch(batch);
    } else {
      scratch_.clear();
      for (std::size_t i = pos; i < pos + take; ++i) {
        scratch_.add(batch.plaintexts[i], batch.traces[i]);
      }
      acc_.add_batch(scratch_);
    }
    pos += take;
    while (next_grid_ < grid_.size() &&
           grid_[next_grid_] <= acc_.num_traces()) {
      checkpoint();
    }
  }
}

template <typename Acc>
std::size_t GridMtdTracker<Acc>::finish() {
  // Grid points the stream never reached (skipped acquisitions shortened the
  // campaign): judge them on the final state, i.e. "the largest prefix we
  // actually have".
  while (next_grid_ < grid_.size()) checkpoint();
  for (std::size_t gi = 0; gi < grid_.size(); ++gi) {
    bool stable = true;
    for (std::size_t gj = gi; gj < grid_.size(); ++gj) {
      stable = stable && success_[gj] != 0;
    }
    if (stable) return grid_[gi];
  }
  return 0;
}

template <typename Acc>
void GridMtdTracker<Acc>::save(SnapshotWriter& w) const {
  w.tag(kTrackerTag<Acc>);
  acc_.save(w);
  w.u8(true_key_);
  w.u64(next_grid_);
  w.u64(grid_.size());
  for (const std::size_t g : grid_) w.u64(g);
  for (const char s : success_) w.u8(static_cast<std::uint8_t>(s));
}

template <typename Acc>
GridMtdTracker<Acc> GridMtdTracker<Acc>::load(SnapshotReader& r) {
  r.expect_tag(kTrackerTag<Acc>);
  Acc acc = Acc::load(r);
  // expected_traces = 0 builds an empty grid; the recorded one replaces it.
  GridMtdTracker tracker(std::move(acc), r.u8(), 0);
  tracker.next_grid_ = static_cast<std::size_t>(r.u64());
  const std::size_t grid_size = static_cast<std::size_t>(r.u64());
  if (grid_size > r.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error(std::string(kTrackerTag<Acc>) +
                             " load: grid length exceeds stream");
  }
  tracker.grid_.resize(grid_size);
  for (auto& g : tracker.grid_) g = static_cast<std::size_t>(r.u64());
  tracker.success_.resize(grid_size);
  for (auto& s : tracker.success_) s = static_cast<char>(r.u8());
  if (tracker.next_grid_ > grid_size) {
    throw std::runtime_error(std::string(kTrackerTag<Acc>) +
                             " load: grid cursor out of range");
  }
  return tracker;
}

template class GridMtdTracker<CpaAccumulator>;
template class GridMtdTracker<StaticPowerAccumulator>;
template class GridMtdTracker<MlpaAccumulator>;

}  // namespace pgmcml::sca
