// Single-pass, mergeable attack accumulators: the one way every attack runs
// (CPA, DPA, TVLA, static power, MLPA), in the flow, the campaign workers
// and cpa_attack alike, plus the checkpointed measurements-to-disclosure
// scan.
//
// Every CPA/DPA/MLPA hypothesis depends on the plaintext byte p only through
// S(p ^ k), so the 256 plaintext classes are sufficient statistics: those
// engines fold each trace once, in O(samples), into PlaintextBuckets, and a
// snapshot expands the buckets into all 256 key guesses as XOR-convolutions
// evaluated with a 256-point Walsh-Hadamard transform per sample column.
// TVLA keeps per-class Welford sums and static power per-guess co-moments.
// A snapshot can be taken after any number of traces, which turns MTD from
// O(grid) full CPA reruns over prefix copies into checkpoints of one
// accumulator stream.
//
// Determinism contract (the same contract as util::parallel_for):
//   * The CPA/DPA/MLPA folds are serial in trace order and the TVLA fold
//     gives each sample column to exactly one task, so the arithmetic
//     sequence per state slot is identical at any thread count AND for any
//     batching of the same trace stream: add_batch of n traces is bitwise
//     identical to n one-trace batches, and to any split of the stream into
//     smaller batches.  This is why MTD checkpoints (which split batches at
//     grid boundaries) do not perturb the final result by even one ulp.
//   * snapshot() parallelizes over fixed sample-column blocks; every column
//     is transformed by one task and the per-block peaks are reduced in
//     block order, so snapshots are bitwise thread-count invariant too.
//   * merge() adds counts exactly, adds bucket sums re-shifted onto this
//     accumulator's reference row, and combines Welford / co-moment state
//     with Chan's parallel update.  Merging in a fixed order
//     over fixed trace ranges (the campaign's shard merge) is worker-count
//     invariant, but is a different floating-point evaluation than one-pass
//     streaming: the two agree to ~1e-12 on the statistics, not bitwise.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "pgmcml/sca/attack.hpp"
#include "pgmcml/sca/snapshot.hpp"
#include "pgmcml/sca/trace_source.hpp"
#include "pgmcml/sca/tvla.hpp"

namespace pgmcml::sca {

/// Per-plaintext-byte sufficient statistics of a trace stream: a count and
/// a per-sample sum of the SHIFTED samples (s - ref) for each of the 256
/// plaintext values.  `ref` is the stream's first trace.  Shifting keeps the
/// sums at the scale of the trace-to-trace variation instead of the DC
/// level, so centring them at snapshot time does not cancel away the
/// signal of a flat (MCML-like) trace.
/// Memory: 256 x samples doubles plus one reference row.
class PlaintextBuckets {
 public:
  explicit PlaintextBuckets(std::size_t samples);

  std::size_t samples() const { return m_; }
  std::size_t num_traces() const { return n_; }
  const std::array<std::uint64_t, 256>& counts() const { return count_; }
  /// The shift row (all zero until the first trace is folded).
  const std::vector<double>& reference() const { return ref_; }

  /// Folds a batch serially in trace order (widths checked by the caller).
  void add_batch(const TraceBatch& batch);
  /// Adds a disjoint stream's buckets, re-shifted onto this reference.
  /// Merging into an empty state copies `other` exactly.
  void merge(const PlaintextBuckets& other);

  /// Walsh-Hadamard spectrum (unnormalized, over the plaintext axis) of the
  /// centred block D[p][j] = sum_p(s - ref) - n_p * mean(s - ref) for the
  /// columns [lo, hi), written row-major as 256 x (hi - lo) into `out`.
  void centred_spectrum(std::size_t lo, std::size_t hi, double* out) const;

  void save(SnapshotWriter& w) const;
  /// Reads the state save() wrote for a `samples()`-wide bucket set.
  void load(SnapshotReader& r);

 private:
  std::size_t m_;
  std::size_t n_ = 0;
  std::array<std::uint64_t, 256> count_{};
  std::vector<double> ref_;
  std::vector<double> sum_;  ///< 256 rows of m shifted sums
};

/// Streaming CPA: Pearson correlation between a leakage model of the 256 key
/// guesses and every sample column.  The fold keeps plaintext buckets plus
/// a Welford mean/m2 per sample column (of the shifted samples); snapshot()
/// derives the per-guess co-moments and hypothesis variances from them.
/// Memory: O(samples * 256) doubles, independent of the trace count.
class CpaAccumulator {
 public:
  CpaAccumulator(LeakageModel model, std::size_t samples);

  LeakageModel model() const { return model_; }
  std::size_t samples_per_trace() const { return m_; }
  std::size_t num_traces() const { return buckets_.num_traces(); }

  /// Folds one trace into the running sums.
  void add(std::uint8_t plaintext, std::span<const double> trace);

  /// Folds a batch in O(samples) per trace.  Bitwise identical to adding
  /// each trace with add(), at any thread count.
  void add_batch(const TraceBatch& batch);

  /// Chan-merge of a disjoint accumulator over the same model/samples.
  void merge(const CpaAccumulator& other);

  /// Correlation snapshot after any number of traces (best_guess = -1 while
  /// fewer than 2 traces have been seen, matching the batch attack).
  /// Parallel over fixed column blocks; bitwise thread-count invariant.
  CpaResult snapshot(bool keep_time_curves = false) const;

  /// Bitwise state serialization: load(save(x)) resumes the identical
  /// arithmetic sequence (the campaign checkpoint/recovery contract).
  void save(SnapshotWriter& w) const;
  static CpaAccumulator load(SnapshotReader& r);

 private:
  LeakageModel model_;
  std::size_t m_;
  PlaintextBuckets buckets_;
  // Welford state per sample column of the shifted samples s - ref.
  std::vector<double> mean_s_;
  std::vector<double> m2_s_;
};

/// Streaming difference-of-means DPA (partition on the predicted S-box bit
/// 0 for each guess), derived from plaintext buckets at snapshot time.
/// Memory: O(256 * samples) doubles.
class DpaAccumulator {
 public:
  explicit DpaAccumulator(std::size_t samples);

  std::size_t samples_per_trace() const { return m_; }
  std::size_t num_traces() const { return buckets_.num_traces(); }

  /// Serial O(samples) fold per trace; bitwise invariant to the batching
  /// of the stream.
  void add_batch(const TraceBatch& batch);
  /// Exact count merge plus re-shifted bucket sums.
  void merge(const DpaAccumulator& other);
  DpaResult snapshot() const;

  /// Bitwise state serialization (see CpaAccumulator::save).
  void save(SnapshotWriter& w) const;
  static DpaAccumulator load(SnapshotReader& r);

 private:
  std::size_t m_;
  PlaintextBuckets buckets_;
};

/// Streaming fixed-vs-random Welch t-test: per-class Welford mean/variance
/// per sample column.  Memory: O(2 * samples) doubles.
class TvlaAccumulator {
 public:
  explicit TvlaAccumulator(std::size_t samples);

  std::size_t samples_per_trace() const { return m_; }
  std::size_t fixed_traces() const { return na_; }
  std::size_t random_traces() const { return nb_; }

  /// Folds one trace into the fixed (is_fixed) or random class.  Throws
  /// std::invalid_argument on a sample-count mismatch (ragged input).
  void add(bool is_fixed, std::span<const double> trace);

  /// Folds a batch, classifying traces by plaintext == fixed_plaintext.
  /// Parallel over fixed column blocks; bitwise identical to serial add().
  void add_batch(const TraceBatch& batch, std::uint8_t fixed_plaintext);

  /// Chan-merge of a disjoint accumulator (per class, per sample).
  void merge(const TvlaAccumulator& other);

  /// Welch t per sample; empty t_statistic until both classes have >= 2
  /// traces.
  TvlaResult snapshot() const;

  /// Bitwise state serialization (see CpaAccumulator::save).
  void save(SnapshotWriter& w) const;
  static TvlaAccumulator load(SnapshotReader& r);

 private:
  std::size_t m_;
  std::size_t na_ = 0;  ///< fixed-class traces
  std::size_t nb_ = 0;  ///< random-class traces
  std::vector<double> mean_a_, m2_a_;
  std::vector<double> mean_b_, m2_b_;
  std::vector<char> is_fixed_scratch_;
};

/// Streaming static-power CPA (Bhandari et al., arXiv:2402.03196): each
/// trace of a quiescent acquisition collapses to one scalar -- the mean
/// leakage current over a gating window (static_window_bounds) -- and the
/// engine maintains Pearson co-moments between that scalar and the leakage
/// model of the 256 guesses.  Averaging the window inside the accumulator is
/// the attack's core trick: W quiescent samples of the same held state
/// suppress the measurement noise by sqrt(W).
/// Memory: O(256) doubles.  add_batch is serial (256 slots total), so batch
/// and thread invariance hold trivially.
class StaticPowerAccumulator {
 public:
  StaticPowerAccumulator(LeakageModel model, std::size_t samples,
                         StaticWindow window = StaticWindow::kAll);

  LeakageModel model() const { return model_; }
  StaticWindow window() const { return window_; }
  std::size_t samples_per_trace() const { return m_; }
  std::size_t num_traces() const { return n_; }

  /// Serial fold in trace order: bitwise invariant to the batching of the
  /// stream.
  void add_batch(const TraceBatch& batch);
  /// Chan-merge of a disjoint accumulator over the same model/window/samples.
  void merge(const StaticPowerAccumulator& other);
  StaticPowerResult snapshot() const;

  /// Bitwise state serialization (see CpaAccumulator::save).
  void save(SnapshotWriter& w) const;
  static StaticPowerAccumulator load(SnapshotReader& r);

 private:
  LeakageModel model_;
  StaticWindow window_;
  std::size_t m_;
  std::size_t n_ = 0;
  // Welford state for the per-guess predictions h ...
  std::array<double, 256> mean_h_{};
  std::array<double, 256> m2_h_{};
  // ... the scalar window-mean observable x ...
  double mean_x_ = 0.0;
  double m2_x_ = 0.0;
  // ... and the co-moment sum_i (h_i - mean_h)(x_i - mean_x) per guess.
  std::array<double, 256> comoment_{};
};

/// Streaming MLPA (Roche & Tavernier, arXiv:0906.0237): difference-of-means
/// partitions for every (guess, S-box output bit) pair, combined
/// multi-linearly at snapshot time.  The per-guess bit-0 partition of
/// classic DPA generalizes to all 8 hypothesis bits; all 8 x 256 partition
/// sums are XOR-convolutions of the same plaintext buckets, so the state is
/// the DPA engine's.
/// Memory: O(256 * samples) doubles.
class MlpaAccumulator {
 public:
  explicit MlpaAccumulator(std::size_t samples);

  std::size_t samples_per_trace() const { return m_; }
  std::size_t num_traces() const { return buckets_.num_traces(); }

  /// Serial O(samples) fold per trace; bitwise invariant to the batching
  /// of the stream.
  void add_batch(const TraceBatch& batch);
  /// Exact count merge plus re-shifted bucket sums.
  void merge(const MlpaAccumulator& other);
  MlpaResult snapshot() const;

  /// Bitwise state serialization (see CpaAccumulator::save).
  void save(SnapshotWriter& w) const;
  static MlpaAccumulator load(SnapshotReader& r);

 private:
  std::size_t m_;
  PlaintextBuckets buckets_;
};

/// Checkpointed measurements-to-disclosure over one accumulator stream.
///
/// Feed the campaign through add()/add_batch(); the tracker splits batches
/// at the grid boundaries the prefix-rerun implementation used
/// (max(4, g * n / grid_points) for g = 1..grid_points), records the true
/// key's rank at each, and finish() returns the smallest grid point from
/// which the rank is 0 through the end of the stream -- the same MTD the
/// O(grid) rerun produced, in a single pass.  The underlying accumulator
/// doubles as the full-set result (snapshot()).  A campaign too small for a
/// grid (expected_traces < 4, or grid_points < 2, e.g. expected_traces = 0)
/// has an empty one: the tracker then folds exactly like the bare
/// accumulator and finish() returns 0.
///
/// `Acc` is CpaAccumulator, StaticPowerAccumulator or MlpaAccumulator (the
/// instantiations accumulator.cpp provides), named MtdTracker,
/// StaticMtdTracker and MlpaMtdTracker below.  Besides taking a built
/// accumulator, each constructs from its accumulator's own arguments
/// followed by (true_key, expected_traces, grid_points).
template <typename Acc>
class GridMtdTracker {
 public:
  GridMtdTracker(Acc acc, std::uint8_t true_key, std::size_t expected_traces,
                 std::size_t grid_points = 16);
  GridMtdTracker(LeakageModel model, std::size_t samples,
                 std::uint8_t true_key, std::size_t expected_traces,
                 std::size_t grid_points = 16)
    requires std::same_as<Acc, CpaAccumulator>
      : GridMtdTracker(Acc(model, samples), true_key, expected_traces,
                       grid_points) {}
  GridMtdTracker(LeakageModel model, std::size_t samples, StaticWindow window,
                 std::uint8_t true_key, std::size_t expected_traces,
                 std::size_t grid_points = 16)
    requires std::same_as<Acc, StaticPowerAccumulator>
      : GridMtdTracker(Acc(model, samples, window), true_key, expected_traces,
                       grid_points) {}
  GridMtdTracker(std::size_t samples, std::uint8_t true_key,
                 std::size_t expected_traces, std::size_t grid_points = 16)
    requires std::same_as<Acc, MlpaAccumulator>
      : GridMtdTracker(Acc(samples), true_key, expected_traces, grid_points) {}

  void add(std::uint8_t plaintext, std::span<const double> trace);
  void add_batch(const TraceBatch& batch);

  /// Evaluates any grid points the (possibly short) stream never reached
  /// against the final state and returns the MTD (0 = never disclosed).
  std::size_t finish();

  /// Full-set result over everything streamed so far (for CPA, optionally
  /// with the per-sample correlation curves: snapshot(true)).
  template <typename... Args>
  auto snapshot(Args... args) const {
    return acc_.snapshot(args...);
  }
  const Acc& accumulator() const { return acc_; }

  /// Bitwise state serialization: the accumulator plus the grid position and
  /// the checkpoint verdicts recorded so far, so a resumed tracker reports
  /// the same MTD as one that streamed the campaign uninterrupted.  Tagged
  /// MTD1 (CPA), SMT1 (static power) or MMT1 (MLPA).
  void save(SnapshotWriter& w) const;
  static GridMtdTracker load(SnapshotReader& r);

 private:
  void checkpoint();

  Acc acc_;
  std::uint8_t true_key_;
  std::vector<std::size_t> grid_;
  std::vector<char> success_;
  std::size_t next_grid_ = 0;
  TraceBatch scratch_;
};

using MtdTracker = GridMtdTracker<CpaAccumulator>;
using StaticMtdTracker = GridMtdTracker<StaticPowerAccumulator>;
using MlpaMtdTracker = GridMtdTracker<MlpaAccumulator>;

extern template class GridMtdTracker<CpaAccumulator>;
extern template class GridMtdTracker<StaticPowerAccumulator>;
extern template class GridMtdTracker<MlpaAccumulator>;

}  // namespace pgmcml::sca
