// Pull-based trace streaming: the acquisition/analysis boundary of the
// side-channel pipeline.
//
// A TraceSource yields traces in fixed-size batches of (plaintext, samples)
// pairs.  Consumers (the accumulator engines in accumulator.hpp) fold each
// batch into running statistics and discard it, so a full campaign -- SPICE
// acquisition or an in-memory TraceSet -- is analyzed
// with at most one batch resident at a time.
//
// Batches expose *views* (std::span) into storage owned by the source, which
// lets the in-memory adapter stream a TraceSet with zero copies and lets
// the generating acquisition source reuse one set of row
// buffers for every batch.  A batch's views are valid until the next call to
// next() on the source that produced it.
//
// A source is single-pass: every attack is a one-pass accumulator fold, so no
// consumer rewinds.  Replaying a campaign means building a second source;
// deterministic sources then yield the identical trace stream.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pgmcml/sca/traces.hpp"

namespace pgmcml::sca {

/// Default number of traces per batch: large enough to amortize the
/// per-batch bookkeeping, small enough that one batch of 1k-sample traces
/// stays in the low megabytes.
inline constexpr std::size_t kDefaultTraceBatch = 256;

/// One batch of traces handed from a TraceSource to an analysis engine.
/// Non-owning: `traces[i]` views memory owned by the producing source.
struct TraceBatch {
  std::vector<std::uint8_t> plaintexts;
  std::vector<std::span<const double>> traces;

  std::size_t size() const { return plaintexts.size(); }
  bool empty() const { return plaintexts.empty(); }
  void clear() {
    plaintexts.clear();
    traces.clear();
  }
  void add(std::uint8_t plaintext, std::span<const double> trace) {
    plaintexts.push_back(plaintext);
    traces.push_back(trace);
  }
};

/// Abstract pull-based producer of trace batches.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Samples per trace (fixed over the source's lifetime).
  virtual std::size_t samples_per_trace() const = 0;

  /// Expected total trace count, or 0 when unknown.  Used to size MTD
  /// checkpoint grids; sources that can skip traces report the intended
  /// campaign size.
  virtual std::size_t size_hint() const { return 0; }

  /// Clears `batch` and fills it with the next (up to batch-size) traces.
  /// Returns false -- with `batch` empty -- once the source is exhausted.
  virtual bool next(TraceBatch& batch) = 0;
};

/// Zero-copy adapter streaming an in-memory TraceSet, optionally limited to
/// its first `limit` traces: a prefix attack is `TraceSetSource(ts, n)` fed
/// to the streaming engine, with no copy of the prefix.
class TraceSetSource final : public TraceSource {
 public:
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  explicit TraceSetSource(const TraceSet& traces, std::size_t limit = kNoLimit,
                          std::size_t batch_size = kDefaultTraceBatch);

  std::size_t samples_per_trace() const override;
  std::size_t size_hint() const override { return total_; }
  bool next(TraceBatch& batch) override;

 private:
  const TraceSet& traces_;
  std::size_t total_;
  std::size_t batch_size_;
  std::size_t cursor_ = 0;
};

}  // namespace pgmcml::sca
