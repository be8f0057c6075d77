// Low-overhead, thread-safe observability: named monotone counters,
// log2-bucketed histograms, and hierarchical RAII timer spans, collected in
// a Registry and exported as deterministic Snapshots.
//
// The aggregation discipline matches the PR 3 accumulators:
//   * Counters and histogram bucket/count fields are exact integer sums, so
//     a snapshot of work distributed over util::parallel_for is identical at
//     any thread count (each unit of work contributes the same increments,
//     addition commutes).
//   * Snapshot::merge is the Chan-style combine for the histogram moments:
//     counts and buckets add, min/max take the extremum, sums add.  Merging
//     is associative and commutative; the double-precision `sum` field is
//     bitwise-associative only for dyadic values (durations are inherently
//     nondeterministic anyway -- the invariants the tests pin are the
//     integer fields).
//   * Snapshots order metrics by name (std::map), so two equal registries
//     serialize identically.
//
// Hot-path cost: one relaxed atomic RMW per counter increment; a histogram
// observation is a handful of relaxed RMWs.  Handle lookup (Registry::
// counter / histogram) takes a mutex -- hoist handles out of inner loops
// (function-local statics are the usual pattern).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "pgmcml/obs/json.hpp"

namespace pgmcml::obs {

/// Histogram bucket b covers values in [2^(b-31), 2^(b-30)); bucket 0 also
/// absorbs everything below 2^-31 (~0.47 ns for timers) and the top bucket
/// everything above.  64 buckets span ~19 decades -- every duration, byte
/// count or iteration count the pipeline produces.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Returns the bucket index for a value (0 for non-finite or <= 0 input).
std::size_t histogram_bucket(double value);

/// Plain-data histogram state, as captured by a Snapshot.
struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();   ///< +inf when empty
  double max = -std::numeric_limits<double>::infinity();  ///< -inf when empty
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Chan-style combine: counts/buckets add, extrema take the extremum.
  void merge(const HistogramData& other);
  bool operator==(const HistogramData& other) const = default;
};

/// Deterministic, mergeable export of a Registry: metric name -> value, in
/// name order.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramData> histograms;

  /// Counter value by name; 0 when the counter was never touched.
  std::uint64_t counter(std::string_view name) const;
  /// Element-wise combine (counters add, histograms Chan-merge).
  void merge(const Snapshot& other);
  /// {"counters": {...}, "histograms": {name: {count, sum, min, max,
  /// buckets: [[index, count], ...]}}} with sparse bucket encoding.
  json::Value to_json() const;
  /// Inverse of to_json (tolerates missing sections).  Throws on malformed
  /// structure.
  static Snapshot from_json(const json::Value& v);
};

class Registry;

/// Cheap handle to one named counter.  Copyable; valid for the lifetime of
/// its Registry.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) {
    if (v_ != nullptr) v_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return v_ != nullptr ? v_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* v) : v_(v) {}
  std::atomic<std::uint64_t>* v_ = nullptr;
};

/// Cheap handle to one named histogram.
class Histogram {
 public:
  Histogram() = default;
  /// Records one observation (non-finite values count into bucket 0 and are
  /// excluded from sum/min/max so one NaN cannot poison the aggregate).
  void observe(double value);

 private:
  friend class Registry;
  struct Cell;
  explicit Histogram(Cell* cell) : cell_(cell) {}
  Cell* cell_ = nullptr;
};

/// Thread-safe named-metric registry.  One process-wide instance
/// (Registry::global()) backs the wired-in instrumentation; tests can use
/// private instances.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named metric.  Handles remain valid until the
  /// Registry is destroyed.
  Counter counter(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Consistent point-in-time copy of every metric, ordered by name.
  Snapshot snapshot() const;

  static Registry& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII hierarchical timer span.  Nested spans on the same thread build a
/// '/'-joined path ("dpa_flow.run/spice.transient"); on destruction the
/// wall-clock duration in seconds is observed into the histogram
/// "time/<path>" of the target registry.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name)
      : ScopedTimer(name, Registry::global()) {}
  ScopedTimer(std::string_view name, Registry& registry);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Registry* registry_;
  std::size_t prev_length_;  ///< thread-local path length to restore
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pgmcml::obs
