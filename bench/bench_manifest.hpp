// Shared bench-manifest envelope: every benchmark in bench/ reports through
// one schema-versioned JSON document (BENCH_<name>.json) instead of its own
// ad-hoc writer.  The envelope carries the provenance a regression gate
// needs (git sha, build type, thread count), the named metrics with their
// improvement direction, free-form sections for bench-specific detail, and a
// snapshot of the pgmcml::obs registry so solver-effort counters ride along
// for free.  It reads no clock: the metrics are verdicts and exact counters,
// and timing lives in perfbench/.
//
// compare_manifests() is the gate itself: bench_compare (the CLI) and the
// obs test suite both call it, so the pass/fail rule is one function.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pgmcml/obs/json.hpp"

namespace pgmcml::bench {

/// Manifest schema version; bump on envelope shape changes.
inline constexpr int kManifestSchemaVersion = 2;

/// Relative degradation a gated metric may show before it regresses.
inline constexpr double kRegressionTolerance = 0.25;

/// Which direction is an improvement for a metric.
enum class Better {
  kNone,    ///< informational; never gated
  kLower,   ///< e.g. retries, skips, fill-in
  kHigher,  ///< e.g. determinism and bitwise-equality flags
};

const char* to_string(Better b);

/// CI smoke mode: PGMCML_BENCH_SMOKE set to anything but empty or "0"
/// shrinks a bench's workloads to CI scale over the same code paths.
bool smoke_mode();

/// Collects one benchmark run: record metrics and sections as they are
/// produced, then write() the envelope.
class Manifest {
 public:
  explicit Manifest(std::string bench_name);

  /// Records a named scalar.  Dots namespace metrics ("cpa.CMOS.key_rank").
  void metric(const std::string& name, double value,
              Better better = Better::kNone);
  /// Attaches a bench-specific JSON subtree under sections.<name>.
  void section(const std::string& name, obs::json::Value value);

  /// Builds the envelope: provenance + metrics + sections + the current
  /// global obs snapshot.
  obs::json::Value to_json() const;

  /// Writes BENCH_<name>.json to the working directory (or `path` when
  /// given) atomically, so a failed write leaves no torn file.  Returns true
  /// on success; failure is reported on stderr.
  bool write(const std::string& path = "") const;

 private:
  std::string name_;
  obs::json::Object metrics_;
  obs::json::Object sections_;
};

/// One per-metric comparison outcome.
struct CompareLine {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  ///< (current - baseline) / |baseline|
  bool regression = false;
  std::string note;  ///< "informational", "missing-in-current", ...
};

struct CompareReport {
  std::vector<CompareLine> lines;
  std::vector<std::string> errors;  ///< schema/shape problems (exit 2)
  bool ok() const;
  std::size_t regressions() const;
  /// Human-readable table of every compared metric.
  std::string render() const;
};

/// Compares two manifest documents metric-by-metric.  A gated metric (better
/// != none) regresses when it degrades by more than kRegressionTolerance; a
/// gated metric missing from `current` is a regression; metrics only in
/// `current` are informational.  Schema-version mismatches and malformed
/// metrics (not an object, a non-numeric value, an unknown direction) land
/// in errors.
CompareReport compare_manifests(const obs::json::Value& baseline,
                                const obs::json::Value& current);

}  // namespace pgmcml::bench
