// Shared plumbing of the repository benchmark: run options, the result a
// workload returns, timing/statistics helpers, and the span recorder the
// traced run uses.  Spans are recorded here, around calls into the
// program's public APIs -- the program itself is not instrumented further.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pgmcml/obs/json.hpp"
#include "pgmcml/obs/obs.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed region
  bool trace = false;     ///< traced run: per-layer metrics instead
  std::size_t threads = 2;  ///< util::parallel_for workers in-process
  std::size_t workers = 2;  ///< daemon workers / campaign worker processes
  std::size_t clients = 2;  ///< closed-loop service clients
  /// Scratch directory for spools, caches and sockets (relative to the
  /// working directory, which keeps the socket path short).
  std::string work_dir = ".bench_work";
  /// Test scale: tiny inputs, one setup repetition, no time budget.
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `inputs_digest` hashes the generated
/// inputs (a function of the seed alone); `outputs_digest` hashes the
/// program's results (must not depend on thread counts).
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string inputs_digest;
  std::string outputs_digest;
  /// Workload-specific facts recorded beside the metrics (sample counts,
  /// sizes), so a reader can tell what a number was computed from.
  pgmcml::obs::json::Object context;
  /// Traced run only: the recorded spans as Chrome trace-event JSON.
  pgmcml::obs::json::Value chrome_trace;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check; the run then reports
  /// correct=false.
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

WorkloadResult run_attack_stream(const RunOptions& options);
WorkloadResult run_characterize_cold(const RunOptions& options);
WorkloadResult run_service_warm(const RunOptions& options);
WorkloadResult run_campaign_sharded(const RunOptions& options);

/// Machine and build context recorded with every result: cores, CPU
/// model, compiler, build type and flags, sanitizers, the thread/worker/
/// client counts and the source revision.
pgmcml::obs::json::Object machine_context(const RunOptions& options);
/// Non-empty when this binary was built with a sanitizer (its name).
std::string sanitizer();

// --- clocks -----------------------------------------------------------------

double wall_seconds();     ///< steady clock
double process_cpu_seconds();  ///< CPU time of every thread of this process
/// process_cpu_seconds() plus the CPU time of reaped child processes.
double cpu_seconds_with_children();
double thread_cpu_seconds();  ///< CPU time of the calling thread
/// Peak resident set of this process and of its reaped children [MB].
double peak_rss_mb();

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// What a workload measured in its plain (untraced) iterations.
struct Timed {
  std::vector<double> rates;  ///< work units per wall second, per chunk
  /// Per-call wall latencies grouped by time window (one window when calls
  /// are few); each percentile is the median of the windows' percentiles.
  std::vector<std::vector<double>> call_ms;
  double cpu_s = 0.0;  ///< CPU time of the program's work, children included
  double units = 0.0;  ///< work units completed
};

/// Adds the run-level metrics.  Untraced run (the gated end-to-end set):
/// set-up CPU seconds (median of the set-up repetitions), peak RSS, and CPU
/// milliseconds per work unit -- figures that hypervisor CPU steal on a
/// shared host does not inflate.  Traced run: the wall-clock figures,
/// throughput (median of the per-chunk rates) and per-call latency
/// percentiles, which do move with steal.
void add_run_metrics(WorkloadResult& r, const RunOptions& o,
                     const std::vector<double>& setup_cpu_s, const Timed& t);

// --- digests ----------------------------------------------------------------

/// Incremental FNV-1a 64 over raw bytes, rendered as 16 hex digits.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder.  Spans nest per thread; each records its name,
/// thread, start, duration and parent.  Disabled recorders cost one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t tid = 0;
    double start_s = 0.0;
    double dur_s = 0.0;
    int parent = -1;  ///< index into spans_, -1 for a root span
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Scope scope(std::string_view name) { return Scope(this, name); }

  /// Share of [t0, t1] covered by root spans of the calling thread (safe
  /// to call while other threads record).
  double coverage(double t0, double t1) const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  pgmcml::obs::json::Value chrome_trace() const;

 private:
  int open(std::string_view name);
  void close(int index);

  bool enabled_;
  mutable std::mutex mutex_;  ///< guards spans_ (spans open on pool threads too)
  std::vector<Span> spans_;
};

/// Delta of the global obs counters between construction and read().
class CounterDelta {
 public:
  CounterDelta() : before_(pgmcml::obs::Registry::global().snapshot()) {}
  std::uint64_t read(std::string_view name) const;

 private:
  pgmcml::obs::Snapshot before_;
};

/// Creates `dir` (and parents); throws std::runtime_error on failure.
void make_dirs(const std::string& dir);
/// Fresh, empty directory `<work_dir>/<tag>-<pid>-<n>`.
std::string fresh_dir(const RunOptions& options, const std::string& tag);

}  // namespace perfbench
