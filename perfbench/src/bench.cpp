#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace json = pgmcml::obs::json;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_seconds_with_children() {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return process_cpu_seconds() + seconds(children.ru_utime) +
         seconds(children.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not RUSAGE_SELF: ru_maxrss survives execve, so it would report
  // the launcher's footprint whenever that is larger.
  long self_kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1) break;
    }
    std::fclose(f);
  }
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);  // ru_maxrss is in KiB on Linux
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void add_run_metrics(WorkloadResult& r, const RunOptions& o,
                     const std::vector<double>& setup_cpu_s, const Timed& t) {
  std::vector<double> p50, p99;
  std::uint64_t samples = 0;
  for (const std::vector<double>& window : t.call_ms) {
    p50.push_back(quantile(window, 0.50));
    p99.push_back(quantile(window, 0.99));
    samples += window.size();
  }
  if (!o.trace) {
    r.metric("setup_s", median(setup_cpu_s), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("cpu_ms_per_unit", t.cpu_s * 1e3 / t.units, "ms");
  } else {
    r.metric("throughput_per_s", median(t.rates), "1/s");
    r.metric("latency_p50_ms", median(p50), "ms");
    r.metric("latency_p99_ms", median(p99), "ms");
  }
  r.context.emplace_back("setup_repetitions",
                         static_cast<std::uint64_t>(setup_cpu_s.size()));
  r.context.emplace_back("throughput_chunks",
                         static_cast<std::uint64_t>(t.rates.size()));
  r.context.emplace_back("latency_windows",
                         static_cast<std::uint64_t>(t.call_ms.size()));
  r.context.emplace_back("latency_samples", samples);
  r.context.emplace_back("work_units", t.units);
}

std::string sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const std::size_t at = flags.find("-fsanitize");
  return at == std::string::npos ? "" : flags.substr(at);
#endif
}

json::Object machine_context(const RunOptions& options) {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      const std::string l = line;
      if (l.rfind("model name", 0) == 0) {
        const std::size_t colon = l.find(':');
        cpu = l.substr(colon + 2, l.size() - colon - 3);
        break;
      }
    }
    std::fclose(f);
  }
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  json::Object ctx;
  ctx.emplace_back("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  ctx.emplace_back("cpu_model", cpu);
  ctx.emplace_back("compiler", std::string("gcc-compatible ") + __VERSION__);
  ctx.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  ctx.emplace_back("cxx_flags", PERFBENCH_CXX_FLAGS);
  ctx.emplace_back("sanitizer", sanitizer().empty() ? "none" : sanitizer());
  ctx.emplace_back("threads", static_cast<std::uint64_t>(options.threads));
  ctx.emplace_back("workers", static_cast<std::uint64_t>(options.workers));
  ctx.emplace_back("clients", static_cast<std::uint64_t>(options.clients));
  ctx.emplace_back("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  return ctx;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

/// Innermost open span of the calling thread (-1 outside any span).
thread_local int tl_open_span = -1;

std::uint64_t thread_id() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffULL);
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_->enabled_) index_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_->close(index_);
}

int Tracer::open(std::string_view name) {
  Span s;
  s.name = std::string(name);
  s.tid = thread_id();
  s.parent = tl_open_span;
  const double start = wall_seconds();
  s.start_s = start;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  tl_open_span = static_cast<int>(spans_.size()) - 1;
  return tl_open_span;
}

void Tracer::close(int index) {
  const double end = wall_seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].dur_s = end - spans_[index].start_s;
  tl_open_span = spans_[index].parent;
}

double Tracer::coverage(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  const std::uint64_t tid = thread_id();
  std::vector<std::pair<double, double>> roots;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    if (s.parent >= 0 || s.tid != tid) continue;
    const double a = std::max(s.start_s, t0);
    const double b = std::min(s.start_s + s.dur_s, t1);
    if (b > a) roots.emplace_back(a, b);
  }
  std::sort(roots.begin(), roots.end());
  double covered = 0.0;
  double reach = t0;
  for (const auto& [a, b] : roots) {
    const double lo = std::max(a, reach);
    if (b > lo) covered += b - lo;
    reach = std::max(reach, b);
  }
  return covered / (t1 - t0);
}

json::Value Tracer::chrome_trace() const {
  double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& s : spans_) origin = std::min(origin, s.start_s);
  json::Array events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    json::Object e;
    e.emplace_back("name", s.name);
    e.emplace_back("ph", "X");
    e.emplace_back("pid", static_cast<std::int64_t>(::getpid()));
    e.emplace_back("tid", s.tid);
    e.emplace_back("ts", (s.start_s - origin) * 1e6);
    e.emplace_back("dur", s.dur_s * 1e6);
    if (s.parent >= 0) {
      json::Object args;
      args.emplace_back("parent", spans_[s.parent].name);
      e.emplace_back("args", json::Value(std::move(args)));
    }
    events.emplace_back(std::move(e));
  }
  json::Object doc;
  doc.emplace_back("traceEvents", json::Value(std::move(events)));
  return json::Value(std::move(doc));
}

std::uint64_t CounterDelta::read(std::string_view name) const {
  return pgmcml::obs::Registry::global().snapshot().counter(name) -
         before_.counter(name);
}

void make_dirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("perfbench: cannot create '" + dir +
                             "': " + ec.message());
  }
}

std::string fresh_dir(const RunOptions& options, const std::string& tag) {
  static int counter = 0;
  const std::string dir = options.work_dir + "/" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  make_dirs(dir);
  return dir;
}

}  // namespace perfbench
