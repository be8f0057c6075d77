#include "bench_manifest.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "pgmcml/obs/obs.hpp"
#include "pgmcml/util/parallel.hpp"

#ifndef PGMCML_GIT_SHA
#define PGMCML_GIT_SHA "unknown"
#endif
#ifndef PGMCML_BUILD_TYPE
#define PGMCML_BUILD_TYPE "unknown"
#endif

namespace pgmcml::bench {

namespace {

std::string git_sha() {
  std::string sha = PGMCML_GIT_SHA;
  if (sha.empty() || sha == "unknown") {
    if (const char* env = std::getenv("GITHUB_SHA")) sha = env;
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

const char* to_string(Better b) {
  switch (b) {
    case Better::kLower: return "lower";
    case Better::kHigher: return "higher";
    case Better::kNone: break;
  }
  return "none";
}

bool smoke_mode() {
  const char* env = std::getenv("PGMCML_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

Manifest::Manifest(std::string bench_name) : name_(std::move(bench_name)) {}

void Manifest::metric(const std::string& name, double value, Better better) {
  obs::json::Object m;
  m.emplace_back("value", value);
  m.emplace_back("better", to_string(better));
  for (auto& [key, existing] : metrics_) {
    if (key == name) {
      existing = obs::json::Value(std::move(m));
      return;
    }
  }
  metrics_.emplace_back(name, obs::json::Value(std::move(m)));
}

void Manifest::section(const std::string& name, obs::json::Value value) {
  for (auto& [key, existing] : sections_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  sections_.emplace_back(name, std::move(value));
}

obs::json::Value Manifest::to_json() const {
  const obs::Snapshot snap = obs::Registry::global().snapshot();

  // Result-cache effectiveness rides along automatically whenever the run
  // touched the cache, so bench_compare can watch hit rates without each
  // bench opting in.  Purely informational: hit rates are workload-shaped,
  // not a regression gate.
  obs::json::Object metrics = metrics_;
  const std::uint64_t hits = snap.counter("cache.hit");
  const std::uint64_t misses = snap.counter("cache.miss");
  if (hits + misses > 0) {
    const auto add = [&metrics](const std::string& name, double value) {
      obs::json::Object m;
      m.emplace_back("value", value);
      m.emplace_back("better", to_string(Better::kNone));
      metrics.emplace_back(name, obs::json::Value(std::move(m)));
    };
    add("cache.hits", static_cast<double>(hits));
    add("cache.misses", static_cast<double>(misses));
    add("cache.hit_rate",
        static_cast<double>(hits) / static_cast<double>(hits + misses));
  }

  obs::json::Object doc;
  doc.emplace_back("schema_version", kManifestSchemaVersion);
  doc.emplace_back("bench", name_);
  doc.emplace_back("git_sha", git_sha());
  doc.emplace_back("build_type", std::string(PGMCML_BUILD_TYPE));
  doc.emplace_back("threads",
                   static_cast<std::uint64_t>(util::parallel_threads()));
  doc.emplace_back("metrics", obs::json::Value(std::move(metrics)));
  doc.emplace_back("sections", obs::json::Value(sections_));
  doc.emplace_back("obs", snap.to_json());
  return obs::json::Value(std::move(doc));
}

bool Manifest::write(const std::string& path) const {
  const std::string out_path = path.empty() ? "BENCH_" + name_ + ".json" : path;
  if (!obs::json::save_file_atomic(out_path, to_json(), 2)) {
    std::fprintf(stderr, "bench_manifest: cannot write %s\n",
                 out_path.c_str());
    return false;
  }
  std::printf("Wrote %s\n", out_path.c_str());
  return true;
}

bool CompareReport::ok() const { return errors.empty() && regressions() == 0; }

std::size_t CompareReport::regressions() const {
  std::size_t n = 0;
  for (const CompareLine& l : lines) n += l.regression ? 1 : 0;
  return n;
}

std::string CompareReport::render() const {
  std::string out;
  char buf[256];
  for (const std::string& e : errors) {
    out += "ERROR: " + e + "\n";
  }
  for (const CompareLine& l : lines) {
    const char* tag = l.regression ? "REGRESSION" : "ok";
    if (!l.note.empty()) tag = l.note.c_str();
    std::snprintf(buf, sizeof buf, "  %-44s %14.6g -> %14.6g  %+8.2f%%  %s\n",
                  l.metric.c_str(), l.baseline, l.current,
                  l.rel_change * 100.0, tag);
    out += buf;
  }
  return out;
}

namespace {

struct MetricEntry {
  std::string name;
  double value = 0.0;
  Better better = Better::kNone;
};

/// Extracts the metrics table.  Each metric must be an object with a numeric
/// value and a known direction; anything else is an error rather than a
/// silent 0 or an ungated metric (obs::json writes NaN/Inf as null).
std::vector<MetricEntry> extract_metrics(const obs::json::Value& doc,
                                         const char* which,
                                         std::vector<std::string>& errors) {
  std::vector<MetricEntry> out;
  const obs::json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    errors.push_back(std::string(which) + ": missing metrics object");
    return out;
  }
  for (const auto& [name, v] : metrics->as_object()) {
    const std::string where = std::string(which) + ": metric '" + name + "'";
    if (!v.is_object()) {
      errors.push_back(where + " is not an object");
      continue;
    }
    const obs::json::Value* value = v.find("value");
    if (value == nullptr || !value->is_number()) {
      errors.push_back(where + " has no numeric value");
      continue;
    }
    MetricEntry e;
    e.name = name;
    e.value = value->as_number();
    const obs::json::Value* better = v.find("better");
    const std::string dir =
        better != nullptr && better->is_string() ? better->as_string() : "";
    if (dir == "lower") {
      e.better = Better::kLower;
    } else if (dir == "higher") {
      e.better = Better::kHigher;
    } else if (dir != "none") {
      errors.push_back(where + " has unknown direction '" + dir + "'");
      continue;
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

CompareReport compare_manifests(const obs::json::Value& baseline,
                                const obs::json::Value& current) {
  CompareReport report;

  const double base_ver = baseline.number_or("schema_version", -1.0);
  const double cur_ver = current.number_or("schema_version", -1.0);
  if (base_ver != kManifestSchemaVersion) {
    report.errors.push_back("baseline: unsupported schema_version " +
                            std::to_string(base_ver));
  }
  if (cur_ver != kManifestSchemaVersion) {
    report.errors.push_back("current: unsupported schema_version " +
                            std::to_string(cur_ver));
  }
  if (!report.errors.empty()) return report;

  const std::vector<MetricEntry> base =
      extract_metrics(baseline, "baseline", report.errors);
  const std::vector<MetricEntry> cur =
      extract_metrics(current, "current", report.errors);
  if (!report.errors.empty()) return report;

  const auto find_current = [&](const std::string& name) -> const MetricEntry* {
    for (const MetricEntry& e : cur) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };

  for (const MetricEntry& b : base) {
    CompareLine line;
    line.metric = b.name;
    line.baseline = b.value;
    const MetricEntry* c = find_current(b.name);
    if (c == nullptr) {
      line.regression = b.better != Better::kNone;
      line.note = "missing-in-current";
      report.lines.push_back(std::move(line));
      continue;
    }
    line.current = c->value;
    const double denom = std::fabs(b.value);
    line.rel_change =
        denom > 0.0 ? (c->value - b.value) / denom
                    : (c->value == 0.0 ? 0.0
                                       : std::copysign(HUGE_VAL, c->value));
    switch (b.better) {
      case Better::kLower:
        line.regression = line.rel_change > kRegressionTolerance;
        break;
      case Better::kHigher:
        line.regression = line.rel_change < -kRegressionTolerance;
        break;
      case Better::kNone:
        line.note = "informational";
        break;
    }
    report.lines.push_back(std::move(line));
  }

  for (const MetricEntry& c : cur) {
    bool in_base = false;
    for (const MetricEntry& b : base) {
      if (b.name == c.name) {
        in_base = true;
        break;
      }
    }
    if (in_base) continue;
    CompareLine line;
    line.metric = c.name;
    line.current = c.value;
    line.note = "new-in-current";
    report.lines.push_back(std::move(line));
  }

  return report;
}

}  // namespace pgmcml::bench
