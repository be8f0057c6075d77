// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads N] [--workers N] [--clients N]
//
// stdout: one {"context": ...} line (machine context, digests, workload
// facts), then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}.  The same document is kept
// under .bench_work/results/; a traced run also writes its spans as Chrome
// trace-event JSON under .bench_work/traces/.  Exit codes: 0 ran and every
// correctness check passed, 2 bad arguments, 3 sanitizer build, 4 the
// workload threw, 5 a correctness check failed (the lines are still
// printed, with "correct": false, so the failure can be read).
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <string>

#include "bench.hpp"
#include "pgmcml/util/env.hpp"

namespace {

using namespace perfbench;
namespace json = pgmcml::obs::json;

const std::map<std::string, std::function<WorkloadResult(const RunOptions&)>>&
workloads() {
  static const std::map<std::string,
                        std::function<WorkloadResult(const RunOptions&)>>
      table = {{"attack_stream", run_attack_stream},
               {"characterize_cold", run_characterize_cold},
               {"service_warm", run_service_warm},
               {"campaign_sharded", run_campaign_sharded}};
  return table;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads N] [--workers N] "
               "[--clients N]\nworkloads:",
               why.c_str());
  for (const auto& [name, fn] : workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string workload;
  try {
    const std::uint64_t nproc =
        static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const char* value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        o.seed = pgmcml::util::parse_u64("--seed", value);
      } else if (flag == "--seconds") {
        o.seconds = static_cast<double>(
            pgmcml::util::parse_u64("--seconds", value, 1, 3600));
      } else if (flag == "--trace") {
        o.trace = pgmcml::util::parse_u64("--trace", value, 0, 1) == 1;
      } else if (flag == "--threads") {
        o.threads = pgmcml::util::parse_u64("--threads", value, 1, nproc);
      } else if (flag == "--workers") {
        o.workers = pgmcml::util::parse_u64("--workers", value, 1, nproc);
      } else if (flag == "--clients") {
        o.clients = pgmcml::util::parse_u64("--clients", value, 1, nproc);
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const auto it = workloads().find(workload);
  if (it == workloads().end()) return usage("unknown workload '" + workload + "'");
  if (!sanitizer().empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a sanitizer "
                 "build (%s)\n",
                 sanitizer().c_str());
    return 3;
  }

  WorkloadResult r;
  try {
    r = it->second(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 4;
  }

  json::Object ctx = machine_context(o);
  ctx.emplace_back("workload", workload);
  ctx.emplace_back("seed", o.seed);
  ctx.emplace_back("seconds", o.seconds);
  ctx.emplace_back("trace", o.trace);
  ctx.emplace_back("inputs_digest", r.inputs_digest);
  ctx.emplace_back("outputs_digest", r.outputs_digest);
  json::Array errors;
  for (const std::string& e : r.errors) errors.emplace_back(e);
  ctx.emplace_back("errors", json::Value(std::move(errors)));
  for (auto& member : r.context) ctx.push_back(std::move(member));

  json::Object metrics;
  for (const Metric& m : r.metrics) {
    json::Object v;
    v.emplace_back("value", m.value);
    v.emplace_back("unit", m.unit);
    metrics.emplace_back(m.name, json::Value(std::move(v)));
  }
  json::Object result;
  result.emplace_back("correct", r.correct);
  result.emplace_back("attempted", r.attempted);
  result.emplace_back("failed", r.failed);
  result.emplace_back("metrics", json::Value(std::move(metrics)));

  const bool correct = r.correct;
  const std::string stem = workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0");
  json::Object manifest;
  manifest.emplace_back("context", json::Value(ctx));
  manifest.emplace_back("result", json::Value(result));
  make_dirs(o.work_dir + "/results");
  json::save_file_atomic(o.work_dir + "/results/" + stem + ".json",
                         json::Value(std::move(manifest)), 2);
  if (o.trace) {
    make_dirs(o.work_dir + "/traces");
    json::save_file_atomic(o.work_dir + "/traces/" + stem + ".trace.json",
                           r.chrome_trace);
  }

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  json::Object context_line;
  context_line.emplace_back("context", json::Value(std::move(ctx)));
  std::printf("%s\n%s\n", json::Value(std::move(context_line)).dump().c_str(),
              json::Value(std::move(result)).dump().c_str());
  return correct ? 0 : 5;
}
