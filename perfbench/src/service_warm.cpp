// Workload service_warm: the pgmcmld serving core on a warm result cache.
//
// An in-process service::Server on a Unix socket; closed-loop clients send
// their next `characterize` request only after the previous reply.  Each
// request picks one of a fixed set of PG-MCML design-point variants (the
// seed drives the picks).  The variants hold twice as many cache entries as
// the ResultCache memory front, so part of the hits load from the disk
// tier.  Set-up empties the cache and fills it cold through the running
// daemon, so set-up is the cache write path and the timed loop is cache
// reads, config parsing and service framing with no Newton iterations at
// all.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "pgmcml/cache/cache.hpp"
#include "pgmcml/config/experiment.hpp"
#include "pgmcml/config/request.hpp"
#include "pgmcml/config/technology.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/service/client.hpp"
#include "pgmcml/service/server.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"

namespace perfbench {

namespace {

using namespace pgmcml;
namespace json = obs::json;

// Each request characterizes the whole 16-cell library (Table 2), so the
// cache and config work per request outweighs the socket round trip, whose
// wake-up latency is the noisiest part of the loop on a shared host.
constexpr std::size_t kCellsPerRequest = 16;

struct Sizes {
  std::size_t variants;
  std::size_t memory_front;  ///< ResultCache in-memory entries
  std::size_t setup_reps;
  std::size_t smoke_requests;  ///< per client, smoke scale only
};

Sizes sizes(const RunOptions& o) {
  // variants * cells = 2 x memory_front: half the working set lives only
  // on disk at any time.  The front is a quarter of the 512-entry default
  // so the cold fill fits the set-up budget; the 2:1 ratio is what sets
  // the memory/disk hit mix.
  if (o.smoke) return {2, 16, 1, 3};
  return {16, 128, 3, 0};
}

/// Tail current of variant v: 40 uA upward in 0.25 uA steps.
double variant_iss(std::size_t v) { return 40e-6 + 0.25e-6 * static_cast<double>(v); }

json::Value make_experiment(std::size_t v) {
  json::Object variant;
  variant.emplace_back("pgmcml_schema", std::int64_t{1});
  variant.emplace_back("kind", "cell_variant");
  variant.emplace_back("name", "variant-" + std::to_string(v));
  variant.emplace_back("style", "pgmcml");
  variant.emplace_back("iss", variant_iss(v));

  json::Object plan;
  plan.emplace_back("pgmcml_schema", std::int64_t{1});
  plan.emplace_back("kind", "plan");
  plan.emplace_back("name", "characterize-" + std::to_string(v));
  plan.emplace_back("task", "characterize");
  plan.emplace_back("cells", "all");

  json::Object e;
  e.emplace_back("pgmcml_schema", std::int64_t{1});
  e.emplace_back("kind", "experiment");
  e.emplace_back("name", "service-warm-" + std::to_string(v));
  e.emplace_back("technology",
                 config::technology_to_json(spice::TechnologyParams::builtin90(
                     spice::Corner::kTypical)));
  e.emplace_back("design", json::Value(std::move(variant)));
  e.emplace_back("plan", json::Value(std::move(plan)));
  return json::Value(std::move(e));
}

/// A running daemon; its result cache lives in `dir`/cache.
struct Daemon {
  std::string dir;
  std::string socket;
  std::unique_ptr<service::Server> server;

  explicit Daemon(const RunOptions& o)
      : dir(fresh_dir(o, "service")), socket(dir + "/d.sock") {
    service::ServerOptions so;
    so.socket_path = socket;
    so.workers = o.workers;
    so.queue_depth = 4 * o.clients;
    server = std::make_unique<service::Server>(so);
    server->start();
  }
  ~Daemon() {
    server->drain();
    server->wait();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

/// One client's record of the timed loop.
struct ClientLog {
  std::vector<double> rtt_ms;
  std::vector<double> server_ms;
  std::vector<double> done_s;  ///< completion times (wall_seconds)
  std::uint64_t sent = 0;
  std::uint64_t not_ok = 0;
  std::uint64_t solved = 0;  ///< responses that ran Newton iterations
  std::map<std::size_t, std::string> reports;  ///< first report per variant
  std::uint64_t report_mismatch = 0;
  std::string error;
  double coverage = 0.0;
  double check_cpu_s = 0.0;  ///< client CPU spent on the benchmark's checks
};

/// Closed loop: each client sends its next request after the previous
/// reply, until `deadline` (or `fixed` requests each when nonzero).
std::vector<ClientLog> closed_loop(const Daemon& d, const RunOptions& o,
                                   const std::vector<json::Value>& requests,
                                   std::uint64_t stream, double deadline,
                                   std::size_t fixed, Tracer& tracer) {
  std::vector<ClientLog> logs(o.clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < o.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      try {
        service::Client client = service::Client::connect_unix(d.socket);
        util::Rng pick = util::Rng::stream(o.seed ^ stream, c);
        const double t0 = wall_seconds();
        while (fixed > 0 ? log.sent < fixed : wall_seconds() < deadline) {
          const std::size_t v = pick.bounded(requests.size());
          auto s = tracer.scope("service.request");
          const double a = wall_seconds();
          const json::Value raw = client.call(requests[v]);
          const double b = wall_seconds();
          const config::Response resp = config::response_from_json(raw);
          ++log.sent;
          log.rtt_ms.push_back((b - a) * 1e3);
          log.done_s.push_back(b);
          log.server_ms.push_back(resp.stats.latency_s * 1e3);
          if (!resp.ok()) {
            ++log.not_ok;
            continue;
          }
          if (resp.stats.newton_iterations != 0) ++log.solved;
          const double c0 = thread_cpu_seconds();
          std::string report = resp.report.dump();
          auto [it, inserted] = log.reports.try_emplace(v, report);
          if (!inserted && it->second != report) ++log.report_mismatch;
          log.check_cpu_s += thread_cpu_seconds() - c0;
        }
        log.coverage = tracer.coverage(t0, wall_seconds());
      } catch (const std::exception& e) {
        log.error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Set-up: the daemon's cache emptied, then filled cold by sending every
/// variant once (spread over the clients).
void fill_cold(const Daemon& d, const RunOptions& o, const Sizes& s,
               const std::vector<json::Value>& requests, WorkloadResult& r) {
  cache::CacheOptions co;
  co.enabled = true;
  co.dir = d.dir + "/cache";
  co.max_memory_entries = s.memory_front;
  std::filesystem::remove_all(co.dir);
  cache::ResultCache::global().configure(co);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> bad{0};
  for (std::size_t c = 0; c < o.clients; ++c) {
    threads.emplace_back([&] {
      try {
        service::Client client = service::Client::connect_unix(d.socket);
        for (std::size_t v = next++; v < requests.size(); v = next++) {
          if (!config::response_from_json(client.call(requests[v])).ok()) ++bad;
        }
      } catch (const std::exception&) {
        ++bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.check(bad == 0, "cold fill: " + std::to_string(bad.load()) +
                        " requests failed");
}

}  // namespace

WorkloadResult run_service_warm(const RunOptions& o) {
  WorkloadResult r;
  const Sizes s = sizes(o);
  util::set_parallel_threads(1);  // workers are the daemon's own threads
  make_dirs(o.work_dir);

  std::vector<json::Value> experiments;
  std::vector<json::Value> requests;
  for (std::size_t v = 0; v < s.variants; ++v) {
    experiments.push_back(make_experiment(v));
    requests.push_back(
        service::make_run_request("v" + std::to_string(v), experiments.back()));
  }
  {
    // The documents plus the head of the first four clients' pick streams
    // (a fixed number of streams, so the digest ignores the client count).
    Digest d;
    for (const json::Value& e : experiments) d.text(e.dump());
    for (std::size_t c = 0; c < 4; ++c) {
      util::Rng pick = util::Rng::stream(o.seed ^ 0x5e7, c);
      for (int i = 0; i < 64; ++i) d.value(pick.bounded(s.variants));
    }
    r.inputs_digest = d.hex();
  }

  // One daemon for the whole run: with a fresh daemon per set-up, the peak
  // RSS grew with every set-up (about 9.3, 12 and 14 MB after the three),
  // by a different amount on every run.
  auto daemon = std::make_unique<Daemon>(o);
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < s.setup_reps; ++rep) {
    const double c0 = cpu_seconds_with_children();
    fill_cold(*daemon, o, s, requests, r);
    setup_s.push_back(cpu_seconds_with_children() - c0);
  }

  // Timed loop(s).  The traced run splits its time between an untraced and
  // a traced loop so the tracing overhead can be read off.
  Tracer tracer(o.trace);
  Tracer untraced(false);
  const CounterDelta counters;
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const double cpu0 = process_cpu_seconds();
  const double plain_start = wall_seconds();
  std::vector<ClientLog> logs =
      closed_loop(*daemon, o, requests, 0x5e7, plain_start + budget,
                  s.smoke_requests, untraced);
  const double plain_wall = wall_seconds() - plain_start;
  double plain_cpu = process_cpu_seconds() - cpu0;
  for (const ClientLog& log : logs) plain_cpu -= log.check_cpu_s;
  const std::uint64_t newton = counters.read("spice.newton_iterations");
  const std::uint64_t hits = counters.read("cache.hit");
  const std::uint64_t misses = counters.read("cache.miss");
  const std::uint64_t evictions = counters.read("cache.evict");
  const std::uint64_t bytes_read = counters.read("cache.bytes_read");
  std::vector<ClientLog> traced_logs;
  double traced_wall = 0.0;
  if (o.trace) {
    const double t0 = wall_seconds();
    traced_logs = closed_loop(*daemon, o, requests, 0x7ace, t0 + budget,
                              s.smoke_requests, tracer);
    traced_wall = wall_seconds() - t0;
  }

  // Round trips by the (about one-second) window of the untraced loop they
  // completed in.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(plain_wall));
  const double window_s = plain_wall / static_cast<double>(windows);
  Timed timed;  // rates: requests/s per window
  timed.call_ms.resize(windows);
  std::vector<double> server_ms, transport_ms, coverage;
  std::uint64_t plain_requests = 0;
  std::uint64_t traced_requests = 0;
  std::map<std::size_t, std::string> first_report;
  for (const std::vector<ClientLog>* set : {&logs, &traced_logs}) {
    for (const ClientLog& log : *set) {
      r.check(log.error.empty(), "client: " + log.error);
      r.attempted += log.sent;
      r.failed += log.not_ok;
      r.check(log.not_ok == 0, std::to_string(log.not_ok) + " non-ok responses");
      r.check(log.solved == 0, std::to_string(log.solved) +
                                   " responses ran Newton iterations after "
                                   "set-up");
      r.check(log.report_mismatch == 0, "a variant's report changed");
      for (const auto& [v, report] : log.reports) {
        auto [it, inserted] = first_report.try_emplace(v, report);
        r.check(inserted || it->second == report, "a variant's report changed");
      }
      if (set == &logs) {
        plain_requests += log.sent;
        server_ms.insert(server_ms.end(), log.server_ms.begin(),
                         log.server_ms.end());
        for (std::size_t i = 0; i < log.rtt_ms.size(); ++i) {
          transport_ms.push_back(log.rtt_ms[i] - log.server_ms[i]);
          const auto w = static_cast<std::size_t>(
              (log.done_s[i] - plain_start) / window_s);
          timed.call_ms[std::min(w, windows - 1)].push_back(log.rtt_ms[i]);
        }
      } else {
        traced_requests += log.sent;
        coverage.push_back(log.coverage);
      }
    }
  }
  r.check(newton == 0, "timed loop ran " + std::to_string(newton) +
                           " Newton iterations");

  // Every answer must equal the offline runner's report for the same
  // document, byte for byte (outside the timed region; the cache is warm,
  // so these runs are solve-free as well).
  std::vector<double> parse_us, run_us, dump_us;
  Digest out;
  for (std::size_t v = 0; v < experiments.size(); ++v) {
    const double a = wall_seconds();
    const config::Experiment e =
        config::experiment_from_json(experiments[v], "variant", ".");
    (void)config::experiment_digest(e);
    const double b = wall_seconds();
    const json::Value report = config::run_experiment(e);
    const double c = wall_seconds();
    const std::string text = report.dump();
    const double d = wall_seconds();
    parse_us.push_back((b - a) * 1e6);
    run_us.push_back((c - b) * 1e6);
    dump_us.push_back((d - c) * 1e6);
    out.text(text);
    const auto it = first_report.find(v);
    r.check(it == first_report.end() || it->second == text,
            "variant " + std::to_string(v) +
                ": daemon report differs from config::run_experiment");
  }

  for (const std::vector<double>& window : timed.call_ms) {
    timed.rates.push_back(static_cast<double>(window.size()) / window_s);
  }
  timed.units = static_cast<double>(plain_requests);
  timed.cpu_s = plain_cpu;
  add_run_metrics(r, o, setup_s, timed);
  if (o.trace) {
    // Memory- versus disk-tier hits of the same entries.
    std::vector<double> memory_us, disk_us;
    cache::ResultCache& rc = cache::ResultCache::global();
    for (std::size_t v = 0; v < experiments.size(); ++v) {
      const mcml::McmlDesign design =
          config::experiment_from_json(experiments[v], "variant", ".")
              .resolved_design();
      const mcml::CellKind kind = mcml::CellKind::kXor2;
      (void)mcml::characterize_cell(kind, design, 1);  // now in memory
      double a = wall_seconds();
      (void)mcml::characterize_cell(kind, design, 1);
      memory_us.push_back((wall_seconds() - a) * 1e6);
      rc.clear_memory();
      a = wall_seconds();
      (void)mcml::characterize_cell(kind, design, 1);
      disk_us.push_back((wall_seconds() - a) * 1e6);
    }
    const double lookups = static_cast<double>(hits + misses);
    r.metric("service.server_ms", median(server_ms), "ms");
    r.metric("service.transport_ms", median(transport_ms), "ms");
    r.metric("config.parse_us", median(parse_us), "us");
    r.metric("config.run_us", median(run_us), "us");
    r.metric("obs.json_dump_us", median(dump_us), "us");
    r.metric("cache.memory_hit_us", median(memory_us), "us");
    r.metric("cache.disk_hit_us", median(disk_us), "us");
    r.metric("cache.hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
    r.metric("cache.evictions", static_cast<double>(evictions), "count");
    r.metric("cache.bytes_read", static_cast<double>(bytes_read), "B");
    // Closed loop: the traced loop's extra cost shows as fewer requests in
    // the same time.
    r.metric("trace.overhead",
             (plain_requests / plain_wall) / (traced_requests / traced_wall),
             "ratio");
    r.metric("trace.coverage", median(coverage), "ratio");
    r.chrome_trace = tracer.chrome_trace();
  }

  daemon.reset();
  r.outputs_digest = out.hex();
  r.context.emplace_back("variants", static_cast<std::uint64_t>(s.variants));
  r.context.emplace_back("cells_per_request",
                         static_cast<std::uint64_t>(kCellsPerRequest));
  r.context.emplace_back("cache_memory_front",
                         static_cast<std::uint64_t>(s.memory_front));
  r.context.emplace_back("loop", "closed");
  return r;
}

}  // namespace perfbench
