// Workload characterize_cold: the Table 2 characterization, cold.
//
// Nominal mcml::characterize_cell for all 16 PG-MCML cells (fan-out 1, the
// paper's 50 uA / 0.4 V point) plus mcml::monte_carlo_characterize mismatch
// samples per cell, with the result cache disabled so every call solves.
// Pure spice/mcml work: Newton, LU refactorization, MosfetBank evaluation;
// logicsim, power and sca never run.  The seed draws the cell order and the
// Monte-Carlo seed of every cell.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pgmcml/cache/cache.hpp"
#include "pgmcml/mcml/bias.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/mcml/montecarlo.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"

namespace perfbench {

namespace {

using namespace pgmcml;

struct Sizes {
  std::size_t cells;
  int mc_samples;  ///< mismatch samples per cell
  std::size_t setup_reps;  ///< set-ups before the timed loop
  std::size_t setup_reps_per_call;  ///< set-ups after each library pass
};

Sizes sizes(const RunOptions& o) {
  if (o.smoke) return {3, 2, 1, 0};
  return {16, 4, 21, 3};
}

struct Inputs {
  std::vector<mcml::CellKind> cells;
  std::vector<std::uint64_t> mc_seeds;
};

Inputs make_inputs(const RunOptions& o, const Sizes& s) {
  Inputs in;
  in.cells = mcml::all_cells();
  util::Rng rng(o.seed);
  std::shuffle(in.cells.begin(), in.cells.end(), rng);
  in.cells.resize(s.cells);
  for (std::size_t i = 0; i < s.cells; ++i) in.mc_seeds.push_back(rng.next_u64());
  return in;
}

std::string digest(const mcml::CellCharacterization& ch) {
  Digest d;
  d.value(ch.ok);
  d.value(ch.delay);
  d.value(ch.swing);
  d.value(ch.static_current);
  d.value(ch.sleep_current);
  d.value(ch.wake_time);
  d.value(ch.diagnostics.attempts);
  d.value(ch.diagnostics.retries);
  return d.hex();
}

std::string digest(const mcml::MonteCarloResult& mc) {
  Digest d;
  d.value(mc.samples);
  d.value(mc.failures);
  for (const util::RunningStats* st :
       {&mc.delay, &mc.static_current, &mc.swing, &mc.sleep_current}) {
    d.value(st->count());
    d.value(st->mean());
    d.value(st->variance());
  }
  return d.hex();
}

struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> nominal_ms;
  std::vector<double> mc_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> nominal_errors;
  std::string digest;
  struct Counts {
    std::uint64_t newton, lu_solves, refactors, factorizations, failures,
        recoveries;
  } counts{};
};

Iteration iterate(const Inputs& in, const mcml::McmlDesign& design,
                  int mc_samples, Tracer& tracer) {
  Iteration it;
  const CounterDelta counters;
  const double w0 = wall_seconds();
  const double c0 = process_cpu_seconds();
  std::vector<mcml::CellCharacterization> nominal;
  it.nominal_ms.assign(in.cells.size(), 0.0);
  {
    auto s = tracer.scope("util.parallel_map");
    nominal = util::parallel_map(in.cells.size(), [&](std::size_t i) {
      auto cs = tracer.scope("mcml.characterize_cell");
      const double t0 = wall_seconds();
      mcml::CellCharacterization ch =
          mcml::characterize_cell(in.cells[i], design, 1);
      it.nominal_ms[i] = (wall_seconds() - t0) * 1e3;
      return ch;
    });
  }
  Digest d;
  for (const mcml::CellCharacterization& ch : nominal) {
    ++it.attempted;
    if (!ch.ok) {
      ++it.failed;
      it.nominal_errors.push_back(mcml::to_string(ch.kind) + ": " + ch.error);
    }
    d.text(digest(ch));
  }
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    auto s = tracer.scope("mcml.monte_carlo");
    const double t0 = wall_seconds();
    const mcml::MonteCarloResult mc = mcml::monte_carlo_characterize(
        in.cells[i], design, mc_samples, in.mc_seeds[i]);
    it.mc_ms.push_back((wall_seconds() - t0) * 1e3);
    it.attempted += static_cast<std::uint64_t>(mc_samples);
    it.failed += static_cast<std::uint64_t>(mc.failures);
    d.text(digest(mc));
  }
  it.cpu_s = process_cpu_seconds() - c0;
  it.wall_s = wall_seconds() - w0;
  it.digest = d.hex();
  it.counts = {counters.read("spice.newton_iterations"),
               counters.read("spice.lu_solves"),
               counters.read("spice.numeric_refactors"),
               counters.read("spice.lu_factorizations"),
               counters.read("spice.newton_failures"),
               counters.read("spice.ladder.recovered_steps")};
  return it;
}

}  // namespace

WorkloadResult run_characterize_cold(const RunOptions& o) {
  WorkloadResult r;
  const Sizes s = sizes(o);
  util::set_parallel_threads(o.threads);
  cache::ResultCache::global().configure(cache::CacheOptions{});  // cold
  const Inputs in = make_inputs(o, s);
  {
    Digest d;
    for (std::size_t i = 0; i < in.cells.size(); ++i) {
      d.text(mcml::to_string(in.cells[i]));
      d.value(in.mc_seeds[i]);
    }
    r.inputs_digest = d.hex();
  }

  // Set-up: the library's shared design point and its bias solve.  It is
  // repeated before the timed loop and again after every library pass of
  // it, so the median samples the whole run rather than one moment of the
  // host's load.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const double c0 = cpu_seconds_with_children();
    mcml::McmlDesign fresh{};
    const mcml::BiasResult bias = mcml::solve_bias(fresh);
    setup_s.push_back(cpu_seconds_with_children() - c0);
    r.check(bias.ok, "bias solve failed: " + bias.error);
  };
  for (std::size_t rep = 0; rep < s.setup_reps; ++rep) set_up();
  const mcml::McmlDesign design{};  // characterize_cell solves its own bias
  // Warm-up outside the timed region: the thread pool and first-touch
  // allocations of the solver.
  (void)util::parallel_map(o.threads, [&](std::size_t) {
    return mcml::characterize_cell(mcml::CellKind::kBuf, design, 1).ok;
  });

  Tracer tracer(o.trace);
  Tracer untraced(false);
  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  std::vector<double> coverage;
  std::string reference;
  auto account = [&](const Iteration& it) {
    r.attempted += it.attempted;
    r.failed += it.failed;
    for (const std::string& e : it.nominal_errors) {
      r.fail("nominal characterization failed: " + e);
    }
    if (reference.empty()) reference = it.digest;
    r.check(it.digest == reference,
            "characterization not deterministic across iterations");
  };
  const double start = wall_seconds();
  do {
    plain.push_back(iterate(in, design, s.mc_samples, untraced));
    account(plain.back());
    for (std::size_t rep = 0; rep < s.setup_reps_per_call; ++rep) set_up();
    if (o.trace) {
      const double t0 = wall_seconds();
      traced.push_back(iterate(in, design, s.mc_samples, tracer));
      coverage.push_back(tracer.coverage(t0, wall_seconds()));
      account(traced.back());
    }
  } while (!o.smoke && wall_seconds() - start < o.seconds);

  // A call is one whole library pass (what a Table 2 user waits for): the
  // per-cell latencies mix 16 cell types whose costs differ fourfold, so
  // their median jumps between cell clusters from run to run.
  Timed timed;  // rates: characterizations/s per iteration
  timed.call_ms.emplace_back();
  for (const Iteration& it : plain) {
    const auto done = static_cast<double>(it.attempted - it.failed);
    timed.rates.push_back(done / it.wall_s);
    timed.call_ms[0].push_back(it.wall_s * 1e3);
    timed.units += done;
    timed.cpu_s += it.cpu_s;
  }
  add_run_metrics(r, o, setup_s, timed);
  if (o.trace) {
    std::vector<double> nominal_ms, mc_sample_ms, traced_wall, plain_wall,
        util_ratio, us_per_newton;
    for (const Iteration& it : traced) {
      nominal_ms.insert(nominal_ms.end(), it.nominal_ms.begin(),
                        it.nominal_ms.end());
      for (double ms : it.mc_ms) mc_sample_ms.push_back(ms / s.mc_samples);
      traced_wall.push_back(it.wall_s);
      util_ratio.push_back(it.cpu_s /
                           (it.wall_s * static_cast<double>(o.threads)));
      us_per_newton.push_back(it.cpu_s * 1e6 /
                              static_cast<double>(it.counts.newton));
    }
    for (const Iteration& it : plain) plain_wall.push_back(it.wall_s);
    const Iteration::Counts& c = traced.front().counts;
    r.metric("mcml.characterize_ms_per_cell", median(nominal_ms), "ms");
    r.metric("mcml.mc_sample_ms", median(mc_sample_ms), "ms");
    r.metric("spice.newton_iterations", static_cast<double>(c.newton), "count");
    r.metric("spice.lu_solves", static_cast<double>(c.lu_solves), "count");
    r.metric("spice.numeric_refactors", static_cast<double>(c.refactors),
             "count");
    r.metric("spice.lu_factorizations", static_cast<double>(c.factorizations),
             "count");
    r.metric("spice.newton_failures", static_cast<double>(c.failures), "count");
    r.metric("spice.recoveries", static_cast<double>(c.recoveries), "count");
    r.metric("spice.us_per_newton", median(us_per_newton), "us");
    r.metric("spice.refactor_share",
             static_cast<double>(c.refactors) /
                 static_cast<double>(c.refactors + c.factorizations),
             "ratio");
    r.metric("util.parallel_cpu_util", median(util_ratio), "ratio");
    r.metric("trace.overhead", median(traced_wall) / median(plain_wall),
             "ratio");
    r.metric("trace.coverage", median(coverage), "ratio");
    r.context.emplace_back("traced_iterations",
                           static_cast<std::uint64_t>(traced.size()));
    r.chrome_trace = tracer.chrome_trace();
  }

  r.outputs_digest = reference;
  r.context.emplace_back("cells", static_cast<std::uint64_t>(s.cells));
  r.context.emplace_back("mc_samples_per_cell",
                         static_cast<std::uint64_t>(s.mc_samples));
  r.context.emplace_back("iterations",
                         static_cast<std::uint64_t>(plain.size()));
  return r;
}

}  // namespace perfbench
