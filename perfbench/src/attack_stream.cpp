// Workload attack_stream: the Fig. 6 dynamic attack stream.
//
// core::run_dpa_flow for CMOS, MCML and PG-MCML with CPA, DPA, MLPA and MTD
// on, keep_traces off, analytic kernels, 600 samples on a 2 ps grid.  The
// seed drives the plaintext/noise stream; the key is the Fig. 6 key.  No
// SPICE, cache, service or campaign code runs here.
//
// The traced run replaces run_dpa_flow by the same public pieces it is made
// of (acquisition source, MTD tracker, DPA and MLPA accumulators) so each
// layer can be timed, checks that this loop reproduces run_dpa_flow bit for
// bit, and replays a sample of traces single-threaded through LogicSim and
// PowerTracer::trace_into.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pgmcml/cache/cache.hpp"
#include "pgmcml/cells/library.hpp"
#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/sca/accumulator.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"

namespace perfbench {

namespace {

using namespace pgmcml;

constexpr std::uint8_t kKey = 0x2b;  // the Fig. 6 key

struct Sizes {
  std::size_t traces;      ///< per style and flow
  std::size_t samples;
  std::size_t setup_reps;  ///< set-ups before the timed loop
  std::size_t setup_reps_per_call;  ///< set-ups after each timed flow
  std::size_t replay;      ///< traces replayed per style in the traced run
};

Sizes sizes(const RunOptions& o) {
  if (o.smoke) return {96, 120, 1, 0, 8};
  // 4000 traces per style, as in bench_fig6_cpa: at 2000, one seed in
  // about sixty left the CMOS key at rank 2.
  return {4000, 600, 21, 7, 48};
}

core::DpaFlowOptions flow_options(const RunOptions& o, const Sizes& s) {
  core::DpaFlowOptions f;
  f.num_traces = s.traces;
  f.samples = s.samples;
  f.dt = 2e-12;
  f.key = kKey;
  f.seed = util::Rng(o.seed).next_u64();
  f.keep_traces = false;
  f.compute_mtd = true;
  f.compute_mlpa = true;
  return f;
}

std::vector<cells::CellLibrary> libraries() {
  return {cells::CellLibrary::cmos90(), cells::CellLibrary::mcml90(),
          cells::CellLibrary::pgmcml90()};
}

/// The verdicts one style's flow produces.
struct Verdict {
  sca::CpaResult cpa;
  sca::DpaResult dpa;
  sca::MlpaResult mlpa;
  std::size_t mtd = 0;
  std::size_t mlpa_mtd = 0;
  std::size_t skipped = 0;
  double mean_current = 0.0;

  std::string digest() const {
    Digest d;
    d.value(cpa.peak_correlation);
    d.value(dpa.peak_difference);
    d.value(mlpa.score);
    d.value(mtd);
    d.value(mlpa_mtd);
    d.value(skipped);
    d.value(mean_current);
    return d.hex();
  }
};

Verdict from_flow(const core::DpaFlowResult& r) {
  return {r.cpa, r.dpa, r.mlpa, r.mtd, r.mlpa_mtd, r.diagnostics.skipped,
          r.mean_current};
}

/// The paper's verdict per style: CMOS discloses the key, MCML and PG-MCML
/// do not.  A non-leaking style can put the true key at rank 0 at the last
/// checkpoint by chance (about 1 in 256), so "disclosed" means what the
/// MTD tracker reports: rank 0 reached and held to the end -- here from
/// half the campaign on.  Only meaningful at full scale.
void check_verdict(WorkloadResult& r, const cells::CellLibrary& lib,
                   const Verdict& v, std::size_t traces) {
  const std::string style = cells::to_string(lib.style());
  const bool held = v.mtd != 0 && v.mtd <= traces / 2;
  if (lib.style() == cells::LogicStyle::kCmos) {
    r.check(v.cpa.key_rank(kKey) == 0,
            "CMOS: CPA key rank " + std::to_string(v.cpa.key_rank(kKey)) +
                ", expected 0");
  } else {
    r.check(!held, style + ": key disclosed at MTD " + std::to_string(v.mtd));
  }
}

/// Per-iteration layer totals of the traced loop.
struct LayerTimes {
  double acquire_s = 0.0;
  double acquire_cpu_s = 0.0;
  double fold_cpa_mtd_s = 0.0;
  double fold_dpa_s = 0.0;
  double fold_mlpa_s = 0.0;
  double verdict_s = 0.0;
  double bytes = 0.0;
  double fold_s() const { return fold_cpa_mtd_s + fold_dpa_s + fold_mlpa_s; }
};

/// run_dpa_flow's single streamed pass, rebuilt from its public parts with
/// a span around every call into a layer.
Verdict traced_flow(const cells::CellLibrary& lib,
                    const core::DpaFlowOptions& f, Tracer& tracer,
                    LayerTimes& t) {
  std::unique_ptr<core::AcquisitionSource> source;
  {
    auto s = tracer.scope("core.make_source");
    source = core::make_acquisition_source(lib, f);
  }
  const auto model = sca::LeakageModel::kHammingWeight;
  std::unique_ptr<sca::MtdTracker> mtd;
  std::unique_ptr<sca::DpaAccumulator> dpa;
  std::unique_ptr<sca::MlpaMtdTracker> mlpa;
  {
    auto s = tracer.scope("sca.init");
    mtd = std::make_unique<sca::MtdTracker>(model, f.samples, f.key,
                                            f.num_traces);
    dpa = std::make_unique<sca::DpaAccumulator>(f.samples);
    mlpa = std::make_unique<sca::MlpaMtdTracker>(f.samples, f.key,
                                                 f.num_traces);
  }
  sca::TraceBatch batch;
  for (;;) {
    double w0 = wall_seconds();
    const double c0 = process_cpu_seconds();
    bool more = false;
    {
      auto s = tracer.scope("core.acquire");
      more = source->next(batch);
    }
    t.acquire_cpu_s += process_cpu_seconds() - c0;
    double w1 = wall_seconds();
    t.acquire_s += w1 - w0;
    if (!more) break;
    t.bytes += static_cast<double>(batch.size() * f.samples * sizeof(double));
    {
      auto s = tracer.scope("sca.fold.cpa_mtd");
      mtd->add_batch(batch);
    }
    w0 = wall_seconds();
    t.fold_cpa_mtd_s += w0 - w1;
    {
      auto s = tracer.scope("sca.fold.dpa");
      dpa->add_batch(batch);
    }
    w1 = wall_seconds();
    t.fold_dpa_s += w1 - w0;
    {
      auto s = tracer.scope("sca.fold.mlpa");
      mlpa->add_batch(batch);
    }
    t.fold_mlpa_s += wall_seconds() - w1;
  }
  const double v0 = wall_seconds();
  Verdict v;
  {
    auto s = tracer.scope("sca.verdict");
    v.cpa = mtd->snapshot(false);
    v.mtd = mtd->finish();
    v.dpa = dpa->snapshot();
    v.mlpa = mlpa->snapshot();
    v.mlpa_mtd = mlpa->finish();
    (void)v.cpa.key_rank(f.key);  // run_dpa_flow's verdict scalars
    (void)v.cpa.margin(f.key);
  }
  t.verdict_s += wall_seconds() - v0;
  v.skipped = source->diagnostics().skipped;
  v.mean_current = source->mean_current();
  return v;
}

/// Index of the primary input named `<prefix>[bit]`, or -1.
int bus_bit(const std::string& name, char prefix) {
  if (name.size() < 4 || name[0] != prefix || name[1] != '[' ||
      name.back() != ']') {
    return -1;
  }
  const int bit = std::stoi(name.substr(2, name.size() - 3));
  return bit < 8 ? bit : -1;
}

struct ReplayStats {
  std::vector<double> logicsim_us;
  std::vector<double> compose_us;
  double events = 0.0;
  std::size_t traces = 0;
  bool bitwise = true;
};

/// Replays traces [first, first + count) of `lib` single-threaded through
/// LogicSim and PowerTracer::trace_into, the way the acquisition source
/// builds them, and compares every row with the source's row bit for bit.
void replay(const cells::CellLibrary& lib, const core::DpaFlowOptions& f,
            std::size_t first, std::size_t count, ReplayStats& out) {
  core::DpaFlowOptions sf = f;
  sf.first_trace = first;
  sf.num_traces = count;
  sf.batch_size = count;
  auto source = core::make_acquisition_source(lib, sf);
  sca::TraceBatch batch;
  source->next(batch);

  const synth::MapResult mapped = core::map_reduced_aes(lib);
  const netlist::Design& design = mapped.design;
  power::TraceOptions topt;
  topt.t_start = 0.4e-9;
  topt.dt = f.dt;
  topt.samples = f.samples;
  topt.noise_sigma = f.noise_sigma;
  topt.seed = f.seed;
  const power::PowerTracer tracer(design, lib, power::default_kernels(), topt);
  power::SleepSchedule schedule;
  if (lib.power_gated() && f.gate_per_operation) {
    schedule.awake.push_back({0.2e-9, 0.4e-9 + f.dt * f.samples});
  }
  std::array<netlist::NetId, 8> p_nets{};
  std::array<netlist::NetId, 8> k_nets{};
  std::vector<netlist::NetId> other_inputs;
  for (std::size_t i = 0; i < design.inputs().size(); ++i) {
    const std::string& name = design.port_name(i, true);
    if (const int b = bus_bit(name, 'p'); b >= 0) {
      p_nets[b] = design.inputs()[i];
    } else if (const int kb = bus_bit(name, 'k'); kb >= 0) {
      k_nets[kb] = design.inputs()[i];
    } else {
      other_inputs.push_back(design.inputs()[i]);
    }
  }

  std::vector<double> row;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t t = first + i;
    util::Rng rng = util::Rng::stream(f.seed, t);
    const auto plaintext = static_cast<std::uint8_t>(rng.bounded(256));
    const double t0 = wall_seconds();
    netlist::LogicSim sim(design, &lib);
    std::vector<std::pair<netlist::NetId, bool>> init;
    for (int b = 0; b < 8; ++b) {
      init.emplace_back(k_nets[b], (f.key >> b) & 1);
      init.emplace_back(p_nets[b], false);
    }
    for (netlist::NetId n : other_inputs) init.emplace_back(n, false);
    sim.apply_and_settle(init);
    sim.clear_events();
    sim.run_until(0.5e-9);
    std::vector<std::pair<netlist::NetId, bool>> stimulus;
    for (int b = 0; b < 8; ++b) {
      stimulus.emplace_back(p_nets[b], (plaintext >> b) & 1);
    }
    sim.apply_and_settle(stimulus);
    const double t1 = wall_seconds();
    tracer.trace_into(sim.events(), schedule, t, row);
    const double t2 = wall_seconds();
    out.logicsim_us.push_back((t1 - t0) * 1e6);
    out.compose_us.push_back((t2 - t1) * 1e6);
    out.events += static_cast<double>(sim.events().size());
    ++out.traces;
    const bool same =
        i < batch.size() && batch.plaintexts[i] == plaintext &&
        batch.traces[i].size() == row.size() &&
        std::memcmp(batch.traces[i].data(), row.data(),
                    row.size() * sizeof(double)) == 0;
    out.bitwise = out.bitwise && same;
  }
}

}  // namespace

WorkloadResult run_attack_stream(const RunOptions& o) {
  WorkloadResult r;
  const Sizes s = sizes(o);
  util::set_parallel_threads(o.threads);
  cache::ResultCache::global().configure(cache::CacheOptions{});
  const core::DpaFlowOptions f = flow_options(o, s);

  // Inputs: the plaintext stream the acquisition derives from the seed.
  {
    Digest d;
    d.value(f.seed);
    d.value(f.key);
    for (std::size_t t = 0; t < s.traces; ++t) {
      util::Rng rng = util::Rng::stream(f.seed, t);
      d.value(static_cast<std::uint8_t>(rng.bounded(256)));
    }
    r.inputs_digest = d.hex();
  }

  // Set-up: the libraries plus each style's acquisition source (synthesis
  // and mapping of the reduced AES, tracer construction).  It is repeated
  // before the timed loop and again after every flow of it, so the median
  // samples the whole run rather than one moment of the host's load.
  std::vector<double> setup_s;
  std::vector<double> map_ms;
  auto set_up = [&] {
    const double c0 = cpu_seconds_with_children();
    std::vector<cells::CellLibrary> fresh = libraries();
    for (const cells::CellLibrary& lib : fresh) {
      (void)core::make_acquisition_source(lib, f);
    }
    setup_s.push_back(cpu_seconds_with_children() - c0);
    if (o.trace) {
      for (const cells::CellLibrary& lib : fresh) {
        const double m0 = wall_seconds();
        (void)core::map_reduced_aes(lib);
        map_ms.push_back((wall_seconds() - m0) * 1e3);
      }
    }
    return fresh;
  };
  std::vector<cells::CellLibrary> libs;
  for (std::size_t rep = 0; rep < s.setup_reps; ++rep) libs = set_up();

  std::vector<std::string> reference(libs.size());
  std::vector<double> plain_iter_s;
  std::vector<double> traced_iter_s;
  std::vector<LayerTimes> layer_iters;
  std::vector<double> coverage;
  Timed timed;  // rates: traces/s per flow
  timed.call_ms.emplace_back();
  Tracer tracer(o.trace);

  auto plain_iteration = [&] {
    double flows_s = 0.0;
    for (std::size_t k = 0; k < libs.size(); ++k) {
      const double c0 = process_cpu_seconds();
      const double t0 = wall_seconds();
      const core::DpaFlowResult res = core::run_dpa_flow(libs[k], f);
      const double took = wall_seconds() - t0;
      timed.cpu_s += process_cpu_seconds() - c0;
      flows_s += took;
      const Verdict v = from_flow(res);
      r.attempted += s.traces;
      r.failed += v.skipped;
      const auto done = static_cast<double>(s.traces - v.skipped);
      timed.units += done;
      timed.rates.push_back(done / took);
      timed.call_ms[0].push_back(took * 1e3);
      const std::string dg = v.digest();
      if (reference[k].empty()) {
        reference[k] = dg;
        r.check(v.skipped == 0, cells::to_string(libs[k].style()) + ": " +
                                    std::to_string(v.skipped) +
                                    " traces skipped");
        if (!o.smoke) check_verdict(r, libs[k], v, s.traces);
      } else {
        r.check(dg == reference[k], cells::to_string(libs[k].style()) +
                                        ": flow not deterministic across "
                                        "iterations");
      }
      for (std::size_t rep = 0; rep < s.setup_reps_per_call; ++rep) {
        (void)set_up();
      }
    }
    plain_iter_s.push_back(flows_s);
  };
  auto traced_iteration = [&] {
    LayerTimes t;
    const double i0 = wall_seconds();
    for (std::size_t k = 0; k < libs.size(); ++k) {
      const Verdict v = traced_flow(libs[k], f, tracer, t);
      r.check(v.digest() == reference[k],
              cells::to_string(libs[k].style()) +
                  ": traced loop differs from run_dpa_flow");
    }
    const double i1 = wall_seconds();
    traced_iter_s.push_back(i1 - i0);
    layer_iters.push_back(t);
    coverage.push_back(tracer.coverage(i0, i1));
  };

  // Warm-up outside the timed region: the thread pool and first-touch
  // allocations of the accumulators.
  core::DpaFlowOptions warm = f;
  warm.num_traces = std::min<std::size_t>(f.num_traces, 256);
  for (const cells::CellLibrary& lib : libs) (void)core::run_dpa_flow(lib, warm);

  const double start = wall_seconds();
  do {
    plain_iteration();
    if (o.trace) traced_iteration();
  } while (!o.smoke && wall_seconds() - start < o.seconds);

  add_run_metrics(r, o, setup_s, timed);
  if (o.trace) {
    ReplayStats rs;
    util::Rng pick(o.seed ^ 0x5eed5eedULL);
    for (const cells::CellLibrary& lib : libs) {
      const std::size_t first = pick.bounded(s.traces - s.replay + 1);
      replay(lib, f, first, s.replay, rs);
    }
    r.check(rs.bitwise, "replayed rows differ from the acquisition source");

    auto med = [&](auto field) {
      std::vector<double> v;
      for (const LayerTimes& t : layer_iters) v.push_back(field(t));
      return median(v);
    };
    const double iter_s = median(traced_iter_s);
    r.metric("synth.map_ms", median(map_ms), "ms");
    r.metric("core.acquire_s", med([](const LayerTimes& t) {
               return t.acquire_s;
             }),
             "s");
    r.metric("core.acquire_cpu_util", med([&](const LayerTimes& t) {
               return t.acquire_cpu_s /
                      (t.acquire_s * static_cast<double>(o.threads));
             }),
             "ratio");
    r.metric("netlist.logicsim_us_per_trace", median(rs.logicsim_us), "us");
    r.metric("netlist.events_per_trace",
             rs.events / static_cast<double>(rs.traces), "count");
    r.metric("power.compose_us_per_trace", median(rs.compose_us), "us");
    r.metric("sca.fold.cpa_mtd_s",
             med([](const LayerTimes& t) { return t.fold_cpa_mtd_s; }), "s");
    r.metric("sca.fold.dpa_s",
             med([](const LayerTimes& t) { return t.fold_dpa_s; }), "s");
    r.metric("sca.fold.mlpa_s",
             med([](const LayerTimes& t) { return t.fold_mlpa_s; }), "s");
    r.metric("sca.bytes_streamed", layer_iters.front().bytes, "B");
    r.metric("sca.verdict_s",
             med([](const LayerTimes& t) { return t.verdict_s; }), "s");
    r.metric("attack.fold_share",
             med([](const LayerTimes& t) { return t.fold_s(); }) / iter_s,
             "ratio");
    r.metric("trace.overhead", iter_s / median(plain_iter_s), "ratio");
    r.metric("trace.coverage", median(coverage), "ratio");
    r.context.emplace_back("replayed_traces",
                           static_cast<std::uint64_t>(rs.traces));
    r.context.emplace_back("traced_iterations",
                           static_cast<std::uint64_t>(traced_iter_s.size()));
  }

  Digest out;
  for (const std::string& dg : reference) out.text(dg);
  r.outputs_digest = out.hex();
  r.context.emplace_back("traces_per_flow",
                         static_cast<std::uint64_t>(s.traces));
  r.context.emplace_back("samples", static_cast<std::uint64_t>(s.samples));
  r.context.emplace_back("stream_seed", std::to_string(f.seed));
  if (o.trace) r.chrome_trace = tracer.chrome_trace();
  return r;
}

}  // namespace perfbench
