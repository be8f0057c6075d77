// The acquisition source simulates each distinct plaintext once and builds
// every trace as that stimulus's memoised noiseless row plus the trace's own
// noise.  These tests hold it to the per-trace acquisition it replaced: the
// oracle below rebuilds every trace the old way (a fresh LogicSim per trace,
// then PowerTracer::trace_into or quiescent_current) and the memoised source
// must match it bit for bit -- rows, plaintexts, mean current and
// diagnostics -- across styles, acquisition modes, plaintext classes, batch
// sizes, thread counts and range offsets, with and without injected faults.
// They also pin the core.acquisition.simulations counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "pgmcml/core/dpa_flow.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/obs/obs.hpp"
#include "pgmcml/power/kernels.hpp"
#include "pgmcml/power/tracer.hpp"
#include "pgmcml/util/parallel.hpp"
#include "pgmcml/util/rng.hpp"
#include "pgmcml/util/stats.hpp"

namespace pgmcml::core {
namespace {

using cells::CellLibrary;

/// What a source produced (or the oracle says it should have).
struct Stream {
  std::vector<std::uint8_t> plaintexts;
  std::vector<std::vector<double>> rows;
  double mean_current = 0.0;
  spice::FlowDiagnostics diagnostics;
};

/// The per-trace acquisition, rebuilt from public pieces: every trace runs
/// its own LogicSim and composes its row from scratch.  Only the analytic
/// kernels are supported (spice_kernels must be off).
Stream oracle(const CellLibrary& library, const DpaFlowOptions& opt) {
  const synth::MapResult mapped = map_reduced_aes(library);
  const netlist::Design& design = mapped.design;
  power::TraceOptions topt;
  topt.t_start = 0.4e-9;
  topt.dt = opt.dt;
  topt.samples = opt.samples;
  topt.noise_sigma = opt.noise_sigma;
  topt.seed = opt.seed;
  const power::PowerTracer tracer(design, library, power::default_kernels(),
                                  topt);
  power::SleepSchedule schedule;
  if (library.power_gated() && opt.gate_per_operation) {
    schedule.awake.push_back({0.2e-9, 0.4e-9 + opt.dt * opt.samples});
  }
  std::vector<netlist::NetId> p_nets(8), k_nets(8), other_inputs;
  for (std::size_t i = 0; i < design.inputs().size(); ++i) {
    const std::string& name = design.port_name(i, true);
    const netlist::NetId net = design.inputs()[i];
    if (name.size() == 4 && name[1] == '[' && name[0] == 'p') {
      p_nets[name[2] - '0'] = net;
    } else if (name.size() == 4 && name[1] == '[' && name[0] == 'k') {
      k_nets[name[2] - '0'] = net;
    } else {
      other_inputs.push_back(net);
    }
  }

  const auto trace = [&](std::size_t t, std::vector<double>& row) {
    util::Rng rng = util::Rng::stream(opt.seed, t);
    const auto plaintext =
        opt.fixed_plaintext >= 0
            ? static_cast<std::uint8_t>(opt.fixed_plaintext)
            : static_cast<std::uint8_t>(rng.bounded(256));
    netlist::LogicSim sim(design, &library);
    std::vector<std::pair<netlist::NetId, bool>> init;
    for (int b = 0; b < 8; ++b) {
      init.emplace_back(k_nets[b], (opt.key >> b) & 1);
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
    if (opt.acquisition == AcquisitionMode::kDynamic) {
      tracer.trace_into(sim.events(), schedule, t, row);
      return plaintext;
    }
    const double i_awake = tracer.quiescent_current(sim, true);
    const double i_asleep = tracer.quiescent_current(sim, false);
    const std::size_t awake_end =
        sca::static_window_bounds(sca::StaticWindow::kAwake, opt.samples)
            .second;
    util::Rng noise = util::Rng::stream(opt.seed ^ 0x57a71cc0ffeeULL, t);
    row.resize(opt.samples);
    for (std::size_t j = 0; j < opt.samples; ++j) {
      const double level = j < awake_end ? i_awake : i_asleep;
      row[j] = level + noise.gaussian(0.0, topt.noise_sigma +
                                               topt.supply_noise_ratio * level);
    }
    return plaintext;
  };

  Stream out;
  util::RunningStats current;
  for (std::size_t i = 0; i < opt.num_traces; ++i) {
    const std::size_t t = opt.first_trace + i;
    const std::string stage = "trace:" + std::to_string(t);
    spice::FlowDiagnostics diag;
    diag.record_attempt();
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        if (opt.acquisition_fault_hook) opt.acquisition_fault_hook(t, attempt);
        std::vector<double> row;
        const std::uint8_t plaintext = trace(t, row);
        if (attempt > 0) diag.record_recovery(stage);
        current.add(util::mean(row));
        out.plaintexts.push_back(plaintext);
        out.rows.push_back(std::move(row));
        break;
      } catch (const std::exception& e) {
        if (attempt == 0) {
          diag.record_retry(stage, e.what());
        } else {
          diag.record_skip(stage, e.what());
        }
      }
    }
    out.diagnostics.merge(diag);
  }
  out.mean_current = current.mean();
  return out;
}

Stream drain(AcquisitionSource& source) {
  Stream out;
  sca::TraceBatch batch;
  while (source.next(batch)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.plaintexts.push_back(batch.plaintexts[i]);
      out.rows.emplace_back(batch.traces[i].begin(), batch.traces[i].end());
    }
  }
  out.mean_current = source.mean_current();
  out.diagnostics = source.diagnostics();
  return out;
}

Stream acquire(const CellLibrary& library, const DpaFlowOptions& opt) {
  return drain(*make_acquisition_source(library, opt));
}

void expect_bitwise_equal(const Stream& want, const Stream& got,
                          const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  ASSERT_EQ(got.plaintexts, want.plaintexts) << label;
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    ASSERT_EQ(got.rows[i].size(), want.rows[i].size()) << label;
    ASSERT_EQ(std::memcmp(got.rows[i].data(), want.rows[i].data(),
                          want.rows[i].size() * sizeof(double)),
              0)
        << label << " trace " << i;
  }
  EXPECT_EQ(std::memcmp(&got.mean_current, &want.mean_current,
                        sizeof(double)),
            0)
      << label;
  EXPECT_EQ(got.diagnostics.to_json(), want.diagnostics.to_json()) << label;
}

std::uint64_t simulations() {
  return obs::Registry::global()
      .counter("core.acquisition.simulations")
      .value();
}

std::size_t distinct(const std::vector<std::uint8_t>& plaintexts) {
  return std::set<std::uint8_t>(plaintexts.begin(), plaintexts.end()).size();
}

class AcquisitionMemo : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { util::set_parallel_threads(0); }

  static CellLibrary library() {
    switch (GetParam()) {
      case 0: return CellLibrary::cmos90();
      case 1: return CellLibrary::mcml90();
      default: return CellLibrary::pgmcml90();
    }
  }
};

// 300 random plaintexts hit about 180 distinct stimuli, so most traces
// after the first batch are memo hits, some of them in the same batch as
// the trace that filled their entry.
TEST_P(AcquisitionMemo, MatchesPerTraceSimulationBitwise) {
  const CellLibrary lib = library();
  for (const AcquisitionMode mode :
       {AcquisitionMode::kDynamic, AcquisitionMode::kStatic}) {
    for (const int fixed : {-1, 0x3c}) {
      for (const std::size_t first : {std::size_t{0}, std::size_t{1000}}) {
        DpaFlowOptions opt;
        opt.num_traces = 300;
        opt.samples = 120;
        opt.acquisition = mode;
        opt.fixed_plaintext = fixed;
        opt.first_trace = first;
        const Stream want = oracle(lib, opt);
        for (const std::size_t batch : {1, 7, 256}) {
          for (const int threads : {1, 4}) {
            opt.batch_size = batch;
            util::set_parallel_threads(threads);
            const std::string label =
                lib.name() + (mode == AcquisitionMode::kStatic ? " static"
                                                               : " dynamic") +
                " fixed=" + std::to_string(fixed) +
                " first=" + std::to_string(first) +
                " batch=" + std::to_string(batch) +
                " threads=" + std::to_string(threads);
            expect_bitwise_equal(want, acquire(lib, opt), label);
          }
        }
      }
    }
  }
}

// Trace 0 is the first trace of its plaintext and fails on attempt 0, so
// its memo entry is filled by the retry; the first trace of another
// plaintext fails both attempts and is skipped, leaving its entry to the
// next trace that draws it.  Retries, recoveries, skips and every row still
// match the per-trace oracle.
TEST_P(AcquisitionMemo, FaultedFirstTraceOfAPlaintextMatchesTheOracle) {
  const CellLibrary lib = library();
  for (const AcquisitionMode mode :
       {AcquisitionMode::kDynamic, AcquisitionMode::kStatic}) {
    DpaFlowOptions opt;
    opt.num_traces = 300;
    opt.samples = 120;
    opt.acquisition = mode;
    const Stream clean = oracle(lib, opt);
    // The skipped trace: the first one whose plaintext recurs later.
    std::size_t skip = 1;
    while (std::count(clean.plaintexts.begin() + skip + 1,
                      clean.plaintexts.end(), clean.plaintexts[skip]) == 0 ||
           std::count(clean.plaintexts.begin(),
                      clean.plaintexts.begin() + skip,
                      clean.plaintexts[skip]) != 0) {
      ++skip;
    }
    opt.acquisition_fault_hook = [skip](std::size_t t, int attempt) {
      if (t == 0 && attempt == 0) throw std::runtime_error("injected: 0");
      if (t == skip) throw std::runtime_error("injected: skip");
    };
    const Stream want = oracle(lib, opt);
    EXPECT_EQ(want.diagnostics.retries, 2u);
    EXPECT_EQ(want.diagnostics.recovered, 1u);
    EXPECT_EQ(want.diagnostics.skipped, 1u);
    for (const std::size_t batch : {1, 7, 256}) {
      for (const int threads : {1, 4}) {
        opt.batch_size = batch;
        util::set_parallel_threads(threads);
        expect_bitwise_equal(want, acquire(lib, opt),
                             lib.name() + " batch=" + std::to_string(batch) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Styles, AcquisitionMemo, ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(info.param == 0   ? "Cmos"
                                              : info.param == 1 ? "Mcml"
                                                                : "PgMcml");
                         });

TEST(AcquisitionSimulations, EachDistinctPlaintextIsSimulatedOnce) {
  const CellLibrary lib = CellLibrary::pgmcml90();
  util::set_parallel_threads(4);
  DpaFlowOptions opt;
  opt.num_traces = 4000;
  opt.samples = 40;
  opt.batch_size = 64;

  std::uint64_t before = simulations();
  const Stream dynamic = acquire(lib, opt);
  const std::uint64_t dynamic_sims = simulations() - before;
  EXPECT_EQ(dynamic.rows.size(), 4000u);
  EXPECT_LE(dynamic_sims, 256u);
  EXPECT_EQ(dynamic_sims, distinct(dynamic.plaintexts));

  // A range shard builds its own memo: its simulations are its own
  // distinct plaintexts, whatever another source already simulated.
  DpaFlowOptions shard = opt;
  shard.first_trace = 2500;
  shard.num_traces = 1500;
  before = simulations();
  const Stream tail = acquire(lib, shard);
  const std::uint64_t shard_sims = simulations() - before;
  EXPECT_LE(shard_sims, 256u);
  EXPECT_EQ(shard_sims, distinct(tail.plaintexts));

  DpaFlowOptions fixed = opt;
  fixed.fixed_plaintext = 0x5a;
  before = simulations();
  EXPECT_EQ(acquire(lib, fixed).rows.size(), 4000u);
  EXPECT_EQ(simulations() - before, 1u);

  DpaFlowOptions quiescent = opt;
  quiescent.acquisition = AcquisitionMode::kStatic;
  before = simulations();
  const Stream held = acquire(lib, quiescent);
  const std::uint64_t static_sims = simulations() - before;
  EXPECT_LE(static_sims, 256u);
  EXPECT_EQ(static_sims, distinct(held.plaintexts));
  util::set_parallel_threads(0);
}

// The simulation itself, not just the memo lookup, is what the fault hook
// precedes: a trace that fails before its plaintext was ever simulated
// leaves nothing behind, so the count stays one per distinct plaintext.
TEST(AcquisitionSimulations, FailedAttemptsDoNotSimulate) {
  DpaFlowOptions opt;
  opt.num_traces = 200;
  opt.samples = 40;
  opt.acquisition_fault_hook = [](std::size_t t, int attempt) {
    if (t % 5 == 0 && attempt == 0) throw std::runtime_error("injected");
  };
  const std::uint64_t before = simulations();
  const Stream s = acquire(CellLibrary::mcml90(), opt);
  EXPECT_EQ(s.diagnostics.retries, 40u);
  EXPECT_EQ(s.diagnostics.recovered, 40u);
  EXPECT_EQ(simulations() - before, distinct(s.plaintexts));
}

}  // namespace
}  // namespace pgmcml::core
