// Regression tests for device probing and the reusable Newton workspace.
#include <gtest/gtest.h>

#include <cstdint>

#include "pgmcml/obs/obs.hpp"
#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "support/current_source.hpp"

namespace pgmcml::spice {
namespace {

/// Process-wide count of Newton workspace (re)sizings.
std::uint64_t workspace_reallocations() {
  return obs::Registry::global().snapshot().counter(
      "spice.workspace_reallocations");
}

// A pulsed current source must probe at the solution's own time.  The old
// probe path evaluated spec_.value(0.0), silently freezing PULSE sources at
// their initial value in every recorded waveform.
TEST(ProbeCurrent, PulsedCurrentSourceFollowsItsWaveform) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  const DeviceId isrc =
      add_isource(c, "I1", c.gnd(), n1,
                  SourceSpec::pulse(0.0, 1e-3, 1e-9, 50e-12, 50e-12, 2e-9));
  c.add_resistor("R1", n1, c.gnd(), 1e3);

  TranOptions opt;
  opt.dt_max = 50e-12;
  opt.record_devices = {isrc};
  const TranResult tr = transient(c, 3e-9, opt);
  ASSERT_TRUE(tr.ok) << tr.error;

  const util::Waveform i = tr.device_waveform(isrc);
  EXPECT_NEAR(i.value_at(0.5e-9), 0.0, 1e-9);      // before the pulse
  EXPECT_NEAR(i.value_at(2.0e-9), 1e-3, 1e-6);     // on the plateau
  // The pulse must actually move: with the frozen-at-t0 bug the whole
  // waveform sat at v0 = 0.
  EXPECT_GT(i.max_value() - i.min_value(), 0.5e-3);
}

TEST(ProbeCurrent, DcProbeDefaultsToTimeZero) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  const DeviceId isrc =
      add_isource(c, "I1", c.gnd(), n1, SourceSpec::dc(2e-3));
  c.add_resistor("R1", n1, c.gnd(), 1e3);
  NewtonWorkspace ws;
  const DcResult dc = dc_operating_point(c, {}, ws);
  ASSERT_TRUE(dc.converged);
  Solution sol(dc.x, c.num_nodes());
  EXPECT_DOUBLE_EQ(c.device(isrc).probe_current(sol), 2e-3);
}

// The Newton inner loop must not allocate: the workspace is sized once per
// analysis and every iteration/timestep after that reuses it.
TEST(NewtonWorkspace, NoAllocationInsideTheInnerLoop) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  c.add_vsource("V1", n1, c.gnd(),
                SourceSpec::pulse(0.0, 1.0, 0.2e-9, 50e-12, 50e-12, 1e-9,
                                  2e-9));
  const NodeId n2 = c.node("n2");
  c.add_resistor("R1", n1, n2, 1e3);
  c.add_capacitor("C1", n2, c.gnd(), 1e-12);

  TranOptions opt;
  opt.dt_max = 20e-12;

  const std::size_t before = workspace_reallocations();
  const TranResult tr = transient(c, 4e-9, opt);
  ASSERT_TRUE(tr.ok) << tr.error;
  const std::size_t after = workspace_reallocations();

  // Hundreds of Newton iterations ran...
  EXPECT_GT(tr.newton_iterations, 100u);
  // ...but the workspace was sized exactly once for the whole analysis.
  EXPECT_EQ(after - before, 1u);

  // A second identical analysis sizes its own fresh workspace once more.
  Circuit c2;
  const NodeId m1 = c2.node("n1");
  c2.add_vsource("V1", m1, c2.gnd(),
                 SourceSpec::pulse(0.0, 1.0, 0.2e-9, 50e-12, 50e-12, 1e-9,
                                   2e-9));
  const NodeId m2 = c2.node("n2");
  c2.add_resistor("R1", m1, m2, 1e3);
  c2.add_capacitor("C1", m2, c2.gnd(), 1e-12);
  const TranResult tr2 = transient(c2, 4e-9, opt);
  ASSERT_TRUE(tr2.ok) << tr2.error;
  EXPECT_EQ(workspace_reallocations() - after, 1u);
}

}  // namespace
}  // namespace pgmcml::spice
