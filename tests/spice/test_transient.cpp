#include <gtest/gtest.h>

#include <cmath>

#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/spice/technology.hpp"
#include "pgmcml/util/units.hpp"

namespace pgmcml::spice {
namespace {

using util::ns;
using util::ps;

TEST(Transient, RcChargingMatchesAnalyticSolution) {
  // 1 kohm / 1 pF driven by a step: tau = 1 ns.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("VIN", in, c.gnd(),
                SourceSpec::pulse(0.0, 1.0, 0.1 * ns, 1 * ps, 1 * ps, 100 * ns));
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, c.gnd(), 1e-12);
  TranOptions opt;
  opt.dt_max = 20 * ps;
  const TranResult tr = transient(c, 5 * ns, opt);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto w = tr.node_waveform(out);
  // At t = t0 + tau the voltage is 1 - 1/e.
  const double tau = 1e-9;
  const double t0 = 0.1 * ns + 0.5 * ps;
  EXPECT_NEAR(w.value_at(t0 + tau), 1.0 - std::exp(-1.0), 0.02);
  EXPECT_NEAR(w.value_at(t0 + 4 * tau), 1.0 - std::exp(-4.0), 0.02);
  EXPECT_LT(w.value_at(0.05 * ns), 0.01);
}

TEST(Transient, CapacitorConservesChargeOnRedistribution) {
  // Precharged 1 pF dumped onto an uncharged 1 pF through a resistor:
  // final voltage = 0.5 V on both.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_capacitor("C1", a, c.gnd(), 1e-12, 1.0);
  c.add_capacitor("C2", b, c.gnd(), 1e-12, 0.0);
  c.add_resistor("R1", a, b, 1e3);
  TranOptions opt;
  // Seed the initial node voltages directly (skip the DC solve, which would
  // discharge everything).
  std::vector<double> x0(c.num_unknowns(), 0.0);
  c.finalize();
  x0[0] = 1.0;  // node a
  x0[1] = 0.0;  // node b
  opt.initial_state = x0;
  const TranResult tr = transient(c, 20e-9, opt);
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_NEAR(tr.node_waveform(a).value_at(20e-9), 0.5, 0.02);
  EXPECT_NEAR(tr.node_waveform(b).value_at(20e-9), 0.5, 0.02);
}

TEST(Transient, PulseSourceShapeReproduced) {
  Circuit c;
  const NodeId in = c.node("in");
  c.add_vsource("VIN", in, c.gnd(),
                SourceSpec::pulse(0.0, 1.2, 1 * ns, 0.1 * ns, 0.1 * ns, 2 * ns));
  c.add_resistor("RL", in, c.gnd(), 1e4);
  const TranResult tr = transient(c, 5 * ns);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto w = tr.node_waveform(in);
  EXPECT_NEAR(w.value_at(0.5 * ns), 0.0, 1e-6);
  EXPECT_NEAR(w.value_at(2.0 * ns), 1.2, 1e-6);
  EXPECT_NEAR(w.value_at(4.5 * ns), 0.0, 1e-6);
  // Edge midpoint hits mid-rail thanks to breakpoint alignment.
  EXPECT_NEAR(w.value_at(1.05 * ns), 0.6, 0.05);
}

TEST(Transient, CmosInverterInvertsAndHasFiniteDelay) {
  Technology tech;
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(tech.vdd()));
  c.add_vsource("VIN", in, c.gnd(),
                SourceSpec::pulse(0.0, tech.vdd(), 1 * ns, 50 * ps, 50 * ps,
                                  4 * ns));
  c.add_mosfet("MN", out, in, c.gnd(), c.gnd(),
               tech.nmos(VtFlavor::kLowVt, 1e-6));
  c.add_mosfet("MP", out, in, vdd, vdd, tech.pmos(VtFlavor::kLowVt, 2.5e-6));
  c.add_capacitor("CL", out, c.gnd(), 5e-15);
  const TranResult tr = transient(c, 8 * ns);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto w = tr.node_waveform(out);
  EXPECT_GT(w.value_at(0.9 * ns), tech.vdd() - 0.05);  // before edge: high
  EXPECT_LT(w.value_at(3.0 * ns), 0.05);               // after rise: low
  // Propagation delay: input 50% at 1 ns + 25 ps; output falls through 50%.
  const auto t_out = w.crossing(tech.vdd() / 2, -1, 1 * ns);
  ASSERT_TRUE(t_out.has_value());
  const double delay = *t_out - (1 * ns + 25 * ps);
  EXPECT_GT(delay, 0.0);
  EXPECT_LT(delay, 300 * ps);
}

TEST(Transient, SupplyCurrentSignConvention) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(1.0));
  c.add_resistor("R1", vdd, c.gnd(), 1e3);
  const TranResult tr = transient(c, 1e-9);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto i = supply_current(c, tr, "VDD");
  // The supply delivers 1 mA; conventional sign is positive.
  EXPECT_NEAR(i.average(), 1e-3, 1e-6);
}

TEST(Transient, EnergyDeliveredToRcMatchesTheory) {
  // Charging a capacitor through a resistor: the source delivers C*V^2,
  // half stored, half dissipated.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("VIN", in, c.gnd(),
                SourceSpec::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 1.0));
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, c.gnd(), 1e-12);
  const TranResult tr = transient(c, 10e-9);
  ASSERT_TRUE(tr.ok) << tr.error;
  const auto i = supply_current(c, tr, "VIN");
  // Energy = integral of V * I; V = 1 after the edge.
  const double charge = i.integral(0.0, 10e-9);
  EXPECT_NEAR(charge, 1e-12, 0.05e-12);  // Q = C * V
}

TEST(Transient, RecordNodesSubsetHonored) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_vsource("V1", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_resistor("R1", a, b, 1e3);
  c.add_resistor("R2", b, c.gnd(), 1e3);
  TranOptions opt;
  opt.record_nodes = {b};
  const TranResult tr = transient(c, 1e-9, opt);
  ASSERT_TRUE(tr.ok);
  EXPECT_NO_THROW(tr.node_waveform(b));
  EXPECT_THROW(tr.node_waveform(a), std::out_of_range);
}

TEST(Transient, InitialStateSizeMismatchRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, c.gnd(), SourceSpec::dc(1.0));
  c.add_resistor("R1", a, c.gnd(), 1e3);
  TranOptions opt;
  opt.initial_state = std::vector<double>{1.0};  // wrong size
  c.finalize();
  const TranResult tr = transient(c, 1e-9, opt);
  EXPECT_FALSE(tr.ok);
  EXPECT_FALSE(tr.error.empty());
}

TEST(SourceSpecTest, PulseValueAndBreakpoints) {
  const auto s = SourceSpec::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.2e-9, 1e-9, 3e-9);
  EXPECT_DOUBLE_EQ(s.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.value(1.05e-9), 0.5);
  EXPECT_DOUBLE_EQ(s.value(1.5e-9), 1.0);
  EXPECT_NEAR(s.value(2.2e-9), 0.5, 1e-9);
  // Periodic repeat.
  EXPECT_DOUBLE_EQ(s.value(4.5e-9), 1.0);
  const auto bps = s.breakpoints(5e-9);
  EXPECT_FALSE(bps.empty());
  for (std::size_t i = 1; i < bps.size(); ++i) EXPECT_GT(bps[i], bps[i - 1]);
}

}  // namespace
}  // namespace pgmcml::spice
