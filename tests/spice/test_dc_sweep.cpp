// The .dc analysis run as one chunk of dc_sweep_batch: a single serial
// chain in which every point warm-starts from the previous solution.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/spice/technology.hpp"
#include "support/current_source.hpp"

namespace pgmcml::spice {
namespace {

std::vector<DcResult> serial_sweep(
    const std::function<std::unique_ptr<Circuit>()>& make,
    const std::string& source, const std::vector<double>& values) {
  return dc_sweep_batch(make, source, values, {}, values.size());
}

TEST(DcSweep, LinearDividerTracksSource) {
  const auto make = [] {
    auto c = std::make_unique<Circuit>();
    const NodeId in = c->node("in");
    const NodeId mid = c->node("mid");
    c->add_vsource("VIN", in, c->gnd(), SourceSpec::dc(0.0));
    c->add_resistor("R1", in, mid, 1e3);
    c->add_resistor("R2", mid, c->gnd(), 1e3);
    return c;
  };
  const auto c = make();
  const NodeId mid = c->node("mid");
  const std::vector<double> values = {0.0, 0.5, 1.0, 1.5, 2.0};
  const auto results = serial_sweep(make, "VIN", values);
  ASSERT_EQ(results.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(results[i].converged) << i;
    EXPECT_NEAR(results[i].v(*c, mid), values[i] / 2, 1e-6) << i;
  }
}

TEST(DcSweep, WarmStartUsedAfterFirstPoint) {
  const auto make = [] {
    auto c = std::make_unique<Circuit>();
    const NodeId in = c->node("in");
    c->add_vsource("VIN", in, c->gnd(), SourceSpec::dc(0.0));
    c->add_resistor("R1", in, c->gnd(), 1e3);
    return c;
  };
  const auto results = serial_sweep(make, "VIN", {0.1, 0.2, 0.3});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_NE(results[0].method, "warm");
  EXPECT_EQ(results[1].method, "warm");
  EXPECT_EQ(results[2].method, "warm");
}

TEST(DcSweep, NmosTransferCurveMonotone) {
  // Sweep the gate of a resistor-loaded NMOS: the classic inverter-like
  // transfer curve -- output monotonically falling with Vg.
  const auto make = [] {
    Technology tech;
    auto c = std::make_unique<Circuit>();
    const NodeId vdd = c->node("vdd");
    const NodeId g = c->node("g");
    const NodeId d = c->node("d");
    c->add_vsource("VDD", vdd, c->gnd(), SourceSpec::dc(1.2));
    c->add_vsource("VG", g, c->gnd(), SourceSpec::dc(0.0));
    c->add_resistor("RL", vdd, d, 10e3);
    c->add_mosfet("M1", d, g, c->gnd(), c->gnd(),
                  tech.nmos(VtFlavor::kHighVt, 1e-6));
    return c;
  };
  const auto c = make();
  const NodeId d = c->node("d");
  std::vector<double> vg;
  for (double v = 0.0; v <= 1.2001; v += 0.1) vg.push_back(v);
  const auto results = serial_sweep(make, "VG", vg);
  double prev = 1.3;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].converged) << i;
    const double vout = results[i].v(*c, d);
    EXPECT_LE(vout, prev + 1e-6) << "vg=" << vg[i];
    prev = vout;
  }
  // Endpoints: off -> vdd; strongly on -> low.
  EXPECT_NEAR(results.front().v(*c, d), 1.2, 0.01);
  EXPECT_LT(results.back().v(*c, d), 0.35);
}

TEST(DcSweep, DifferentialPairSteeringCurve) {
  // Sweep one input of an MCML-style pair around the other: the output
  // differential follows the classic tanh-like steering characteristic.
  const auto make = [] {
    Technology tech;
    auto c = std::make_unique<Circuit>();
    const NodeId vdd = c->node("vdd");
    const NodeId op = c->node("op");
    const NodeId on = c->node("on");
    const NodeId tail = c->node("tail");
    const NodeId ip = c->node("ip");
    const NodeId in = c->node("in");
    c->add_vsource("VDD", vdd, c->gnd(), SourceSpec::dc(1.2));
    c->add_vsource("VIP", ip, c->gnd(), SourceSpec::dc(1.0));
    c->add_vsource("VIN", in, c->gnd(), SourceSpec::dc(1.0));
    c->add_resistor("RP", vdd, op, 8e3);
    c->add_resistor("RN", vdd, on, 8e3);
    const MosParams nm = tech.nmos(VtFlavor::kHighVt, 2e-6);
    c->add_mosfet("M1", op, ip, tail, c->gnd(), nm);
    c->add_mosfet("M2", on, in, tail, c->gnd(), nm);
    add_isource(*c, "IT", tail, c->gnd(), SourceSpec::dc(50e-6));
    return c;
  };
  const auto c = make();
  const NodeId op = c->node("op");
  const NodeId on = c->node("on");

  std::vector<double> vs;
  for (double v = 0.6; v <= 1.4001; v += 0.1) vs.push_back(v);
  const auto results = serial_sweep(make, "VIP", vs);
  // Differential output crosses zero near balance and saturates at the
  // rails of +-Iss*R = +-0.4 V.
  double prev_diff = 1.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].converged);
    const double diff = results[i].v(*c, op) - results[i].v(*c, on);
    EXPECT_LE(diff, prev_diff + 1e-6);
    prev_diff = diff;
  }
  const double d0 = results.front().v(*c, op) - results.front().v(*c, on);
  const double d1 = results.back().v(*c, op) - results.back().v(*c, on);
  EXPECT_NEAR(d0, 0.4, 0.05);   // ip low: current in M2, op high
  EXPECT_NEAR(d1, -0.4, 0.05);  // ip high: fully steered
}

TEST(DcSweep, RejectsBadSourceNames) {
  const auto make = [] {
    auto c = std::make_unique<Circuit>();
    const NodeId a = c->node("a");
    c->add_vsource("V1", a, c->gnd(), SourceSpec::dc(1.0));
    c->add_resistor("R1", a, c->gnd(), 1e3);
    return c;
  };
  EXPECT_THROW(serial_sweep(make, "NOPE", {1.0}), std::invalid_argument);
  // Only a voltage source can be swept.
  EXPECT_THROW(serial_sweep(make, "R1", {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace pgmcml::spice
