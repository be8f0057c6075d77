// Functional verification of the transistor-level cell generators: for every
// combinational cell and every input pattern, the DC-solved differential
// output must match the cell's Boolean function.  This exercises the whole
// stack: cell topology -> MNA stamping -> Newton solver.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "pgmcml/mcml/bias.hpp"
#include "pgmcml/mcml/builder.hpp"
#include "pgmcml/spice/engine.hpp"

namespace pgmcml::mcml {
namespace {

/// Shared solved design (bias solving once keeps the suite fast).
const McmlDesign& biased_design() {
  static const McmlDesign kDesign = [] {
    McmlDesign d;
    const BiasResult b = solve_bias(d);
    EXPECT_TRUE(b.ok) << b.error;
    return d;
  }();
  return kDesign;
}

/// Builds `kind` with constant inputs and returns the DC differential output
/// voltages, one per cell output.
std::vector<double> dc_outputs(CellKind kind, const std::vector<int>& inputs,
                               int clk = 1, int ctrl = 0) {
  const McmlDesign& d = biased_design();
  spice::Circuit c;
  McmlRails rails;
  rails.vdd = c.node("vdd");
  rails.vp = c.node("vp");
  rails.vn = c.node("vn");
  rails.sleep_on = c.node("slp");
  rails.sleep_off = c.node("slpb");
  const double vdd = d.tech.vdd();
  c.add_vsource("VDD", rails.vdd, c.gnd(), spice::SourceSpec::dc(vdd));
  c.add_vsource("VP", rails.vp, c.gnd(), spice::SourceSpec::dc(d.vp));
  c.add_vsource("VN", rails.vn, c.gnd(), spice::SourceSpec::dc(d.vn));
  c.add_vsource("VSLP", rails.sleep_on, c.gnd(), spice::SourceSpec::dc(vdd));
  c.add_vsource("VSLPB", rails.sleep_off, c.gnd(), spice::SourceSpec::dc(0.0));

  McmlCellBuilder b(c, d, rails, "x.");
  auto diff_const = [&](const std::string& name, int value) {
    DiffNet net = b.make_diff(name);
    c.add_vsource("V" + name + "P", net.p, c.gnd(),
                  spice::SourceSpec::dc(value ? d.v_high() : d.v_low()));
    c.add_vsource("V" + name + "N", net.n, c.gnd(),
                  spice::SourceSpec::dc(value ? d.v_low() : d.v_high()));
    return net;
  };
  std::vector<DiffNet> data;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    data.push_back(diff_const("in" + std::to_string(i), inputs[i]));
  }
  const CellInfo& info = cell_info(kind);
  DiffNet clk_net;
  DiffNet ctrl_net;
  if (info.num_clocks > 0) clk_net = diff_const("clk", clk);
  if (info.num_controls > 0) ctrl_net = diff_const("ctl", ctrl);

  const CellPorts ports = b.emit_cell(kind, data, clk_net, ctrl_net);
  spice::NewtonWorkspace ws;
  const spice::DcResult dc = dc_operating_point(c, {}, ws);
  EXPECT_TRUE(dc.converged) << to_string(kind);
  std::vector<double> outs;
  for (const DiffNet& o : ports.outputs) {
    if (o.n < 0) {
      outs.push_back(dc.v(c, o.p) - 0.5 * vdd);  // single-ended vs mid-rail
    } else {
      outs.push_back(dc.v(c, o.p) - dc.v(c, o.n));
    }
  }
  return outs;
}

/// Checks a single-output combinational cell against its truth function.
void check_truth_table(CellKind kind, int num_inputs,
                       const std::function<int(unsigned)>& truth) {
  for (unsigned pattern = 0; pattern < (1u << num_inputs); ++pattern) {
    std::vector<int> inputs(num_inputs);
    for (int i = 0; i < num_inputs; ++i) inputs[i] = (pattern >> i) & 1;
    const auto outs = dc_outputs(kind, inputs);
    ASSERT_EQ(outs.size(), 1u);
    const int expected = truth(pattern);
    if (expected == 1) {
      EXPECT_GT(outs[0], 0.15) << to_string(kind) << " pattern=" << pattern;
    } else {
      EXPECT_LT(outs[0], -0.15) << to_string(kind) << " pattern=" << pattern;
    }
  }
}

TEST(BuilderLogic, Buffer) {
  check_truth_table(CellKind::kBuf, 1, [](unsigned p) { return p & 1; });
}

TEST(BuilderLogic, And2) {
  check_truth_table(CellKind::kAnd2, 2,
                    [](unsigned p) { return (p & 1) && (p >> 1 & 1); });
}

TEST(BuilderLogic, And3) {
  check_truth_table(CellKind::kAnd3, 3,
                    [](unsigned p) { return p == 0b111 ? 1 : 0; });
}

TEST(BuilderLogic, And4) {
  check_truth_table(CellKind::kAnd4, 4,
                    [](unsigned p) { return p == 0b1111 ? 1 : 0; });
}

TEST(BuilderLogic, Xor2) {
  check_truth_table(CellKind::kXor2, 2,
                    [](unsigned p) { return ((p & 1) ^ (p >> 1 & 1)); });
}

TEST(BuilderLogic, Xor3) {
  check_truth_table(CellKind::kXor3, 3, [](unsigned p) {
    return ((p & 1) ^ (p >> 1 & 1) ^ (p >> 2 & 1));
  });
}

TEST(BuilderLogic, Xor4) {
  check_truth_table(CellKind::kXor4, 4, [](unsigned p) {
    return ((p & 1) ^ (p >> 1 & 1) ^ (p >> 2 & 1) ^ (p >> 3 & 1));
  });
}

TEST(BuilderLogic, Mux2) {
  // Inputs: {sel, in0, in1}.
  check_truth_table(CellKind::kMux2, 3, [](unsigned p) {
    const int sel = p & 1;
    const int in0 = (p >> 1) & 1;
    const int in1 = (p >> 2) & 1;
    return sel ? in1 : in0;
  });
}

TEST(BuilderLogic, Mux4) {
  // Inputs: {sel0, sel1, in0, in1, in2, in3}.
  check_truth_table(CellKind::kMux4, 6, [](unsigned p) {
    const int sel0 = p & 1;
    const int sel1 = (p >> 1) & 1;
    const int idx = sel1 * 2 + sel0;
    return (p >> (2 + idx)) & 1;
  });
}

TEST(BuilderLogic, Maj3) {
  check_truth_table(CellKind::kMaj3, 3, [](unsigned p) {
    const int a = p & 1, b = (p >> 1) & 1, c = (p >> 2) & 1;
    return (a + b + c) >= 2 ? 1 : 0;
  });
}

TEST(BuilderLogic, FullAdderSumAndCarry) {
  for (unsigned p = 0; p < 8; ++p) {
    const int a = p & 1, b = (p >> 1) & 1, cin = (p >> 2) & 1;
    const auto outs = dc_outputs(CellKind::kFullAdder, {a, b, cin});
    ASSERT_EQ(outs.size(), 2u);
    const int sum = a ^ b ^ cin;
    const int cout = (a + b + cin) >= 2 ? 1 : 0;
    if (sum) {
      EXPECT_GT(outs[0], 0.15) << "p=" << p;
    } else {
      EXPECT_LT(outs[0], -0.15) << "p=" << p;
    }
    if (cout) {
      EXPECT_GT(outs[1], 0.15) << "p=" << p;
    } else {
      EXPECT_LT(outs[1], -0.15) << "p=" << p;
    }
  }
}

TEST(BuilderLogic, LatchTransparentWhenClockHigh) {
  for (int dval : {0, 1}) {
    const auto outs = dc_outputs(CellKind::kDLatch, {dval}, /*clk=*/1);
    ASSERT_EQ(outs.size(), 1u);
    if (dval) {
      EXPECT_GT(outs[0], 0.15);
    } else {
      EXPECT_LT(outs[0], -0.15);
    }
  }
}

TEST(BuilderLogic, Diff2SingleProducesCmosLevels) {
  const auto high = dc_outputs(CellKind::kDiff2Single, {1});
  const auto low = dc_outputs(CellKind::kDiff2Single, {0});
  // The converter restores (nearly) full-rail CMOS levels.
  EXPECT_GT(high[0], 0.4);   // > vdd/2 + 0.4
  EXPECT_LT(low[0], -0.4);
}

TEST(BuilderLogic, TransistorBudgetMatchesComposition) {
  // Spot-check device counts: BUF = 2 loads + 2 pair + tail + sleep.
  EXPECT_EQ(transistor_count(CellKind::kBuf, true), 6);
  EXPECT_EQ(transistor_count(CellKind::kBuf, false), 5);
  EXPECT_EQ(transistor_count(CellKind::kAnd2, true), 8);
  EXPECT_EQ(transistor_count(CellKind::kXor2, true), 10);
  // AND4 = three AND2 stages.
  EXPECT_EQ(transistor_count(CellKind::kAnd4, true),
            3 * transistor_count(CellKind::kAnd2, true));
}

TEST(BuilderLogic, InputCountValidation) {
  const McmlDesign& d = biased_design();
  spice::Circuit c;
  McmlRails rails;
  rails.vdd = c.node("vdd");
  rails.vp = c.node("vp");
  rails.vn = c.node("vn");
  rails.sleep_on = c.node("slp");
  rails.sleep_off = c.node("slpb");
  McmlCellBuilder b(c, d, rails, "x.");
  const DiffNet a = b.make_diff("a");
  EXPECT_THROW(b.emit_cell(CellKind::kAnd2, {a}), std::invalid_argument);
  EXPECT_THROW(b.emit_cell(CellKind::kDff, {a}), std::invalid_argument);
}

}  // namespace
}  // namespace pgmcml::mcml
