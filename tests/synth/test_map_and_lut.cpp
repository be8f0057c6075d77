// Mapper and LUT-synthesis tests, ending in the flagship integration check:
// the synthesized AES S-box netlist, mapped to each library and run through
// the event-driven logic simulator, must match the software S-box on all
// 256 inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pgmcml/aes/aes.hpp"
#include "pgmcml/netlist/logicsim.hpp"
#include "pgmcml/synth/lut.hpp"
#include "pgmcml/synth/map.hpp"

namespace pgmcml::synth {
namespace {

using cells::CellLibrary;
using mcml::CellKind;

/// Evaluates a mapped combinational design on one input pattern.
std::vector<bool> run_netlist(const netlist::Design& d,
                              const std::vector<bool>& inputs) {
  netlist::LogicSim sim(d, nullptr);
  std::vector<std::pair<netlist::NetId, bool>> assign;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < d.inputs().size(); ++i) {
    if (d.port_name(i, true) == "const0") {
      assign.emplace_back(d.inputs()[i], false);
    } else {
      assign.emplace_back(d.inputs()[i], inputs.at(idx++));
    }
  }
  // Drive twice: once all-zero is implicit, so settle the real pattern.
  sim.apply_and_settle(assign);
  std::vector<bool> out;
  for (std::size_t i = 0; i < d.outputs().size(); ++i) {
    out.push_back(sim.value(d.outputs()[i]) != d.output_inverted(i));
  }
  return out;
}

TEST(Mapper, CollapsesAndTreesIntoWideCells) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  const Lit c = m.input("c");
  const Lit d = m.input("d");
  m.output("y", m.land(m.land(a, b), m.land(c, d)));
  const auto res = map_module(m, CellLibrary::pgmcml90());
  ASSERT_EQ(res.design.num_instances(), 1u);
  EXPECT_EQ(res.design.instance(0).kind, CellKind::kAnd4);
}

TEST(Mapper, CollapseDisabledKeepsTwoInputCells) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  const Lit c = m.input("c");
  m.output("y", m.land(m.land(a, b), c));
  MapOptions opt;
  opt.collapse = false;
  const auto res = map_module(m, CellLibrary::pgmcml90(), opt);
  EXPECT_EQ(res.design.num_instances(), 2u);
  for (const auto& inst : res.design.instances()) {
    EXPECT_EQ(inst.kind, CellKind::kAnd2);
  }
}

TEST(Mapper, SharedSubtreesAreNotCollapsed) {
  // The inner AND feeds two users, so it must stay a cell of its own.
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  const Lit c = m.input("c");
  const Lit ab = m.land(a, b);
  m.output("y1", m.land(ab, c));
  m.output("y2", m.lxor(ab, c));
  const auto res = map_module(m, CellLibrary::pgmcml90());
  EXPECT_EQ(res.design.num_instances(), 3u);  // AND2 + AND2 + XOR2
}

TEST(Mapper, XorTreesCollapseWithParity) {
  Module m;
  const auto in = m.input_bus("x", 4);
  m.output("p", m.lxor(m.lxor(in[0], in[1]), m.lxor(in[2], in[3])));
  const auto res = map_module(m, CellLibrary::pgmcml90());
  ASSERT_EQ(res.design.num_instances(), 1u);
  EXPECT_EQ(res.design.instance(0).kind, CellKind::kXor4);
  // Functional check on a couple of patterns.
  EXPECT_EQ(run_netlist(res.design, {true, false, false, false})[0], true);
  EXPECT_EQ(run_netlist(res.design, {true, true, true, false})[0], true);
  EXPECT_EQ(run_netlist(res.design, {true, true, false, false})[0], false);
}

TEST(Mapper, MuxPairsFuseIntoMux4) {
  Module m;
  const Lit s0 = m.input("s0");
  const Lit s1 = m.input("s1");
  const auto in = m.input_bus("d", 4);
  const Lit lo = m.lmux(s0, in[0], in[1]);
  const Lit hi = m.lmux(s0, in[2], in[3]);
  m.output("y", m.lmux(s1, lo, hi));
  const auto res = map_module(m, CellLibrary::pgmcml90());
  ASSERT_EQ(res.design.num_instances(), 1u);
  EXPECT_EQ(res.design.instance(0).kind, CellKind::kMux4);
  // Exhaustive functional check.
  for (unsigned p = 0; p < 64; ++p) {
    const bool vs0 = p & 1, vs1 = p & 2;
    const bool d0 = p & 4, d1 = p & 8, d2 = p & 16, d3 = p & 32;
    const bool expected = vs1 ? (vs0 ? d3 : d2) : (vs0 ? d1 : d0);
    EXPECT_EQ(run_netlist(res.design, {vs0, vs1, d0, d1, d2, d3})[0], expected)
        << p;
  }
}

TEST(Mapper, CmosPaysInvertersMcmlDoesNot) {
  Module m;
  const Lit a = m.input("a");
  const Lit b = m.input("b");
  // ~a & ~b requires two inverted inputs.
  m.output("y", m.land(lit_not(a), lit_not(b)));
  const auto cmos = map_module(m, CellLibrary::cmos90());
  const auto mcml_map = map_module(m, CellLibrary::pgmcml90());
  EXPECT_EQ(cmos.inverters, 2u);
  EXPECT_EQ(mcml_map.inverters, 0u);
  EXPECT_GT(cmos.design.num_instances(), mcml_map.design.num_instances());
  // Both must compute the same function.
  for (unsigned p = 0; p < 4; ++p) {
    const bool va = p & 1, vb = p & 2;
    const bool expected = !va && !vb;
    EXPECT_EQ(run_netlist(cmos.design, {va, vb})[0], expected) << p;
    EXPECT_EQ(run_netlist(mcml_map.design, {va, vb})[0], expected) << p;
  }
}

TEST(Mapper, FlopsMapToSequentialCells) {
  Module m;
  const Lit d = m.input("d");
  m.output("q0", m.dff(d));
  m.output("q1", m.dff(m.lxor(d, m.input("e"))));
  const auto res = map_module(m, CellLibrary::pgmcml90());
  int dff = 0;
  for (const auto& inst : res.design.instances()) {
    if (inst.kind != CellKind::kDff) continue;
    ++dff;
    EXPECT_NE(inst.clk, netlist::kNoNet);
  }
  EXPECT_EQ(dff, 2);
}

/// A single-output truth table as the bit-0 column of an 8-bit LUT.
std::vector<std::uint8_t> bit0_table(const std::vector<bool>& tt) {
  return std::vector<std::uint8_t>(tt.begin(), tt.end());
}

TEST(Lut, TwoVariableFunctionsExact) {
  for (unsigned code = 0; code < 16; ++code) {
    Module m;
    const auto in = m.input_bus("x", 2);
    std::vector<bool> tt(4);
    for (int i = 0; i < 4; ++i) tt[i] = (code >> i) & 1;
    m.output("f", synthesize_lut8(m, in, bit0_table(tt))[0]);
    for (unsigned p = 0; p < 4; ++p) {
      const auto out = m.evaluate({bool(p & 1), bool(p & 2)});
      EXPECT_EQ(out[0], tt[p]) << "code=" << code << " p=" << p;
    }
  }
}

TEST(Lut, RandomSixInputFunction) {
  Module m;
  const auto in = m.input_bus("x", 6);
  std::vector<bool> tt(64);
  for (int i = 0; i < 64; ++i) tt[i] = (i * 2654435761u >> 7) & 1;
  m.output("f", synthesize_lut8(m, in, bit0_table(tt))[0]);
  for (unsigned p = 0; p < 64; ++p) {
    std::vector<bool> v(6);
    for (int i = 0; i < 6; ++i) v[i] = (p >> i) & 1;
    EXPECT_EQ(m.evaluate(v)[0], tt[p]) << p;
  }
}

TEST(Lut, TableSizeValidation) {
  Module m;
  const auto in = m.input_bus("x", 3);
  EXPECT_THROW(synthesize_lut8(m, in, std::vector<std::uint8_t>(4)),
               std::invalid_argument);
}

TEST(Lut, SboxModuleMatchesSoftware) {
  // IR-level check before mapping.
  Module m;
  const auto in = m.input_bus("x", 8);
  const std::vector<std::uint8_t> table(aes::sbox().begin(),
                                        aes::sbox().end());
  m.output_bus("s", synthesize_lut8(m, in, table));
  for (int p = 0; p < 256; ++p) {
    std::vector<bool> v(8);
    for (int i = 0; i < 8; ++i) v[i] = (p >> i) & 1;
    const auto out = m.evaluate(v);
    int result = 0;
    for (int i = 0; i < 8; ++i) result |= int(out[i]) << i;
    EXPECT_EQ(result, aes::sbox()[p]) << p;
  }
}

class SboxNetlistTest : public ::testing::TestWithParam<int> {};

TEST_P(SboxNetlistTest, MappedSboxMatchesSoftwareOnAllInputs) {
  const int style = GetParam();
  const CellLibrary lib = style == 0   ? CellLibrary::cmos90()
                          : style == 1 ? CellLibrary::mcml90()
                                       : CellLibrary::pgmcml90();
  Module m("sbox");
  const auto in = m.input_bus("x", 8);
  const std::vector<std::uint8_t> table(aes::sbox().begin(),
                                        aes::sbox().end());
  m.output_bus("s", synthesize_lut8(m, in, table));
  const auto res = map_module(m, lib);
  EXPECT_GT(res.design.num_instances(), 50u);
  for (int p = 0; p < 256; ++p) {
    std::vector<bool> v(8);
    for (int i = 0; i < 8; ++i) v[i] = (p >> i) & 1;
    const auto out = run_netlist(res.design, v);
    int result = 0;
    for (int i = 0; i < 8; ++i) result |= int(out[i]) << i;
    ASSERT_EQ(result, aes::sbox()[p]) << lib.name() << " input " << p;
  }
}

std::string style_name(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"cmos", "mcml", "pgmcml"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllStyles, SboxNetlistTest, ::testing::Values(0, 1, 2),
                         style_name);

TEST(Mapper, CmosSboxHasMoreCellsThanMcml) {
  // The Table 3 cell-count ordering: static CMOS pays inverters that
  // differential MCML gets for free.
  Module m("sbox");
  const auto in = m.input_bus("x", 8);
  const std::vector<std::uint8_t> table(aes::sbox().begin(),
                                        aes::sbox().end());
  m.output_bus("s", synthesize_lut8(m, in, table));
  const auto cmos = map_module(m, CellLibrary::cmos90());
  const auto mcml_map = map_module(m, CellLibrary::mcml90());
  EXPECT_GT(cmos.design.num_instances(), mcml_map.design.num_instances());
  EXPECT_GT(cmos.inverters, 0u);
  EXPECT_EQ(mcml_map.inverters, 0u);
}

}  // namespace
}  // namespace pgmcml::synth
