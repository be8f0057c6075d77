// The parallel DC sweep must agree with one serial warm-start chain and be
// bitwise identical at any thread count (fixed warm-start batches).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "pgmcml/spice/circuit.hpp"
#include "pgmcml/spice/engine.hpp"
#include "pgmcml/spice/technology.hpp"
#include "pgmcml/util/parallel.hpp"

namespace pgmcml::spice {
namespace {

/// NMOS common-source stage: nonlinear enough that warm-starting matters.
std::unique_ptr<Circuit> make_stage() {
  auto c = std::make_unique<Circuit>();
  const NodeId vdd = c->node("vdd");
  const NodeId in = c->node("in");
  const NodeId out = c->node("out");
  c->add_vsource("VDD", vdd, c->gnd(), SourceSpec::dc(2.5));
  c->add_vsource("VIN", in, c->gnd(), SourceSpec::dc(0.0));
  c->add_resistor("RL", vdd, out, 10e3);
  Technology tech;
  c->add_mosfet("M1", out, in, c->gnd(), c->gnd(),
                tech.nmos(VtFlavor::kHighVt, 2e-6));
  return c;
}

class DcSweepBatchTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_parallel_threads(0); }
};

TEST_F(DcSweepBatchTest, MatchesSerialSweepPointwise) {
  std::vector<double> values;
  for (int i = 0; i <= 50; ++i) values.push_back(i * 0.05);

  // One chunk is the serial sweep: a single chain over every point.
  const auto serial =
      dc_sweep_batch(make_stage, "VIN", values, {}, values.size());
  const auto batched = dc_sweep_batch(make_stage, "VIN", values);

  ASSERT_EQ(serial.size(), batched.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].converged) << "point " << i;
    ASSERT_TRUE(batched[i].converged) << "point " << i;
    ASSERT_EQ(serial[i].x.size(), batched[i].x.size());
    for (std::size_t j = 0; j < serial[i].x.size(); ++j) {
      // Same physics; the batched sweep restarts its warm chain every
      // `chunk` points, so allow solver tolerance between the two.
      EXPECT_NEAR(serial[i].x[j], batched[i].x[j], 1e-3)
          << "point " << i << " unknown " << j;
    }
  }
}

TEST_F(DcSweepBatchTest, BitwiseIdenticalAcrossThreadCounts) {
  std::vector<double> values;
  for (int i = 0; i <= 50; ++i) values.push_back(i * 0.05);

  util::set_parallel_threads(1);
  const auto one = dc_sweep_batch(make_stage, "VIN", values);
  util::set_parallel_threads(4);
  const auto four = dc_sweep_batch(make_stage, "VIN", values);

  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].converged, four[i].converged);
    EXPECT_EQ(one[i].iterations, four[i].iterations);
    ASSERT_EQ(one[i].x.size(), four[i].x.size());
    for (std::size_t j = 0; j < one[i].x.size(); ++j) {
      EXPECT_EQ(one[i].x[j], four[i].x[j])  // bitwise, not approximate
          << "point " << i << " unknown " << j;
    }
  }
}

TEST_F(DcSweepBatchTest, ThrowsOnUnknownSource) {
  EXPECT_THROW(dc_sweep_batch(make_stage, "VNOPE", {0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pgmcml::spice
