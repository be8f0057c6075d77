#include "pgmcml/mcml/bias.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pgmcml::mcml {
namespace {

TEST(Bias, SolvesDefaultDesignPoint) {
  McmlDesign d;
  const BiasResult b = solve_bias(d);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_NEAR(b.achieved_iss, d.iss, 0.05 * d.iss);
  EXPECT_NEAR(b.achieved_vsw, d.vsw, 0.05 * d.vsw);
  // Solved voltages written back into the design.
  EXPECT_DOUBLE_EQ(d.vn, b.vn);
  EXPECT_DOUBLE_EQ(d.vp, b.vp);
  EXPECT_GT(b.vn, 0.3);
  EXPECT_LT(b.vn, 1.0);
}

TEST(Bias, TailCurrentMonotoneInVn) {
  McmlDesign d;
  spice::NewtonWorkspace ws;
  const double i1 = replica_tail_current(d, 0.45, 0.3, ws);
  const double i2 = replica_tail_current(d, 0.55, 0.3, ws);
  const double i3 = replica_tail_current(d, 0.65, 0.3, ws);
  EXPECT_LT(i1, i2);
  EXPECT_LT(i2, i3);
  EXPECT_GT(i1, 0.0);
}

TEST(Bias, GatedTailNeedsSlightlyHigherVn) {
  // The series sleep transistor steals headroom, so the PG design needs a
  // higher Vn for the same current -- the paper's "current source slightly
  // increased" observation.
  McmlDesign pg;
  McmlDesign conv;
  conv.gating = GatingTopology::kNone;
  const BiasResult bpg = solve_bias(pg);
  const BiasResult bcv = solve_bias(conv);
  ASSERT_TRUE(bpg.ok) << bpg.error;
  ASSERT_TRUE(bcv.ok) << bcv.error;
  EXPECT_GE(bpg.vn, bcv.vn - 1e-3);
}

TEST(Bias, HigherIssSolvesWithHigherVn) {
  McmlDesign d50;
  McmlDesign d100 = d50.at_iss(100e-6);
  d100.w_tail *= 1.5;  // keep headroom feasible
  const BiasResult b50 = solve_bias(d50);
  const BiasResult b100 = solve_bias(d100);
  ASSERT_TRUE(b50.ok) << b50.error;
  ASSERT_TRUE(b100.ok) << b100.error;
  EXPECT_GT(b100.vn, b50.vn - 0.05);
  EXPECT_NEAR(b100.achieved_iss, 100e-6, 5e-6);
}

TEST(Bias, SwingTargetsAreMet) {
  for (double vsw : {0.3, 0.4, 0.5}) {
    McmlDesign d;
    d.vsw = vsw;
    const BiasResult b = solve_bias(d);
    ASSERT_TRUE(b.ok) << "vsw=" << vsw << ": " << b.error;
    EXPECT_NEAR(b.achieved_vsw, vsw, 0.05 * vsw);
  }
}

TEST(Bias, ImpossibleCurrentReportsError) {
  McmlDesign d;
  d.iss = 50e-3;  // 50 mA from a 2 um tail: impossible
  const BiasResult b = solve_bias(d);
  EXPECT_FALSE(b.ok);
  EXPECT_FALSE(b.error.empty());
}

TEST(Bias, BufferSwingTracksTailCurrent) {
  // Physics check: the swing is Iss * R_load.  The PMOS load is a triode
  // device whose effective resistance falls at small |Vds|, so halving the
  // current at fixed vp gives somewhat less than half the swing -- but it
  // must drop substantially and stay well below the full-swing value.
  McmlDesign d;
  const BiasResult b = solve_bias(d);
  ASSERT_TRUE(b.ok);
  McmlDesign half = d;
  half.iss = d.iss / 2;
  BiasResult bh;
  // Only re-solve Vn; keep the same vp.
  // Use the replica directly: find the half-current Vn by bisection.
  spice::NewtonWorkspace tail_ws, swing_ws;
  double lo = 0.2, hi = 1.2;
  for (int i = 0; i < 50; ++i) {
    const double mid = 0.5 * (lo + hi);
    (replica_tail_current(half, mid, 0.3, tail_ws) < half.iss ? lo : hi) =
        mid;
  }
  const double vn_half = 0.5 * (lo + hi);
  const double swing_half =
      replica_buffer_swing(half, vn_half, d.vp, swing_ws);
  EXPECT_GT(swing_half, 0.25 * d.vsw);
  EXPECT_LT(swing_half, 0.75 * d.vsw);
  (void)bh;
}

}  // namespace
}  // namespace pgmcml::mcml
