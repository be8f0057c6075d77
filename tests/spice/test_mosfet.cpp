#include "pgmcml/spice/mosfet.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pgmcml/spice/technology.hpp"

namespace pgmcml::spice {
namespace {

MosParams nmos_test_params() {
  Technology tech;
  return tech.nmos(VtFlavor::kHighVt, 1e-6);
}

MosParams pmos_test_params() {
  Technology tech;
  return tech.pmos(VtFlavor::kLowVt, 2e-6);
}

TEST(MosModel, CutoffCurrentIsTiny) {
  const MosParams p = nmos_test_params();
  const MosEval e = mos_eval(p, 0.0, 1.2, 0.0);
  EXPECT_GT(e.id, 0.0);          // subthreshold leakage, not exactly zero
  EXPECT_LT(e.id, 50e-9);        // but well below a microamp
}

TEST(MosModel, SaturationCurrentNearSquareLaw) {
  const MosParams p = nmos_test_params();
  const double vgs = 0.9;
  const double vds = 1.0;  // well into saturation
  const MosEval e = mos_eval(p, vgs, vds, 0.0);
  const double k = 0.5 * p.kp * p.w / p.l;
  const double expected = k * (vgs - p.vth0) * (vgs - p.vth0) *
                          (1.0 + p.lambda * vds);
  EXPECT_NEAR(e.id, expected, 0.25 * expected);  // softplus smoothing slack
}

TEST(MosModel, TriodeRegionResistive) {
  const MosParams p = nmos_test_params();
  // Small Vds: current approximately linear in Vds.
  const MosEval e1 = mos_eval(p, 1.2, 0.02, 0.0);
  const MosEval e2 = mos_eval(p, 1.2, 0.04, 0.0);
  EXPECT_NEAR(e2.id / e1.id, 2.0, 0.1);
}

TEST(MosModel, SubthresholdSlopeIsExponential) {
  const MosParams p = nmos_test_params();
  // 100 mV below threshold in two steps of 50 mV: constant current ratio.
  const double i1 = mos_eval(p, p.vth0 - 0.20, 0.6, 0.0).id;
  const double i2 = mos_eval(p, p.vth0 - 0.25, 0.6, 0.0).id;
  const double i3 = mos_eval(p, p.vth0 - 0.30, 0.6, 0.0).id;
  ASSERT_GT(i3, 0.0);
  const double r12 = i1 / i2;
  const double r23 = i2 / i3;
  EXPECT_NEAR(r12, r23, 0.15 * r12);
  EXPECT_GT(r12, 2.0);  // decays by >2x per 50 mV
}

TEST(MosModel, DerivativesMatchFiniteDifferences) {
  const MosParams p = nmos_test_params();
  const double h = 1e-6;
  for (double vgs : {0.2, 0.5, 0.8, 1.1}) {
    for (double vds : {0.05, 0.4, 1.0, -0.3}) {
      for (double vbs : {0.0, -0.4}) {
        const MosEval e = mos_eval(p, vgs, vds, vbs);
        const double gm_fd =
            (mos_eval(p, vgs + h, vds, vbs).id - mos_eval(p, vgs - h, vds, vbs).id) /
            (2 * h);
        const double gds_fd =
            (mos_eval(p, vgs, vds + h, vbs).id - mos_eval(p, vgs, vds - h, vbs).id) /
            (2 * h);
        const double gmb_fd =
            (mos_eval(p, vgs, vds, vbs + h).id - mos_eval(p, vgs, vds, vbs - h).id) /
            (2 * h);
        const double scale = std::max({std::fabs(e.gm), std::fabs(e.gds), 1e-9});
        EXPECT_NEAR(e.gm, gm_fd, 1e-4 * scale + 1e-12) << vgs << " " << vds;
        EXPECT_NEAR(e.gds, gds_fd, 1e-4 * scale + 1e-12) << vgs << " " << vds;
        EXPECT_NEAR(e.gmb, gmb_fd, 1e-4 * scale + 1e-12) << vgs << " " << vds;
      }
    }
  }
}

TEST(MosModel, CurrentContinuousThroughVdsZero) {
  const MosParams p = nmos_test_params();
  const double i_neg = mos_eval(p, 0.8, -1e-6, 0.0).id;
  const double i_zero = mos_eval(p, 0.8, 0.0, 0.0).id;
  const double i_pos = mos_eval(p, 0.8, 1e-6, 0.0).id;
  EXPECT_NEAR(i_zero, 0.0, 1e-9);
  EXPECT_LT(i_neg, 0.0);
  EXPECT_GT(i_pos, 0.0);
  EXPECT_NEAR(i_pos, -i_neg, 0.01 * std::fabs(i_pos) + 1e-12);
}

TEST(MosModel, ReverseConductionSymmetric) {
  const MosParams p = nmos_test_params();
  // With source and drain exchanged the current must mirror exactly:
  // Id(vg - vs, vd - vs) == -Id evaluated from the other terminal.
  const double vg = 1.0, vd = 0.3, vs = 0.9, vb = 0.0;
  const double i_fwd = mos_eval(p, vg - vs, vd - vs, vb - vs).id;
  const double i_rev = mos_eval(p, vg - vd, vs - vd, vb - vd).id;
  EXPECT_NEAR(i_fwd, -i_rev, 1e-12 + 0.01 * std::fabs(i_fwd));
}

TEST(MosModel, PmosMirrorsNmosBehaviour) {
  const MosParams p = pmos_test_params();
  // PMOS conducting: vgs, vds negative.
  const MosEval on = mos_eval(p, -1.2, -0.6, 0.0);
  EXPECT_LT(on.id, -1e-6);  // current flows source -> drain (negative Id)
  // PMOS off: vgs = 0.
  const MosEval off = mos_eval(p, 0.0, -1.2, 0.0);
  EXPECT_GT(off.id, -100e-9);
  EXPECT_LE(off.id, 0.0);
}

TEST(MosModel, BodyEffectRaisesThreshold) {
  const MosParams p = nmos_test_params();
  // Reverse body bias (vbs < 0) raises Vth and reduces current.
  const double i_nobody = mos_eval(p, 0.7, 0.8, 0.0).id;
  const double i_revbody = mos_eval(p, 0.7, 0.8, -0.6).id;
  EXPECT_LT(i_revbody, i_nobody);
}

TEST(MosModel, WidthScalesCurrentLinearly) {
  Technology tech;
  const MosParams p1 = tech.nmos(VtFlavor::kLowVt, 1e-6);
  const MosParams p2 = tech.nmos(VtFlavor::kLowVt, 2e-6);
  const double i1 = mos_eval(p1, 0.9, 0.9, 0.0).id;
  const double i2 = mos_eval(p2, 0.9, 0.9, 0.0).id;
  EXPECT_NEAR(i2 / i1, 2.0, 1e-9);
}

TEST(MosModel, CapacitanceEstimatesPositiveAndScaleWithW) {
  Technology tech;
  const MosParams p1 = tech.nmos(VtFlavor::kLowVt, 1e-6);
  const MosParams p2 = tech.nmos(VtFlavor::kLowVt, 2e-6);
  EXPECT_GT(p1.cgs(), 0.0);
  EXPECT_GT(p1.cgd(), 0.0);
  EXPECT_GT(p1.cdb(), 0.0);
  EXPECT_GT(p2.cgs(), p1.cgs());
  EXPECT_NEAR(p2.cgd() / p1.cgd(), 2.0, 1e-9);
}

TEST(MosModel, HighVtLeaksLessThanLowVt) {
  Technology tech;
  const MosParams lvt = tech.nmos(VtFlavor::kLowVt, 1e-6);
  const MosParams hvt = tech.nmos(VtFlavor::kHighVt, 1e-6);
  const double leak_lvt = mos_eval(lvt, 0.0, 1.2, 0.0).id;
  const double leak_hvt = mos_eval(hvt, 0.0, 1.2, 0.0).id;
  EXPECT_LT(leak_hvt, leak_lvt / 3.0);
}

}  // namespace
}  // namespace pgmcml::spice
