#include "pgmcml/mcml/bias.hpp"

#include <cmath>

#include "pgmcml/mcml/builder.hpp"
#include "pgmcml/spice/engine.hpp"

namespace pgmcml::mcml {

using spice::Circuit;
using spice::DcResult;
using spice::NodeId;
using spice::SourceSpec;

double replica_tail_current(const McmlDesign& design, double vn,
                            double v_common, spice::NewtonWorkspace& ws) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId cs = c.node("cs");
  const NodeId vnn = c.node("vn");
  c.add_vsource("VDD", vdd, c.gnd(), SourceSpec::dc(design.tech.vdd()));
  c.add_vsource("VN", vnn, c.gnd(), SourceSpec::dc(vn));
  // Clamp the common node and read the current through the clamp.
  c.add_vsource("VCLAMP", cs, c.gnd(), SourceSpec::dc(v_common));

  const auto tail =
      design.tech.nmos(design.network_vt, design.eff_w_tail(), design.l_tail);
  if (design.gating == GatingTopology::kBodyBias) {
    // (c): the tail gate sees the digital ON level; Vn drives the bulk and
    // trims the current through the body effect.  The device is sized long
    // and narrow so the full-swing gate leaves the current near Iss.
    const auto t2 = design.tech.nmos(design.network_vt, 0.60e-6 * design.drive,
                                     1.0e-6);
    c.add_mosfet("MT", cs, vdd, c.gnd(), vnn, t2);
  } else if (design.gating == GatingTopology::kSeriesSleep) {
    const NodeId mid = c.node("mid");
    const auto sleep =
        design.tech.nmos(design.network_vt, design.w_sleep() * design.drive);
    c.add_mosfet("MS", cs, vdd, mid, c.gnd(), sleep);  // awake: gate high
    c.add_mosfet("MT", mid, vnn, c.gnd(), c.gnd(), tail);
  } else {
    c.add_mosfet("MT", cs, vnn, c.gnd(), c.gnd(), tail);
  }
  const DcResult dc = dc_operating_point(c, {}, ws);
  if (!dc.converged) return 0.0;
  spice::Solution sol(dc.x, c.num_nodes());
  // The clamp delivers the tail current, so its MNA branch probes negative;
  // negate to report the conventional (positive) tail current.
  const auto id = c.find_device("VCLAMP");
  return -c.device(id).probe_current(sol);
}

double replica_buffer_swing(const McmlDesign& design, double vn, double vp,
                            spice::NewtonWorkspace& ws) {
  Circuit c;
  McmlDesign d = design;
  d.vn = vn;
  d.vp = vp;
  McmlRails rails;
  rails.vdd = c.node("vdd");
  rails.vp = c.node("vp");
  rails.vn = c.node("vn");
  rails.sleep_on = c.node("slp");
  rails.sleep_off = c.node("slpb");
  const double vdd = design.tech.vdd();
  c.add_vsource("VDD", rails.vdd, c.gnd(), SourceSpec::dc(vdd));
  c.add_vsource("VP", rails.vp, c.gnd(), SourceSpec::dc(vp));
  c.add_vsource("VN", rails.vn, c.gnd(), SourceSpec::dc(vn));
  c.add_vsource("VSLP", rails.sleep_on, c.gnd(), SourceSpec::dc(vdd));
  c.add_vsource("VSLPB", rails.sleep_off, c.gnd(), SourceSpec::dc(0.0));

  McmlCellBuilder b(c, d, rails, "x.");
  DiffNet in = b.make_diff("in");
  c.add_vsource("VINP", in.p, c.gnd(), SourceSpec::dc(d.v_high()));
  c.add_vsource("VINN", in.n, c.gnd(), SourceSpec::dc(d.v_low()));
  const DiffNet out = b.buffer_stage(in);
  const DcResult dc = dc_operating_point(c, {}, ws);
  if (!dc.converged) return 0.0;
  return dc.v(c, out.p) - dc.v(c, out.n);
}

BiasResult solve_bias(McmlDesign& design) {
  BiasResult result;
  // One workspace per replica topology: every evaluation inside a bisection
  // solves the same structure, so the symbolic analysis runs exactly once
  // per bisection and every later solve is a numeric refactorization.
  spice::NewtonWorkspace tail_ws;
  spice::NewtonWorkspace swing_ws;

  // --- Vn by bisection on the replica tail current -------------------------
  // For the body-bias topology Vn is a bulk voltage spanning forward and
  // reverse body bias (the -500 mV..1 V range the paper calls impractical).
  const double target = design.eff_iss();
  const bool body = design.gating == GatingTopology::kBodyBias;
  double lo = body ? -0.5 : 0.05;
  double hi = body ? 1.0 : design.tech.vdd();
  if (replica_tail_current(design, hi, 0.3, tail_ws) < target) {
    result.error = "tail cannot deliver the requested Iss even at Vn = Vdd";
    return result;
  }
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double id = replica_tail_current(design, mid, 0.3, tail_ws);
    if (id < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double vn = 0.5 * (lo + hi);
  result.achieved_iss = replica_tail_current(design, vn, 0.3, tail_ws);

  // --- Vp by bracketed bisection on the buffer swing ------------------------
  // Raising Vp weakens the PMOS load (higher R) and increases the swing --
  // up to the point where the load is so weak that the tail pulls the common
  // node down, both pair devices conduct, and the differential collapses.
  // Scan coarsely for the first crossing of the target, then bisect inside
  // that bracket where the curve is monotonic.
  double vp_lo = 0.0;
  double vp_hi = -1.0;
  double prev_vp = 0.0;
  double prev_swing = replica_buffer_swing(design, vn, 0.0, swing_ws);
  for (double vp = 0.05; vp <= design.tech.vdd() - 0.1; vp += 0.05) {
    const double sw = replica_buffer_swing(design, vn, vp, swing_ws);
    if (prev_swing < design.vsw && sw >= design.vsw) {
      vp_lo = prev_vp;
      vp_hi = vp;
      break;
    }
    prev_vp = vp;
    prev_swing = sw;
  }
  if (vp_hi < 0.0) {
    result.error = "load cannot produce the requested swing";
    result.vn = vn;
    return result;
  }
  for (int i = 0; i < 50; ++i) {
    const double mid = 0.5 * (vp_lo + vp_hi);
    const double sw = replica_buffer_swing(design, vn, mid, swing_ws);
    if (sw < design.vsw) {
      vp_lo = mid;
    } else {
      vp_hi = mid;
    }
  }
  const double vp = 0.5 * (vp_lo + vp_hi);
  result.achieved_vsw = replica_buffer_swing(design, vn, vp, swing_ws);

  result.vn = vn;
  result.vp = vp;
  result.ok = std::fabs(result.achieved_iss - target) < 0.05 * target &&
              std::fabs(result.achieved_vsw - design.vsw) < 0.05 * design.vsw;
  if (!result.ok && result.error.empty()) {
    result.error = "bias bisection did not reach the 5% tolerance";
  }
  design.vn = vn;
  design.vp = vp;
  return result;
}

}  // namespace pgmcml::mcml
