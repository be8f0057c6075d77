#include "pgmcml/spice/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "pgmcml/util/units.hpp"

namespace pgmcml::spice {
namespace {

/// Softplus F(v) = s ln(1 + e^{v/s}) and its derivative, overflow-safe.
struct Softplus {
  double f;
  double df;  // logistic
};

Softplus softplus(double v, double s) {
  const double z = v / s;
  if (z > 40.0) return {v, 1.0};
  if (z < -40.0) {
    const double e = std::exp(z);
    return {s * e, e};
  }
  const double e = std::exp(z);
  return {s * std::log1p(e), e / (1.0 + e)};
}

struct FwdEval {
  double id, gm, gds, gmb;
};

/// Forward-region evaluation (vds >= 0) of the NMOS-equivalent model.
FwdEval eval_forward(const MosParams& p, double vgs, double vds, double vbs) {
  // Body effect on threshold (clamped for forward body bias).
  const double phi_eff = std::max(p.phi - vbs, 0.02);
  const double sqrt_phi_eff = std::sqrt(phi_eff);
  const double vth = p.vth0 + p.gamma * (sqrt_phi_eff - std::sqrt(p.phi));
  // dVth/dVbs = -gamma / (2 sqrt(phi - vbs)) when unclamped.
  const double dvth_dvbs =
      (p.phi - vbs > 0.02) ? -p.gamma / (2.0 * sqrt_phi_eff) : 0.0;

  const double s = 2.0 * p.n_sub * util::kThermalVoltage300K;
  const double k = 0.5 * p.kp * p.w / p.l;
  const double vgt = vgs - vth;

  const Softplus fs = softplus(vgt, s);         // source-side charge
  const Softplus fd = softplus(vgt - vds, s);   // drain-side charge
  const double clm = 1.0 + p.lambda * vds;

  const double core = fs.f * fs.f - fd.f * fd.f;
  const double id = k * core * clm;

  // Partials of the core expression.
  const double dcore_dvgt = 2.0 * (fs.f * fs.df - fd.f * fd.df);
  const double dcore_dvds = 2.0 * fd.f * fd.df;

  const double gm = k * dcore_dvgt * clm;
  const double gds = k * (dcore_dvds * clm + core * p.lambda);
  // Vth moves with Vbs; Id depends on vgt = vgs - vth(vbs).
  const double gmb = k * dcore_dvgt * clm * (-dvth_dvbs);
  return {id, gm, gds, gmb};
}

}  // namespace

MosEval mos_eval(const MosParams& p, double vgs, double vds, double vbs) {
  // Map PMOS onto the NMOS-equivalent model by negating terminal voltages.
  const double sign = p.is_nmos ? 1.0 : -1.0;
  double e_vgs = sign * vgs;
  double e_vds = sign * vds;
  double e_vbs = sign * vbs;

  MosEval out;
  if (e_vds >= 0.0) {
    const FwdEval f = eval_forward(p, e_vgs, e_vds, e_vbs);
    out.id = sign * f.id;
    out.gm = f.gm;
    out.gds = f.gds;
    out.gmb = f.gmb;
  } else {
    // Source/drain exchange: Id(vgs,vds,vbs) = -Id_f(vgs-vds, -vds, vbs-vds).
    const FwdEval f = eval_forward(p, e_vgs - e_vds, -e_vds, e_vbs - e_vds);
    out.id = -sign * f.id;
    out.gm = -f.gm;                  // raising the gate deepens reverse flow
    out.gds = f.gm + f.gds + f.gmb;  // chain rule through all three arguments
    out.gmb = -f.gmb;
  }
  return out;
}

}  // namespace pgmcml::spice
