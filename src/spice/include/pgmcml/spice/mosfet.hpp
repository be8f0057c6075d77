// Compact MOSFET model.
//
// A smooth single-expression long-channel model: the square law expressed
// through a softplus "effective overdrive" so that strong inversion, triode,
// saturation and the subthreshold exponential are all covered by one C-inf
// expression.  That smoothness is what makes Newton-Raphson on stacked
// differential pairs (the MCML workhorse topology) converge reliably.
//
//   F(v)  = s * ln(1 + exp(v / s)),        s = n * 2 VT   (softplus)
//   Id0   = K * (F(Vgt)^2 - F(Vgt - Vds)^2),  K = kp/2 * W/L
//   Id    = Id0 * (1 + lambda * Vds)
//   Vth   = vth0 + gamma * (sqrt(phi - Vbs) - sqrt(phi))   (body effect)
//
// Vds < 0 is handled by source/drain exchange (the model is symmetric);
// PMOS devices are evaluated as NMOS on negated terminal voltages.
#pragma once

#include <string>

namespace pgmcml::spice {

/// Device-model parameters.  For PMOS, vth0/gamma/phi are given as positive
/// numbers in the "NMOS-equivalent" convention; `is_nmos` flips polarity.
struct MosParams {
  bool is_nmos = true;
  double w = 1e-6;       ///< channel width [m]
  double l = 1e-7;       ///< channel length [m]
  double vth0 = 0.3;     ///< zero-bias threshold [V], magnitude
  double kp = 300e-6;    ///< transconductance parameter mu*Cox [A/V^2]
  double lambda = 0.15;  ///< channel-length modulation [1/V]
  double n_sub = 1.5;    ///< subthreshold slope factor
  double gamma = 0.3;    ///< body-effect coefficient [sqrt(V)]
  double phi = 0.8;      ///< surface potential [V]
  double cox_area = 0.015;   ///< gate-oxide cap per area [F/m^2]
  double cov_width = 3e-10;  ///< overlap cap per width [F/m]
  double cj_width = 8e-10;   ///< junction cap per width [F/m]

  /// Gate-source capacitance estimate (2/3 channel + overlap) [F].
  double cgs() const { return (2.0 / 3.0) * cox_area * w * l + cov_width * w; }
  /// Gate-drain capacitance estimate (overlap) [F].
  double cgd() const { return cov_width * w; }
  /// Drain-bulk junction capacitance estimate [F].
  double cdb() const { return cj_width * w; }
};

/// Small-signal linearization of the drain current at a bias point.
struct MosEval {
  double id = 0.0;   ///< drain current, positive from drain to source [A]
  double gm = 0.0;   ///< dId/dVgs [S]
  double gds = 0.0;  ///< dId/dVds [S]
  double gmb = 0.0;  ///< dId/dVbs [S]
};

/// Evaluates drain current and partial derivatives at the given terminal
/// voltages (all referenced to the source: Vgs, Vds, Vbs, in volts as seen
/// by the physical device, i.e. typically negative for PMOS).
MosEval mos_eval(const MosParams& p, double vgs, double vds, double vbs);

}  // namespace pgmcml::spice
