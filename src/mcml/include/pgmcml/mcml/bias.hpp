// Bias-point solver: finds the tail gate voltage Vn that yields the target
// Iss and the load gate voltage Vp that yields the target swing, using DC
// analyses of replica circuits (exactly how an analog designer would trim
// the cell with a simulator in the loop).
#pragma once

#include <string>

#include "pgmcml/mcml/design.hpp"
#include "pgmcml/spice/engine.hpp"

namespace pgmcml::mcml {

struct BiasResult {
  bool ok = false;
  std::string error;
  double vn = 0.0;            ///< solved tail bias [V]
  double vp = 0.0;            ///< solved load bias [V]
  double achieved_iss = 0.0;  ///< replica tail current at the solution [A]
  double achieved_vsw = 0.0;  ///< buffer output swing at the solution [V]
};

/// Solves both bias voltages and writes them into `design`.
/// The replica accounts for the sleep transistor when the design is gated
/// (the PG cell needs a slightly higher Vn -- Section 5's observation that
/// "the minimal supply voltage and the current source are slightly
/// increased").
BiasResult solve_bias(McmlDesign& design);

/// Tail current of the (possibly gated) tail stack at a given Vn, with the
/// common node clamped to `v_common` (solve_bias uses 0.3 V).
///
/// Each bisection in solve_bias evaluates the same replica topology dozens
/// of times; sharing the workspace `ws` lets every evaluation after the
/// first skip the symbolic analysis and reuse the solver's buffers (the
/// replica circuit itself is still rebuilt, but the expensive part of the
/// solve is structure-keyed, not circuit-keyed).
double replica_tail_current(const McmlDesign& design, double vn,
                            double v_common, spice::NewtonWorkspace& ws);

/// Output swing of a DC-driven buffer at a given (vn, vp), reusing `ws`
/// like replica_tail_current.
double replica_buffer_swing(const McmlDesign& design, double vn, double vp,
                            spice::NewtonWorkspace& ws);

}  // namespace pgmcml::mcml
