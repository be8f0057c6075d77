// Transistor-level state-leakage measurement, kept beside the tests as the
// reference for the static-power side channel; no program runs it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pgmcml/mcml/characterize.hpp"

namespace pgmcml::mcml {

/// Quiescent supply current of one held input state (the transistor-level
/// ground truth behind the static-power side channel).
struct StateLeakagePoint {
  int state = 0;  ///< input bitmask the cell was held in
  bool ok = false;
  std::string error;
  double awake_current = 0.0;   ///< DC supply current, cell powered [A]
  double asleep_current = 0.0;  ///< DC supply current, cell gated off [A]
};

struct StateLeakageResult {
  CellKind kind = CellKind::kBuf;
  std::vector<StateLeakagePoint> points;  ///< one per input state, ascending
  /// max - min awake current over the converged states: the state signal a
  /// static-power attack integrates.  Zero when nothing converged.
  double awake_spread = 0.0;
  /// Same for the gated-off state (non-gated designs repeat awake_current
  /// here).  The paper's power-gating argument, measured: this collapses
  /// toward zero for a gated cell.
  double asleep_spread = 0.0;
  spice::FlowDiagnostics diagnostics;
};

/// Holds the cell in every input state (2^num_inputs DC solves, awake and --
/// when the design gates -- asleep) and measures the VDD current of each.
/// This is the transistor-level reference the block-level quiescent model
/// (power::PowerTracer::quiescent_current) is calibrated against: awake
/// leakage is state-dependent, gated-off leakage is not.  Sequential cells
/// are measured with the clock held high.
///
/// `mismatch_seed` = 0 measures the ideal (perfectly matched) cell, whose
/// legs are symmetric by construction -- the awake spread is then zero.
/// A nonzero seed freezes ONE process-variation draw and re-applies it to
/// every solve, i.e. one die instance measured across its states: this is
/// where the state dependence (and the static-power side channel) comes
/// from, exactly as in the block-level model's residual_ term.
StateLeakageResult measure_state_leakage(CellKind kind,
                                         const McmlDesign& design,
                                         std::uint64_t mismatch_seed = 0);

}  // namespace pgmcml::mcml
