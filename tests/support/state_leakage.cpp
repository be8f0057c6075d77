#include "support/state_leakage.hpp"

#include <algorithm>
#include <optional>

#include "pgmcml/util/rng.hpp"

namespace pgmcml::mcml {

namespace {

/// DC supply current of a state-held testbench; nullopt when the operating
/// point does not converge (recorded as a skip on `diag`).  A nonzero
/// mismatch_seed re-draws the SAME process variation before every build, so
/// each held state measures one frozen die instance (the montecarlo idiom:
/// identical re-seeding makes every construction see identical draws).
std::optional<double> held_state_current(CellKind kind, const McmlDesign& d,
                                         int state, bool asleep,
                                         std::uint64_t mismatch_seed,
                                         spice::FlowDiagnostics& diag) {
  TestbenchOptions opt;
  opt.hold_state = state;
  opt.asleep = asleep;
  McmlDesign held = d;
  util::Rng draw(mismatch_seed);
  if (mismatch_seed != 0) held.mismatch_rng = &draw;
  McmlTestbench bench(kind, held, opt);
  diag.record_attempt();
  const spice::DcResult dc = bench.run_dc();
  diag.engine.merge(dc.stats);
  if (!dc.converged) {
    diag.record_skip("state:" + std::to_string(state),
                     asleep ? "asleep DC solve diverged"
                            : "awake DC solve diverged");
    return std::nullopt;
  }
  spice::Solution sol(dc.x, bench.circuit().num_nodes());
  const auto id = bench.circuit().find_device("VDD");
  return -bench.circuit().device(id).probe_current(sol);
}

}  // namespace

StateLeakageResult measure_state_leakage(CellKind kind,
                                         const McmlDesign& design,
                                         std::uint64_t mismatch_seed) {
  StateLeakageResult out;
  out.kind = kind;
  const CellInfo& info = cell_info(kind);
  const int states = 1 << info.num_inputs;
  double awake_lo = 0.0, awake_hi = 0.0;
  double asleep_lo = 0.0, asleep_hi = 0.0;
  bool any = false;
  for (int s = 0; s < states; ++s) {
    StateLeakagePoint pt;
    pt.state = s;
    const std::optional<double> awake = held_state_current(
        kind, design, s, /*asleep=*/false, mismatch_seed, out.diagnostics);
    if (!awake.has_value()) {
      pt.error = "awake DC solve diverged";
      out.points.push_back(std::move(pt));
      continue;
    }
    pt.awake_current = *awake;
    if (design.power_gated()) {
      const std::optional<double> asleep = held_state_current(
          kind, design, s, /*asleep=*/true, mismatch_seed, out.diagnostics);
      if (!asleep.has_value()) {
        pt.error = "asleep DC solve diverged";
        out.points.push_back(std::move(pt));
        continue;
      }
      pt.asleep_current = *asleep;
    } else {
      pt.asleep_current = pt.awake_current;
    }
    pt.ok = true;
    if (!any) {
      awake_lo = awake_hi = pt.awake_current;
      asleep_lo = asleep_hi = pt.asleep_current;
      any = true;
    } else {
      awake_lo = std::min(awake_lo, pt.awake_current);
      awake_hi = std::max(awake_hi, pt.awake_current);
      asleep_lo = std::min(asleep_lo, pt.asleep_current);
      asleep_hi = std::max(asleep_hi, pt.asleep_current);
    }
    out.points.push_back(std::move(pt));
  }
  if (any) {
    out.awake_spread = awake_hi - awake_lo;
    out.asleep_spread = asleep_hi - asleep_lo;
  }
  return out;
}

}  // namespace pgmcml::mcml
