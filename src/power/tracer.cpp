#include "pgmcml/power/tracer.hpp"

#include <algorithm>

namespace pgmcml::power {

using cells::LogicStyle;
using netlist::InstId;
using netlist::SimEvent;
using util::GridAccumulator;

bool SleepSchedule::is_awake(double t) const {
  if (always_awake()) return true;
  for (const Window& w : awake) {
    if (t >= w.t_on && t < w.t_off) return true;
  }
  return false;
}

PowerTracer::PowerTracer(const netlist::Design& design,
                         const cells::CellLibrary& library,
                         const CurrentKernels& kernels,
                         const TraceOptions& options)
    : design_(design), library_(library), kernels_(kernels), options_(options) {
  util::Rng rng(options.seed ^ 0xc0ffee);
  const std::size_t n = design.num_instances();
  static_scale_.resize(n);
  charge_scale_.resize(n);
  residual_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    static_scale_[i] =
        std::max(0.5, rng.gaussian(1.0, options.mismatch_sigma));
    charge_scale_[i] =
        std::max(0.3, rng.gaussian(1.0, 3.0 * options.mismatch_sigma));
    residual_[i] = rng.gaussian(0.0, options.residual_sigma);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cell = library.cell(design.instance(static_cast<InstId>(i)).kind);
    awake_current_ += cell.static_current * static_scale_[i];
    sleep_current_ += cell.sleep_current * static_scale_[i];
    leakage_power_ += cell.leakage_power * static_scale_[i];
  }

  // Switched charge scales with the driven load: count each instance's
  // fanout (reader pins on its output nets) -- high-fanout nets carry
  // proportionally more capacitance.
  std::vector<std::size_t> fanout_count(design.num_nets(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& inst = design.instance(static_cast<InstId>(i));
    for (netlist::NetId in : inst.inputs) ++fanout_count[in];
    if (inst.clk != netlist::kNoNet) ++fanout_count[inst.clk];
    if (inst.ctrl != netlist::kNoNet) ++fanout_count[inst.ctrl];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& inst = design.instance(static_cast<InstId>(i));
    std::size_t readers = 0;
    for (netlist::NetId out : inst.outputs) readers += fanout_count[out];
    charge_scale_[i] *=
        0.4 + 0.6 * static_cast<double>(std::max<std::size_t>(readers, 1));
  }

  // Instances driving primary outputs additionally see the macro's pin/wire
  // load on top of their cell-internal charge.
  std::vector<bool> drives_output(n, false);
  const auto driver = design.driver_map();
  for (netlist::NetId out : design.outputs()) {
    if (driver[out] >= 0) drives_output[driver[out]] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (drives_output[i]) charge_scale_[i] *= options.output_load_factor;
  }
}

std::vector<double> PowerTracer::trace(const std::vector<SimEvent>& events,
                                       const SleepSchedule& schedule,
                                       std::uint64_t nonce) const {
  std::vector<double> out;
  trace_into(events, schedule, nonce, out);
  return out;
}

void PowerTracer::trace_into(const std::vector<SimEvent>& events,
                             const SleepSchedule& schedule,
                             std::uint64_t nonce,
                             std::vector<double>& out) const {
  compose_into(events, schedule, out);
  add_noise(schedule, noise_key(events), nonce, out);
}

void PowerTracer::compose_into(const std::vector<SimEvent>& events,
                               const SleepSchedule& schedule,
                               std::vector<double>& out) const {
  const double t0 = options_.t_start;
  const double t_end =
      t0 + options_.dt * static_cast<double>(options_.samples - 1);
  GridAccumulator acc(t0, options_.dt, options_.samples, std::move(out));
  const LogicStyle style = library_.style();

  // --- static floors ---------------------------------------------------------
  if (style == LogicStyle::kCmos) {
    acc.add_level(t0, t_end + options_.dt, leakage_power_ / library_.vdd());
  } else if (style == LogicStyle::kMcml || schedule.always_awake()) {
    acc.add_level(t0, t_end + options_.dt, awake_current_);
  } else {
    // PG-MCML with a sleep schedule: leakage floor everywhere, full current
    // inside awake windows, transition kernels at the boundaries.
    acc.add_level(t0, t_end + options_.dt, sleep_current_);
    for (const SleepSchedule::Window& w : schedule.awake) {
      const double wake_end = w.t_on + kernels_.pg_wake.t_end();
      acc.add_kernel(w.t_on, kernels_.pg_wake, awake_current_);
      if (wake_end < w.t_off) {
        acc.add_level(wake_end, w.t_off, awake_current_);
      }
      acc.add_kernel(w.t_off, kernels_.pg_sleep, awake_current_);
    }
  }

  // --- per-event contributions ----------------------------------------------
  for (const SimEvent& ev : events) {
    if (ev.driver < 0) continue;  // primary-input edges carry no supply load
    const auto& inst = design_.instance(ev.driver);
    const auto& cell = library_.cell(inst.kind);
    if (style == LogicStyle::kCmos) {
      // Only rising output transitions draw charge from the supply (falling
      // edges discharge the load into ground) -- this asymmetry is the
      // physical root of the CMOS Hamming-weight leak.
      if (!ev.value) continue;
      const double q =
          cell.switch_energy / library_.vdd() * charge_scale_[ev.driver];
      acc.add_kernel(ev.time, kernels_.cmos_toggle, q);
    } else {
      if (!schedule.is_awake(ev.time)) continue;  // gated cells are silent
      const double iss = cell.static_current * static_scale_[ev.driver];
      acc.add_kernel(ev.time, kernels_.mcml_switch, iss);
      // State-dependent residual: the two legs of a real differential cell
      // are never perfectly matched, so the static current depends slightly
      // on which leg conducts.  This is the (tiny, instance-random) data
      // dependence that remains in MCML.
      const double delta = iss * residual_[ev.driver];
      acc.add_level(ev.time, t_end + options_.dt, ev.value ? delta : -delta);
    }
  }

  out = acc.take();
}

std::uint64_t PowerTracer::noise_key(const std::vector<SimEvent>& events) {
  return events.size() +
         (events.empty()
              ? 0
              : static_cast<std::uint64_t>(events.back().time * 1e15));
}

void PowerTracer::add_noise(const SleepSchedule& schedule,
                            std::uint64_t noise_key, std::uint64_t nonce,
                            std::vector<double>& out) const {
  if (!(options_.include_noise &&
        (options_.noise_sigma > 0.0 || options_.supply_noise_ratio > 0.0))) {
    return;
  }
  // Fresh noise per trace, seeded from the event stream so repeated calls
  // with different data see independent noise.
  util::Rng noise(options_.seed * 0x9e3779b97f4a7c15ULL + noise_key +
                  nonce * 0xd1b54a32d192ed03ULL);
  const LogicStyle style = library_.style();
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Regulator/thermal noise grows with the static current flowing at
    // that instant: the floor of the style (and sleep state) at play.
    double floor_current = 0.0;
    if (style == LogicStyle::kCmos) {
      floor_current = leakage_power_ / library_.vdd();
    } else if (schedule.is_awake(options_.t_start +
                                 options_.dt * static_cast<double>(i))) {
      floor_current = awake_current_;
    } else {
      floor_current = sleep_current_;
    }
    const double sigma =
        options_.noise_sigma + options_.supply_noise_ratio * floor_current;
    out[i] += noise.gaussian(0.0, sigma);
  }
}

namespace {

/// Systematic state dependence of the quiescent current, relative to each
/// instance's static floor.  Both are DIE-WIDE constants, not per-instance
/// draws: a per-instance random sign would average the block-level signal
/// toward zero, while the physical effects they model are shared -- CMOS
/// NMOS-vs-PMOS subthreshold leakage asymmetry tracks the global process
/// corner, and MCML leg imbalance has a common layout-orientation component
/// on top of the per-instance residual_.  Magnitudes are calibrated against
/// the transistor-level state-leakage measurement
/// (measure_state_leakage in tests/support), which shows the same ordering.
constexpr double kCmosStateLeakAsym = 0.35;
constexpr double kMcmlSystematicImbalance = 0.006;

}  // namespace

double PowerTracer::quiescent_current(const netlist::LogicSim& sim,
                                      bool awake) const {
  const LogicStyle style = library_.style();
  if (!awake && library_.power_gated()) {
    // Gated off: the sleep devices cut the pairs from the rails, leaving a
    // state-independent leakage floor.  This is the quantitative form of
    // the paper's power-gating argument -- nothing here depends on sim.
    return sleep_current_;
  }
  double current = 0.0;
  const std::size_t n = design_.num_instances();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& inst = design_.instance(static_cast<InstId>(i));
    const auto& cell = library_.cell(inst.kind);
    const bool state = !inst.outputs.empty() && sim.value(inst.outputs[0]);
    const double sign = state ? 1.0 : -1.0;
    if (style == LogicStyle::kCmos) {
      const double base =
          cell.leakage_power / library_.vdd() * static_scale_[i];
      current += base * (1.0 + kCmosStateLeakAsym * sign);
    } else {
      const double iss = cell.static_current * static_scale_[i];
      current += iss * (1.0 + (residual_[i] + kMcmlSystematicImbalance) * sign);
    }
  }
  return current;
}

double PowerTracer::switched_charge(
    const std::vector<netlist::SimEvent>& events) const {
  if (library_.style() != cells::LogicStyle::kCmos) return 0.0;
  double q = 0.0;
  for (const netlist::SimEvent& ev : events) {
    if (ev.driver < 0 || !ev.value) continue;
    q += library_.cell(design_.instance(ev.driver).kind).switch_energy /
         library_.vdd() * charge_scale_[ev.driver];
  }
  return q;
}

}  // namespace pgmcml::power
