// Time-dependent source descriptions for independent V/I sources.
//
// Mirrors the SPICE source primitives we need: DC and PULSE.  Sources
// also expose their corner times as breakpoints so the transient engine can
// land a timestep exactly on every edge.
#pragma once

#include <vector>

namespace pgmcml::spice {

class SourceSpec {
 public:
  /// Constant value.
  static SourceSpec dc(double value);

  /// SPICE-style PULSE(v0 v1 delay t_rise t_fall width period).
  /// A non-positive period yields a single pulse.
  static SourceSpec pulse(double v0, double v1, double delay, double t_rise,
                          double t_fall, double width, double period = 0.0);

  /// Default: a 0 V / 0 A DC source.
  SourceSpec() = default;

  /// Value at time t (DC analyses use t = 0).
  double value(double t) const;

  /// All waveform corner times in (0, t_stop), sorted ascending.
  std::vector<double> breakpoints(double t_stop) const;

  /// True for pure DC sources.
  bool is_dc() const { return kind_ == Kind::kDc; }

 private:
  enum class Kind { kDc, kPulse };

  Kind kind_ = Kind::kDc;
  // DC / PULSE parameters.
  double v0_ = 0.0;
  double v1_ = 0.0;
  double delay_ = 0.0;
  double t_rise_ = 0.0;
  double t_fall_ = 0.0;
  double width_ = 0.0;
  double period_ = 0.0;
};

}  // namespace pgmcml::spice
