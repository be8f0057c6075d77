#include "pgmcml/spice/source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pgmcml::spice {

namespace {
/// NaN passes every range comparison unnoticed and would quietly poison the
/// MNA right-hand side, so source parameters are checked for finiteness at
/// construction time where the error message can still name the field.
void require_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(std::string("SourceSpec: ") + what +
                                " must be finite");
  }
}
}  // namespace

SourceSpec SourceSpec::dc(double value) {
  require_finite(value, "dc value");
  SourceSpec s;
  s.kind_ = Kind::kDc;
  s.v0_ = value;
  return s;
}

SourceSpec SourceSpec::pulse(double v0, double v1, double delay, double t_rise,
                             double t_fall, double width, double period) {
  require_finite(v0, "pulse v0");
  require_finite(v1, "pulse v1");
  require_finite(delay, "pulse delay");
  require_finite(t_rise, "pulse t_rise");
  require_finite(t_fall, "pulse t_fall");
  require_finite(width, "pulse width");
  require_finite(period, "pulse period");
  if (delay < 0.0 || t_rise < 0.0 || t_fall < 0.0 || width < 0.0) {
    throw std::invalid_argument(
        "SourceSpec: pulse timing parameters must be non-negative");
  }
  SourceSpec s;
  s.kind_ = Kind::kPulse;
  s.v0_ = v0;
  s.v1_ = v1;
  s.delay_ = delay;
  s.t_rise_ = std::max(t_rise, 1e-15);
  s.t_fall_ = std::max(t_fall, 1e-15);
  s.width_ = width;
  s.period_ = period;
  return s;
}

double SourceSpec::value(double t) const {
  switch (kind_) {
    case Kind::kDc:
      return v0_;
    case Kind::kPulse: {
      if (t < delay_) return v0_;
      double local = t - delay_;
      if (period_ > 0.0) local = std::fmod(local, period_);
      if (local < t_rise_) {
        return v0_ + (v1_ - v0_) * local / t_rise_;
      }
      if (local < t_rise_ + width_) return v1_;
      if (local < t_rise_ + width_ + t_fall_) {
        return v1_ + (v0_ - v1_) * (local - t_rise_ - width_) / t_fall_;
      }
      return v0_;
    }
  }
  return 0.0;
}

std::vector<double> SourceSpec::breakpoints(double t_stop) const {
  std::vector<double> out;
  switch (kind_) {
    case Kind::kDc:
      break;
    case Kind::kPulse: {
      const double cycle_corners[4] = {0.0, t_rise_, t_rise_ + width_,
                                       t_rise_ + width_ + t_fall_};
      const double period =
          period_ > 0.0 ? period_ : (t_stop + 1.0);  // single shot
      for (double base = delay_; base < t_stop; base += period) {
        for (double corner : cycle_corners) {
          const double t = base + corner;
          if (t > 0.0 && t < t_stop) out.push_back(t);
        }
        if (period_ <= 0.0) break;
      }
      break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pgmcml::spice
