// An ideal independent current source, kept beside the tests: the SPICE
// tests drive reference circuits (current mirrors, differential pairs,
// probing) with it, while the library's cells bias their tails with
// transistors.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pgmcml/spice/circuit.hpp"

namespace pgmcml::spice {

class CurrentSource final : public Device {
 public:
  /// Current flows from `pos` through the source to `neg` (SPICE convention:
  /// a positive value pulls current out of `pos`).
  CurrentSource(std::string name, NodeId pos, NodeId neg, SourceSpec spec)
      : Device(std::move(name)), pos_(pos), neg_(neg), spec_(std::move(spec)) {}

  void stamp(StampContext& ctx) override {
    ctx.current(pos_, neg_, ctx.source_scale * spec_.value(ctx.t));
  }
  /// RHS-only device: no Jacobian entries.
  void stamp_pattern(StampPatternBuilder& /*pat*/) const override {}
  double probe_current(const Solution& /*x*/, double t) const override {
    return spec_.value(t);
  }
  std::vector<NodeId> terminals() const override { return {pos_, neg_}; }

 private:
  NodeId pos_, neg_;
  SourceSpec spec_;
};

/// Appends a current source to `c` before its first analysis.  The source
/// is reachable by the returned id only (Circuit::find_device does not
/// index it).
inline DeviceId add_isource(Circuit& c, std::string name, NodeId pos,
                            NodeId neg, SourceSpec spec) {
  c.devices().push_back(std::make_unique<CurrentSource>(
      std::move(name), pos, neg, std::move(spec)));
  return static_cast<DeviceId>(c.devices().size() - 1);
}

}  // namespace pgmcml::spice
