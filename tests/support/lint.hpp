// Structural lint of a mapped netlist: undriven instance inputs, dangling
// (unread) internal nets, and outputs without a driver.  The lint tests
// hold every synthesized design to it; no program runs it.
#pragma once

#include <vector>

#include "pgmcml/netlist/design.hpp"

namespace pgmcml::netlist {

struct LintIssue {
  enum class Kind { kUndrivenInput, kDanglingNet, kUndrivenOutput };
  Kind kind;
  NetId net = kNoNet;
  InstId instance = -1;
};

/// Clean synthesized designs report no issues; hand-built test designs may
/// legitimately have some.
std::vector<LintIssue> lint(const Design& design);

}  // namespace pgmcml::netlist
