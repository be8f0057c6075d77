#include "support/lint.hpp"

namespace pgmcml::netlist {

std::vector<LintIssue> lint(const Design& design) {
  std::vector<LintIssue> issues;
  const std::vector<InstId> driver = design.driver_map();
  std::vector<bool> is_input(design.num_nets(), false);
  for (NetId n : design.inputs()) is_input[n] = true;
  std::vector<bool> is_read(design.num_nets(), false);
  for (NetId n : design.outputs()) is_read[n] = true;

  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(static_cast<InstId>(i));
    auto check_in = [&](NetId n) {
      if (n == kNoNet) return;
      is_read[n] = true;
      if (driver[n] < 0 && !is_input[n]) {
        issues.push_back(LintIssue{LintIssue::Kind::kUndrivenInput, n,
                                   static_cast<InstId>(i)});
      }
    };
    for (NetId n : inst.inputs) check_in(n);
    check_in(inst.clk);
    check_in(inst.ctrl);
  }
  for (NetId n = 0; n < static_cast<NetId>(design.num_nets()); ++n) {
    if (driver[n] >= 0 && !is_read[n]) {
      issues.push_back(LintIssue{LintIssue::Kind::kDanglingNet, n, driver[n]});
    }
  }
  for (NetId n : design.outputs()) {
    if (driver[n] < 0 && !is_input[n]) {
      issues.push_back(LintIssue{LintIssue::Kind::kUndrivenOutput, n, -1});
    }
  }
  return issues;
}

}  // namespace pgmcml::netlist
