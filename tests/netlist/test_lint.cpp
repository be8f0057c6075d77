#include <gtest/gtest.h>

#include "pgmcml/core/aes_core.hpp"
#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/netlist/design.hpp"
#include "support/lint.hpp"

namespace pgmcml::netlist {
namespace {

using mcml::CellKind;

TEST(Lint, CleanDesignHasNoIssues) {
  Design d("clean");
  const NetId a = d.add_net("a");
  const NetId o = d.add_net("o");
  d.mark_input(a, "a");
  d.add_instance({"u", CellKind::kBuf, {a}, kNoNet, kNoNet, {o}});
  d.mark_output(o, "o");
  EXPECT_TRUE(lint(d).empty());
}

TEST(Lint, UndrivenInputFlagged) {
  Design d("floating");
  const NetId a = d.add_net("a");       // never marked as input, no driver
  const NetId o = d.add_net("o");
  d.add_instance({"u", CellKind::kBuf, {a}, kNoNet, kNoNet, {o}});
  d.mark_output(o, "o");
  const auto issues = lint(d);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, LintIssue::Kind::kUndrivenInput);
  EXPECT_EQ(issues[0].net, a);
  EXPECT_EQ(issues[0].instance, 0);
}

TEST(Lint, DanglingNetFlagged) {
  Design d("dangling");
  const NetId a = d.add_net("a");
  const NetId o = d.add_net("o");  // driven but nobody reads it
  d.mark_input(a, "a");
  d.add_instance({"u", CellKind::kBuf, {a}, kNoNet, kNoNet, {o}});
  const auto issues = lint(d);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, LintIssue::Kind::kDanglingNet);
  EXPECT_EQ(issues[0].net, o);
}

TEST(Lint, UndrivenOutputFlagged) {
  Design d("noout");
  const NetId o = d.add_net("o");
  d.mark_output(o, "o");
  const auto issues = lint(d);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, LintIssue::Kind::kUndrivenOutput);
}

TEST(Lint, SynthesizedDesignsAreClean) {
  // Everything the mapper produces must pass lint in every style.
  for (const cells::CellLibrary& lib :
       {cells::CellLibrary::cmos90(), cells::CellLibrary::mcml90(),
        cells::CellLibrary::pgmcml90()}) {
    EXPECT_TRUE(lint(core::map_reduced_aes(lib).design).empty()) << lib.name();
    EXPECT_TRUE(lint(core::map_sbox_ise(lib).design).empty()) << lib.name();
  }
  EXPECT_TRUE(
      lint(core::map_aes_core(cells::CellLibrary::pgmcml90()).design).empty());
}

}  // namespace
}  // namespace pgmcml::netlist
