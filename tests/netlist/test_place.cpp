#include "pgmcml/netlist/place.hpp"

#include <gtest/gtest.h>

#include "pgmcml/core/sbox_unit.hpp"
#include "pgmcml/synth/map.hpp"

namespace pgmcml::netlist {
namespace {

using cells::CellLibrary;
using mcml::CellKind;

Design chain(int n) {
  Design d("chain");
  NetId prev = d.add_net("in");
  d.mark_input(prev, "in");
  for (int i = 0; i < n; ++i) {
    const NetId next = d.add_net("w");
    const std::string k = std::to_string(i);
    d.add_instance({"u" + k, CellKind::kBuf, {prev}, kNoNet, kNoNet, {next}});
    prev = next;
  }
  d.mark_output(prev, "out");
  return d;
}

TEST(Place, EmptyDesignYieldsEmptyResult) {
  Design d("empty");
  const auto r = place_and_route(d, CellLibrary::pgmcml90());
  EXPECT_TRUE(r.sites.empty());
  EXPECT_DOUBLE_EQ(r.cell_area, 0.0);
}

TEST(Place, EveryInstanceGetsALegalSite) {
  const Design d = chain(50);
  const auto lib = CellLibrary::pgmcml90();
  const auto r = place_and_route(d, lib);
  ASSERT_EQ(r.sites.size(), 50u);
  for (const CellSite& s : r.sites) {
    EXPECT_GE(s.instance, 0);
    EXPECT_GE(s.x, 0.0);
    EXPECT_LE(s.x + s.width, r.die_width + 1e-12);
    EXPECT_GE(s.row, 0);
    EXPECT_LT(static_cast<std::size_t>(s.row), r.rows);
  }
}

TEST(Place, UtilizationNearTarget) {
  const Design d = chain(200);
  PlacementOptions opt;
  opt.target_utilization = 0.75;
  const auto r = place_and_route(d, CellLibrary::pgmcml90(), opt);
  EXPECT_NEAR(r.utilization, 0.75, 0.02);
  EXPECT_NEAR(r.die_area, r.die_width * r.die_height, 1e-15);
}

TEST(Place, NoOverlapsWithinARow) {
  const Design d = chain(120);
  const auto r = place_and_route(d, CellLibrary::pgmcml90());
  for (std::size_t a = 0; a < r.sites.size(); ++a) {
    for (std::size_t b = a + 1; b < r.sites.size(); ++b) {
      if (r.sites[a].row != r.sites[b].row) continue;
      const bool disjoint =
          r.sites[a].x + r.sites[a].width <= r.sites[b].x + 1e-12 ||
          r.sites[b].x + r.sites[b].width <= r.sites[a].x + 1e-12;
      EXPECT_TRUE(disjoint) << a << " vs " << b;
    }
  }
}

TEST(Place, FatWiresDoubleTheLoad) {
  const Design d = chain(100);
  PlacementOptions fat;
  fat.fat_wires = true;
  PlacementOptions single;
  single.fat_wires = false;
  const auto rf = place_and_route(d, CellLibrary::pgmcml90(), fat);
  const auto rs = place_and_route(d, CellLibrary::pgmcml90(), single);
  EXPECT_NEAR(rf.total_wire_length, 2.0 * rs.total_wire_length,
              1e-9 * rf.total_wire_length + 1e-12);
  EXPECT_NEAR(rf.total_wire_cap, 2.0 * rs.total_wire_cap,
              1e-9 * rf.total_wire_cap + 1e-21);
}

TEST(Place, RoutedCriticalPathExceedsUnrouted) {
  const auto lib = CellLibrary::pgmcml90();
  const auto mapped = core::map_reduced_aes(lib);
  const auto unrouted = mapped.design.stats(lib);
  const auto routed = place_and_route(mapped.design, lib);
  EXPECT_GT(routed.routed_critical_path, unrouted.critical_path);
  // Wire delay should be a correction, not a blow-up, on a block this size.
  EXPECT_LT(routed.routed_critical_path, unrouted.critical_path * 2.0);
}

TEST(Place, BiggerBlocksMeanMoreWire) {
  const auto lib = CellLibrary::pgmcml90();
  const auto small = place_and_route(chain(20), lib);
  const auto big = place_and_route(core::map_sbox_ise(lib).design, lib);
  EXPECT_GT(big.total_wire_length, small.total_wire_length * 10.0);
  EXPECT_GT(big.rows, small.rows);
}

TEST(Place, DieAreaScalesWithLibraryArea) {
  const Design d = chain(100);
  const auto cmos = place_and_route(d, CellLibrary::cmos90());
  const auto pg = place_and_route(d, CellLibrary::pgmcml90());
  EXPECT_GT(pg.die_area, cmos.die_area);
  EXPECT_NEAR(pg.die_area / cmos.die_area,
              CellLibrary::pgmcml90().cell(CellKind::kBuf).area /
                  CellLibrary::cmos90().cell(CellKind::kBuf).area,
              0.05);
}

}  // namespace
}  // namespace pgmcml::netlist
