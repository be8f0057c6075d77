#include "pgmcml/mcml/area.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pgmcml/util/units.hpp"

namespace pgmcml::mcml {
namespace {

using util::um2;

TEST(AreaModel, Table1ValuesReproducedExactly) {
  // Table 1 of the paper: conventional MCML vs PG-MCML, 90 nm.
  AreaModel a;
  EXPECT_NEAR(a.mcml_area(CellKind::kBuf) / um2, 7.056, 0.01);
  EXPECT_NEAR(a.pg_area(CellKind::kBuf) / um2, 7.448, 0.01);
  EXPECT_NEAR(a.mcml_area(CellKind::kMux4) / um2, 19.7568, 0.02);
  EXPECT_NEAR(a.pg_area(CellKind::kMux4) / um2, 20.8544, 0.02);
  EXPECT_NEAR(a.mcml_area(CellKind::kAnd4) / um2, 16.9344, 0.02);
  EXPECT_NEAR(a.pg_area(CellKind::kAnd4) / um2, 17.8752, 0.02);
  EXPECT_NEAR(a.mcml_area(CellKind::kDLatch) / um2, 8.4672, 0.01);
  EXPECT_NEAR(a.pg_area(CellKind::kDLatch) / um2, 8.9376, 0.01);
}

TEST(AreaModel, PgOverheadIsAboutSixPercent) {
  AreaModel a;
  EXPECT_NEAR(a.pg_overhead(), 0.0556, 0.001);
  for (CellKind k : all_cells()) {
    const double ratio = a.pg_area(k) / a.mcml_area(k);
    EXPECT_NEAR(ratio, 19.0 / 18.0, 1e-9) << to_string(k);
  }
}

TEST(AreaModel, Table2AreasReproduced) {
  AreaModel a;
  for (CellKind k : all_cells()) {
    const CellInfo& info = cell_info(k);
    EXPECT_NEAR(a.pg_area(k), info.paper_pg_area, 0.002 * info.paper_pg_area)
        << info.name;
  }
}

TEST(AreaModel, CmosRatiosAverageToOnePointSix) {
  // Paper: "PG-MCML cells are 1.6 times larger in average" than CMOS.
  AreaModel a;
  double sum = 0.0;
  int n = 0;
  for (CellKind k : all_cells()) {
    const auto cmos = a.cmos_area(k);
    if (!cmos.has_value()) continue;
    sum += a.pg_area(k) / *cmos;
    ++n;
  }
  ASSERT_GT(n, 10);
  EXPECT_NEAR(sum / n, 1.6, 0.15);
}

TEST(AreaModel, CellsWithoutCmosCounterpartReturnNullopt) {
  AreaModel a;
  EXPECT_FALSE(a.cmos_area(CellKind::kDiff2Single).has_value());
  EXPECT_FALSE(a.cmos_area(CellKind::kMaj3).has_value());
  EXPECT_FALSE(a.cmos_area(CellKind::kEDff).has_value());
  EXPECT_TRUE(a.cmos_area(CellKind::kBuf).has_value());
}

TEST(AreaModel, DriveScalingMonotone) {
  AreaModel a;
  EXPECT_DOUBLE_EQ(a.drive_scale(1.0), 1.0);
  EXPECT_GT(a.drive_scale(4.0), a.drive_scale(2.0));
  EXPECT_GT(a.drive_scale(2.0), 1.0);
}

TEST(AreaModel, PitchEstimateTracksLayoutData) {
  // A transistor-count heuristic should land within ~50 % of the committed
  // layout data for non-wiring-dominated cells: the library's cells place
  // ~1.8 transistors per pitch.
  for (CellKind k : all_cells()) {
    if (k == CellKind::kFullAdder) continue;  // wiring dominated
    const int est =
        static_cast<int>(std::lround(transistor_count(k, true) * 0.58));
    const int actual = cell_info(k).pitch_count;
    EXPECT_GT(est, actual / 2) << to_string(k);
    EXPECT_LT(est, actual * 2) << to_string(k);
  }
}

}  // namespace
}  // namespace pgmcml::mcml
