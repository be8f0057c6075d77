// Reproduces Table 1: silicon area of conventional MCML vs PG-MCML cells in
// the 90 nm library (BUFX1, MUX4X1, AND4X1, DLX1), and the ~6 % sleep-
// transistor overhead, with the device counts from the generated netlists.
#include "bench_manifest.hpp"

#include <cstdio>

#include "pgmcml/mcml/area.hpp"
#include "pgmcml/mcml/builder.hpp"
#include "pgmcml/util/table.hpp"
#include "pgmcml/util/units.hpp"

namespace {

using namespace pgmcml;
using mcml::AreaModel;
using mcml::CellKind;

void print_table1() {
  AreaModel area;
  util::Table t("Table 1 -- MCML vs PG-MCML cell area, 90 nm");
  t.header({"Cell", "MCML [um^2]", "PG-MCML [um^2]", "overhead"});
  double sum = 0.0;
  int n = 0;
  for (CellKind kind : {CellKind::kBuf, CellKind::kMux4, CellKind::kAnd4,
                        CellKind::kDLatch}) {
    const double m = area.mcml_area(kind) / util::um2;
    const double pg = area.pg_area(kind) / util::um2;
    const char* name = kind == CellKind::kBuf      ? "BUFX1"
                       : kind == CellKind::kMux4   ? "MUX4X1"
                       : kind == CellKind::kAnd4   ? "AND4X1"
                                                   : "DLX1";
    t.row({name, util::Table::num(m, 4), util::Table::num(pg, 4),
           util::Table::num(100.0 * (pg / m - 1.0), 2) + "%"});
    sum += pg / m - 1.0;
    ++n;
  }
  t.print();
  std::printf("Average PG overhead: %.2f%% (paper: ~6%%)\n\n",
              100.0 * sum / n);

  // Transistor-count view of the same cells (the sleep device per stage).
  util::Table t2("Table 1b -- transistor counts (generated netlists)");
  t2.header({"Cell", "MCML devices", "PG-MCML devices", "sleep devices"});
  for (CellKind kind : {CellKind::kBuf, CellKind::kMux4, CellKind::kAnd4,
                        CellKind::kDLatch}) {
    const int plain = mcml::transistor_count(kind, false);
    const int gated = mcml::transistor_count(kind, true);
    t2.row({mcml::to_string(kind), std::to_string(plain),
            std::to_string(gated), std::to_string(gated - plain)});
  }
  t2.print();
  std::printf("\n");
}

}  // namespace

int main() {
  pgmcml::bench::Manifest manifest("table1_area");
  print_table1();
  manifest.write();
  return 0;
}
