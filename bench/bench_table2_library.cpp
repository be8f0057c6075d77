// Reproduces Table 2: area and delay of all 16 PG-MCML cells, plus the
// MCML/CMOS area ratios.  Delays come from the transistor-level SPICE
// characterization of the generated cells (FO1 load, Iss = 50 uA,
// Vsw = 0.4 V); areas from the layout model.  The paper's published delays
// are shown alongside for the EXPERIMENTS.md comparison.
#include "bench_manifest.hpp"

#include <cstdio>

#include "pgmcml/cache/cache.hpp"
#include "pgmcml/mcml/area.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/util/table.hpp"
#include "pgmcml/util/units.hpp"

namespace {

using namespace pgmcml;
using mcml::AreaModel;
using mcml::CellKind;

void print_table2() {
  AreaModel area;
  mcml::McmlDesign design;  // PG-MCML, 50 uA, 0.4 V
  util::Table t("Table 2 -- PG-MCML library: area, delay, CMOS ratio");
  t.header({"Cell", "Area [um^2]", "Delay (ours)", "Delay (paper)",
            "MCML/CMOS area", "Istat [uA]", "Isleep [nA]"});
  double ratio_sum = 0.0;
  int ratio_n = 0;
  for (CellKind kind : mcml::all_cells()) {
    const mcml::CellInfo& info = mcml::cell_info(kind);
    const auto ch = mcml::characterize_cell(kind, design, 1);
    std::string ratio = "-";
    if (info.cmos_area_ratio.has_value()) {
      ratio = util::Table::num(*info.cmos_area_ratio, 1);
      ratio_sum += *info.cmos_area_ratio;
      ++ratio_n;
    }
    t.row({info.name, util::Table::num(area.pg_area(kind) / util::um2, 4),
           ch.ok ? util::Table::eng(ch.delay, "s") : ("FAIL: " + ch.error),
           util::Table::eng(info.paper_delay, "s"), ratio,
           ch.ok ? util::Table::num(ch.static_current * 1e6, 1) : "-",
           ch.ok ? util::Table::num(ch.sleep_current * 1e9, 2) : "-"});
  }
  t.print();
  std::printf("Mean MCML/CMOS area ratio: %.2f (paper: 1.6)\n\n",
              ratio_sum / ratio_n);
}

}  // namespace

int main() {
  pgmcml::bench::Manifest manifest("table2_library");
  print_table2();

  // Result-cache effectiveness (PGMCML_CACHE_DIR): on a warm run every
  // characterization above is a hit and zero transients are solved.
  const pgmcml::cache::ResultCache& rc = pgmcml::cache::ResultCache::global();
  if (rc.enabled()) {
    const pgmcml::cache::ResultCache::Stats stats = rc.stats();
    std::printf("Result cache: %zu hits, %zu misses (hit rate %.2f)\n\n",
                stats.hits, stats.misses, stats.hit_rate());
  }

  manifest.write();
  return 0;
}
