// Reproduces Fig. 3: the buffer design-space exploration over tail current.
//   (a) delay vs Iss for FO1 and FO4 loads -- saturating beyond ~250 uA;
//   (b) power-delay and area-delay products -- area-delay minimum at an
//       interior Iss (the paper picked 50 uA).
// Each point re-solves the bias voltages and re-runs the transistor-level
// transient characterization.
#include "bench_manifest.hpp"

#include <cstdio>
#include <vector>

#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/util/table.hpp"
#include "pgmcml/util/units.hpp"

namespace {

using namespace pgmcml;

void print_fig3() {
  const std::vector<double> currents = {10e-6, 20e-6, 35e-6, 50e-6, 75e-6,
                                        100e-6, 150e-6, 250e-6, 400e-6};
  mcml::McmlDesign base;
  util::Table t("Fig. 3 -- MCML buffer bias-current sweep");
  t.header({"Iss [uA]", "Vn [V]", "Vp [V]", "delay FO1", "delay FO4",
            "P = Vdd*Iss", "P*D (FO4)", "A*D (FO4)"});
  // All sweep points run on the parallel-execution layer (PGMCML_THREADS).
  const std::vector<mcml::BufferSweepPoint> sweep =
      mcml::sweep_buffer_bias(base, currents);
  std::vector<mcml::BufferSweepPoint> points;
  for (const auto& pt : sweep) {
    if (!pt.ok) {
      t.row({util::Table::num(pt.iss * 1e6, 0), "-", "-", "(bias failed)", "-",
             "-", "-", "-"});
      continue;
    }
    points.push_back(pt);
    t.row({util::Table::num(pt.iss * 1e6, 0), util::Table::num(pt.vn, 3),
           util::Table::num(pt.vp, 3), util::Table::eng(pt.delay_fo1, "s"),
           util::Table::eng(pt.delay_fo4, "s"), util::Table::eng(pt.power, "W"),
           util::Table::eng(pt.power_delay(), "Ws"),
           util::Table::eng(pt.area_delay(), "m^2*s")});
  }
  t.print();

  // Shape checks the paper highlights.
  if (points.size() >= 3) {
    const auto& first = points.front();
    const auto& last = points.back();
    std::printf(
        "\nDelay speed-up from %.0f uA to %.0f uA: %.2fx (saturating "
        "returns)\n",
        first.iss * 1e6, last.iss * 1e6, first.delay_fo4 / last.delay_fo4);
    std::size_t best = 0;
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (points[i].area_delay() < points[best].area_delay()) best = i;
    }
    std::printf("Area-delay optimum at Iss = %.0f uA (paper: 50 uA)\n\n",
                points[best].iss * 1e6);
  }
}

}  // namespace

int main() {
  pgmcml::bench::Manifest manifest("fig3_bias_sweep");
  print_fig3();
  manifest.write();
  return 0;
}
