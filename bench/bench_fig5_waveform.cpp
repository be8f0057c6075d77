// Reproduces Fig. 5: the supply-current waveform of the S-box ISE macro
// around one custom-instruction execution (at 14.4 ns in a 20 ns window),
// for conventional MCML (flat, always burning) and PG-MCML (gated pulse),
// with the sleep signal overlaid.
#include "bench_manifest.hpp"

#include <cstdio>

#include "pgmcml/core/ise_experiment.hpp"
#include "pgmcml/power/integrity.hpp"
#include "pgmcml/util/table.hpp"
#include "pgmcml/util/units.hpp"

namespace {

using namespace pgmcml;

void print_fig5() {
  const core::Fig5Waveforms w = core::compose_fig5_waveforms();

  std::printf("%s",
              w.mcml.ascii_plot(76, 10, "Fig. 5a -- conventional MCML supply "
                                        "current (always on)").c_str());
  std::printf("%s",
              w.pgmcml.ascii_plot(76, 10, "\nFig. 5b -- PG-MCML supply "
                                          "current (gated pulse)").c_str());
  std::printf("%s",
              w.sleep.ascii_plot(76, 6, "\nSleep signal (1 = awake)").c_str());

  util::Table t("Fig. 5 -- summary");
  t.header({"quantity", "MCML", "PG-MCML"});
  t.row({"current @ 5 ns (idle)", util::Table::eng(w.mcml.value_at(5e-9), "A"),
         util::Table::eng(w.pgmcml.value_at(5e-9), "A")});
  t.row({"current @ 14.8 ns (active)",
         util::Table::eng(w.mcml.value_at(14.8e-9), "A"),
         util::Table::eng(w.pgmcml.value_at(14.8e-9), "A")});
  t.row({"window-average current", util::Table::eng(w.mcml.average(), "A"),
         util::Table::eng(w.pgmcml.average(), "A")});
  t.print();
  std::printf(
      "Idle-current ratio MCML / PG-MCML: %.0fx  (paper: flat ~30 mA vs "
      "negligible)\n\n",
      w.mcml.value_at(5e-9) / std::max(w.pgmcml.value_at(5e-9), 1e-12));

  // Power integrity of the wake edge: why Section 5 buffers the sleep
  // signal as a tree (staggered turn-on keeps the inrush and IR droop down).
  const double block_current = w.mcml.average(2e-9, 10e-9);
  util::Table pi("Wake-up inrush vs sleep-tree staggering");
  pi.header({"leaf groups", "stagger", "peak current", "IR droop",
             "droop/Vdd", "settle"});
  for (std::size_t groups : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    power::InrushOptions io;
    io.stagger_groups = groups;
    io.stagger_step = 150e-12;
    const power::InrushResult r = power::analyze_wake_inrush(
        power::default_kernels(), block_current, io);
    pi.row({std::to_string(groups),
            groups > 1 ? util::Table::eng(io.stagger_step, "s")
                       : std::string("-"),
            util::Table::eng(r.peak_current, "A"),
            util::Table::eng(r.peak_droop, "V"),
            util::Table::num(100.0 * r.droop_fraction, 1) + "%",
            util::Table::eng(r.settle_time, "s")});
  }
  pi.print();
  std::printf("\n");
}

}  // namespace

int main() {
  pgmcml::bench::Manifest manifest("fig5_waveform");
  print_fig5();
  manifest.write();
  return 0;
}
