// Reproduces Table 3: the S-box ISE implemented in CMOS / MCML / PG-MCML --
// cell count, area, delay, and average power while the OpenRISC-style CPU
// runs AES.  The headline result: PG-MCML cuts the MCML average power by
// orders of magnitude (the paper reports ~10^4 at 0.01 % ISE duty) and lands
// in static CMOS's power class.
#include "bench_manifest.hpp"

#include <cstdio>

#include "pgmcml/core/ise_experiment.hpp"
#include "pgmcml/or1k/aes_program.hpp"
#include "pgmcml/util/table.hpp"
#include "pgmcml/util/units.hpp"

namespace {

using namespace pgmcml;

void print_table3() {
  // Two workload scenarios: back-to-back AES (duty ~2 %) and the paper's
  // crypto-mostly-idle scenario (idle spin diluting the duty towards 0.01 %).
  struct Scenario {
    const char* name;
    core::IseExperimentOptions opt;
  };
  Scenario scenarios[2];
  scenarios[0].name = "back-to-back AES (busy crypto)";
  scenarios[0].opt.blocks = 10;
  scenarios[0].opt.idle_spin = 0;
  scenarios[1].name = "paper scenario: crypto idle most of the time";
  scenarios[1].opt.blocks = 4;
  scenarios[1].opt.idle_spin = 398'000;  // duty ~1e-4 = the paper's 0.01 %

  for (const Scenario& sc : scenarios) {
    const auto rows = core::run_ise_experiment(sc.opt);
    util::Table t(std::string("Table 3 -- S-box ISE, ") + sc.name);
    t.header({"", "CMOS", "MCML", "PG-MCML"});
    auto col = [&](auto f) {
      return std::vector<std::string>{f(rows[0]), f(rows[1]), f(rows[2])};
    };
    auto push = [&](const char* label, auto f) {
      auto c = col(f);
      t.row({label, c[0], c[1], c[2]});
    };
    push("Cells", [](const core::IseStyleResult& r) {
      return std::to_string(r.cells);
    });
    push("Area [um^2]", [](const core::IseStyleResult& r) {
      return util::Table::num(r.area / util::um2, 1);
    });
    push("Delay [ns]", [](const core::IseStyleResult& r) {
      return util::Table::num(r.critical_path / util::ns, 3);
    });
    push("Avg power", [](const core::IseStyleResult& r) {
      return util::Table::eng(r.avg_power, "W");
    });
    push("Active power", [](const core::IseStyleResult& r) {
      return util::Table::eng(r.active_power, "W");
    });
    push("Idle power", [](const core::IseStyleResult& r) {
      return util::Table::eng(r.idle_power, "W");
    });
    t.print();
    std::printf("ISE duty cycle: %.5f%%   (paper: 0.01%%)\n", rows[0].duty * 100);
    std::printf("MCML / PG-MCML average power ratio: %.0fx   (paper: ~10^4)\n",
                rows[1].avg_power / rows[2].avg_power);
    std::printf("CMOS / PG-MCML average power ratio: %.1fx   (paper: ~4)\n\n",
                rows[0].avg_power / rows[2].avg_power);
  }

  // The software side: AES with and without the ISE.
  const auto with_ise = or1k::run_aes_program({}, {}, {true, 1, 0});
  const auto without = or1k::run_aes_program({}, {}, {false, 1, 0});
  util::Table sw("CPU-side profile (one AES-128 block)");
  sw.header({"variant", "cycles", "l.sbox executions"});
  sw.row({"S-box ISE", std::to_string(with_ise.cycles),
          std::to_string(with_ise.ise_executions)});
  sw.row({"pure software", std::to_string(without.cycles),
          std::to_string(without.ise_executions)});
  sw.print();
  std::printf("\n");
}

}  // namespace

int main() {
  pgmcml::bench::Manifest manifest("table3_sbox_ise");
  print_table3();
  manifest.write();
  return 0;
}
