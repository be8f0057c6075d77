// Logic-style ablation over operating frequency -- the Section 2 landscape
// the paper positions PG-MCML in:
//
//   CMOS:     P ~ E_sw * f + leakage       (cheap at low f, grows with f)
//   DyCML:    P ~ E_op * f                 (dynamic current pulse per cycle)
//   MCML:     P ~ Vdd * Iss                (flat -- wins at multi-GHz, loses
//                                           badly when idle)
//   PG-MCML:  P ~ duty * Vdd * Iss + leak  (follows the workload)
//
// The buffer-level numbers come from the transistor-level characterizations
// (characterize_cell / characterize_dycml_buffer).
#include "bench_manifest.hpp"

#include <cstdio>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/mcml/dycml.hpp"
#include "pgmcml/util/table.hpp"

namespace {

using namespace pgmcml;

void print_style_comparison() {
  // Transistor-level per-gate numbers.
  const auto mcml_ch =
      mcml::characterize_cell(mcml::CellKind::kBuf, mcml::McmlDesign{}, 1);
  const auto dycml_ch = mcml::characterize_dycml_buffer();
  const auto cmos = cells::CellLibrary::cmos90().cell(mcml::CellKind::kBuf);

  util::Table props("Per-gate properties (buffer, transistor level)");
  props.header({"style", "delay", "per-op energy", "static/idle"});
  props.row({"CMOS", util::Table::eng(cmos.delay, "s"),
             util::Table::eng(cmos.switch_energy, "J"),
             util::Table::eng(cmos.leakage_power, "W")});
  props.row({"DyCML", util::Table::eng(dycml_ch.delay, "s"),
             util::Table::eng(dycml_ch.energy_per_op, "J"),
             util::Table::eng(dycml_ch.idle_current * 1.2, "W")});
  props.row({"MCML", util::Table::eng(mcml_ch.delay, "s"), "0 (steered)",
             util::Table::eng(mcml_ch.static_power, "W")});
  props.row({"PG-MCML (awake)", util::Table::eng(mcml_ch.delay * 1.02, "s"),
             "0 (steered)", util::Table::eng(mcml_ch.static_power, "W")});
  props.row({"PG-MCML (asleep)", "-", "-",
             util::Table::eng(mcml_ch.sleep_current * 1.2, "W")});
  props.print();

  util::Table t("\nPer-gate average power vs operating frequency (100% activity)");
  t.header({"f [MHz]", "CMOS", "DyCML", "MCML", "crossover note"});
  for (double f : {10e6, 100e6, 400e6, 1e9, 3e9, 10e9, 30e9}) {
    const double p_cmos = cmos.switch_energy * f + cmos.leakage_power;
    const double p_dycml = dycml_ch.energy_per_op * f;
    const double p_mcml = mcml_ch.static_power;
    std::string note;
    if (p_mcml < p_cmos && p_mcml < p_dycml) {
      note = "MCML cheapest (multi-GHz regime)";
    } else if (p_cmos <= p_dycml) {
      note = "CMOS cheapest";
    } else {
      note = "DyCML cheapest";
    }
    t.row({util::Table::num(f / 1e6, 0), util::Table::eng(p_cmos, "W"),
           util::Table::eng(p_dycml, "W"), util::Table::eng(p_mcml, "W"),
           note});
  }
  t.print();
  std::printf(
      "Note: the MCML-beats-CMOS crossover sits in the tens-of-GHz regime "
      "here because the synthetic\nCMOS buffer is small; larger drives / "
      "wire-dominated nodes move it left, which is Section 2's\n"
      "multi-GHz argument.\n");

  util::Table t2(
      "\nPer-gate average power vs duty cycle at 400 MHz (security workload)");
  t2.header({"active duty", "CMOS", "DyCML", "MCML", "PG-MCML"});
  for (double duty : {1.0, 0.1, 0.01, 1e-3, 1e-4}) {
    const double f = 400e6;
    const double p_cmos = cmos.switch_energy * f * duty + cmos.leakage_power;
    const double p_dycml = dycml_ch.energy_per_op * f * duty +
                           dycml_ch.idle_current * 1.2 * (1.0 - duty);
    const double p_mcml = mcml_ch.static_power;
    const double p_pg = mcml_ch.static_power * duty +
                        mcml_ch.sleep_current * 1.2 * (1.0 - duty);
    char label[32];
    std::snprintf(label, sizeof(label), "%g", duty);
    t2.row({label, util::Table::eng(p_cmos, "W"),
            util::Table::eng(p_dycml, "W"), util::Table::eng(p_mcml, "W"),
            util::Table::eng(p_pg, "W")});
  }
  t2.print();
  std::printf(
      "\nDyCML gets the duty-tracking for free but needs the clocked "
      "precharge and its dynamic current\nsource per gate -- the complexity "
      "the paper cites for rejecting it; PG-MCML reaches the same\n"
      "power class with a single sleep transistor and commodity EDA "
      "support.\n\n");
}

}  // namespace

int main() {
  pgmcml::bench::Manifest manifest("ablation_styles");
  print_style_comparison();
  manifest.write();
  return 0;
}
