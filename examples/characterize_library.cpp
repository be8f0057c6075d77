// Library-designer workflow: retarget the PG-MCML library to a different
// operating point and re-characterize it at transistor level -- swing
// sensitivity, process corners, and drive strengths, the knobs Section 5
// discusses.
//
// Usage: ./build/examples/characterize_library
#include <cstdio>

#include "pgmcml/mcml/bias.hpp"
#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/util/table.hpp"

int main() {
  using namespace pgmcml;
  using mcml::CellKind;

  // --- swing sensitivity -------------------------------------------------------
  util::Table t1("Swing retargeting (buffer, Iss = 50 uA)");
  t1.header({"Vsw [V]", "Vn", "Vp", "delay", "sleep leakage"});
  for (double vsw : {0.3, 0.4, 0.5}) {
    mcml::McmlDesign d;
    d.vsw = vsw;
    mcml::solve_bias(d);  // expose the solved voltages for the printout
    const auto ch = mcml::characterize_cell(CellKind::kBuf, d, 1);
    if (!ch.ok) {
      t1.row({util::Table::num(vsw, 1), "-", "-", "FAIL: " + ch.error, "-"});
      continue;
    }
    t1.row({util::Table::num(vsw, 1), util::Table::num(d.vn, 3),
            util::Table::num(d.vp, 3), util::Table::eng(ch.delay, "s"),
            util::Table::eng(ch.sleep_current, "A")});
  }
  t1.print();

  // --- process corners ----------------------------------------------------------
  util::Table t2("\nProcess corners (buffer, retargeted per corner)");
  t2.header({"Corner", "Vdd", "Vn", "Vp", "delay", "Istat [uA]"});
  for (spice::Corner corner :
       {spice::Corner::kSlow, spice::Corner::kTypical, spice::Corner::kFast}) {
    mcml::McmlDesign d;
    d.tech = spice::Technology(corner);
    mcml::solve_bias(d);
    const auto ch = mcml::characterize_cell(CellKind::kBuf, d, 1);
    if (!ch.ok) {
      t2.row({to_string(corner), util::Table::num(d.tech.vdd(), 2), "-", "-",
              "FAIL: " + ch.error, "-"});
      continue;
    }
    t2.row({to_string(corner), util::Table::num(d.tech.vdd(), 2),
            util::Table::num(d.vn, 3), util::Table::num(d.vp, 3),
            util::Table::eng(ch.delay, "s"),
            util::Table::num(ch.static_current * 1e6, 1)});
  }
  t2.print();

  // --- drive strengths ------------------------------------------------------------
  util::Table t3("\nDrive strengths (buffer, FO4 load of its own size)");
  t3.header({"Drive", "Iss [uA]", "delay FO4", "Istat [uA]"});
  for (double drive : {1.0, 2.0, 4.0}) {
    mcml::McmlDesign d;
    d.drive = drive;
    const auto ch = mcml::characterize_cell(CellKind::kBuf, d, 4);
    if (!ch.ok) {
      t3.row({util::Table::num(drive, 0), "-", "FAIL: " + ch.error, "-"});
      continue;
    }
    const std::string drive_label = util::Table::num(drive, 0);
    t3.row({"X" + drive_label,
            util::Table::num(d.eff_iss() * 1e6, 0),
            util::Table::eng(ch.delay, "s"),
            util::Table::num(ch.static_current * 1e6, 1)});
  }
  t3.print();
  return 0;
}
