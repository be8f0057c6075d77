// Ablation over the four power-gating topologies of Fig. 2 -- the design
// study behind the paper's choice of (d), the series sleep transistor:
// awake current accuracy, gated-off leakage, wake-up time, delay cost and
// device count, all measured at transistor level on the buffer cell.
#include "bench_manifest.hpp"

#include <cstdio>

#include "pgmcml/mcml/characterize.hpp"
#include "pgmcml/util/table.hpp"

namespace {

using namespace pgmcml;
using mcml::GatingTopology;

void print_ablation() {
  util::Table t("Fig. 2 ablation -- power-gating topologies (buffer cell)");
  t.header({"Topology", "devices", "delay", "Iawake [uA]", "Isleep [nA]",
            "wake time", "cut ratio"});
  const GatingTopology topologies[] = {
      GatingTopology::kNone, GatingTopology::kVnPullDown,
      GatingTopology::kVnSwitch, GatingTopology::kBodyBias,
      GatingTopology::kSeriesSleep};
  for (GatingTopology topo : topologies) {
    mcml::McmlDesign d;
    d.gating = topo;
    const auto ch = mcml::characterize_cell(mcml::CellKind::kBuf, d, 1);
    if (!ch.ok) {
      t.row({to_string(topo), "-", "(failed: " + ch.error + ")", "-", "-", "-",
             "-"});
      continue;
    }
    const double cut = ch.static_current / std::max(ch.sleep_current, 1e-15);
    t.row({to_string(topo), std::to_string(ch.transistors),
           util::Table::eng(ch.delay, "s"),
           util::Table::num(ch.static_current * 1e6, 1),
           util::Table::num(ch.sleep_current * 1e9, 2),
           ch.wake_time > 0 ? util::Table::eng(ch.wake_time, "s")
                            : std::string("-"),
           topo == GatingTopology::kNone ? std::string("-")
                                         : util::Table::num(cut, 0) + "x"});
  }
  t.print();
  std::printf(
      "\nPaper's selection rationale reproduced: (a)/(b) need the bias node "
      "re-settled (slow wake, extra devices);\n(c) relies on body bias "
      "(weak cut-off, separate well); (d) adds one stacked device with "
      "negative VGS in sleep -> deepest cut.\n\n");

  // Vt-assignment ablation: the paper uses high-Vt for network/tail/sleep
  // and low-Vt loads.  Compare against an all-low-Vt variant.
  util::Table t2("Vt-assignment ablation (PG-MCML buffer)");
  t2.header({"NMOS network Vt", "delay", "Isleep [nA]"});
  for (spice::VtFlavor vt : {spice::VtFlavor::kHighVt, spice::VtFlavor::kLowVt}) {
    mcml::McmlDesign d;
    d.network_vt = vt;
    const auto ch = mcml::characterize_cell(mcml::CellKind::kBuf, d, 1);
    t2.row({to_string(vt),
            ch.ok ? util::Table::eng(ch.delay, "s") : "FAIL",
            ch.ok ? util::Table::num(ch.sleep_current * 1e9, 2) : "-"});
  }
  t2.print();
  std::printf("\n");
}

}  // namespace

int main() {
  pgmcml::bench::Manifest manifest("ablation_gating");
  print_ablation();
  manifest.write();
  return 0;
}
