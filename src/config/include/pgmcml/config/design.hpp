// Cell-variant documents: logic style, Vt flavors, sizing and power-gating
// topology for one library variant, parsed into cells::LogicStyle plus
// mcml::McmlDesign.
//
// Document shape (kind "cell_variant"):
//
//   {
//     "pgmcml_schema": 1,
//     "kind": "cell_variant",
//     "name": "pgmcml-x1",
//     "style": "pgmcml",             // "cmos" | "mcml" | "pgmcml"
//     "iss": 5e-05, "vsw": 0.4,
//     "w_pair": 1e-06, "w_tail": 2e-06, "w_load": 4e-07, "l_tail": 2e-07,
//     "drive": 1.0,
//     "gating": "series_sleep",      // none | vn_pulldown | vn_switch |
//                                    // body_bias | series_sleep
//     "network_vt": "hvt",           // "lvt" | "hvt"
//     "load_vt": "lvt",
//     "include_parasitics": true
//   }
//
// Every electrical member is optional and defaults to the paper's operating
// point (the McmlDesign defaults); "style" is required.  The gating topology
// follows the style when absent: "pgmcml" defaults to series_sleep, "mcml"
// and "cmos" to none.  Bias voltages are not part of the document --
// solve_bias() computes them during characterization.
#pragma once

#include <string>

#include "pgmcml/cells/library.hpp"
#include "pgmcml/config/reader.hpp"
#include "pgmcml/mcml/design.hpp"

namespace pgmcml::config {

/// One parsed cell-variant document.  `design.tech` is default-constructed;
/// the experiment layer stamps the technology in before use.
struct CellVariant {
  std::string name;
  cells::LogicStyle style = cells::LogicStyle::kPgMcml;
  mcml::McmlDesign design;
};

/// Parses and validates one cell_variant document.
CellVariant cell_variant_from_json(const obs::json::Value& doc,
                                   const std::string& doc_label);

}  // namespace pgmcml::config
