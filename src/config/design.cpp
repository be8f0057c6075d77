#include "pgmcml/config/design.hpp"

namespace pgmcml::config {

namespace {

const std::initializer_list<std::string_view> kStyles = {"cmos", "mcml",
                                                         "pgmcml"};
const std::initializer_list<std::string_view> kGatings = {
    "none", "vn_pulldown", "vn_switch", "body_bias", "series_sleep"};
const std::initializer_list<std::string_view> kVtFlavors = {"lvt", "hvt"};

const char* gating_label(mcml::GatingTopology g) {
  switch (g) {
    case mcml::GatingTopology::kNone: return "none";
    case mcml::GatingTopology::kVnPullDown: return "vn_pulldown";
    case mcml::GatingTopology::kVnSwitch: return "vn_switch";
    case mcml::GatingTopology::kBodyBias: return "body_bias";
    case mcml::GatingTopology::kSeriesSleep: return "series_sleep";
  }
  return "series_sleep";
}

}  // namespace

CellVariant cell_variant_from_json(const obs::json::Value& doc,
                                   const std::string& doc_label) {
  const Reader r = open_document(doc, "cell_variant", doc_label);
  r.reject_unknown_keys({"pgmcml_schema", "kind", "name", "style", "iss",
                         "vsw", "w_pair", "w_tail", "w_load", "l_tail",
                         "drive", "gating", "network_vt", "load_vt",
                         "include_parasitics"});
  CellVariant v;
  v.name = r.require_string("name");
  if (v.name.empty()) r.child("name").fail("must not be empty");
  v.style =
      static_cast<cells::LogicStyle>(r.require_enum("style", kStyles));

  mcml::McmlDesign& d = v.design;
  d.iss = r.positive_or("iss", d.iss);
  d.vsw = r.positive_or("vsw", d.vsw);
  d.w_pair = r.positive_or("w_pair", d.w_pair);
  d.w_tail = r.positive_or("w_tail", d.w_tail);
  d.w_load = r.positive_or("w_load", d.w_load);
  d.l_tail = r.positive_or("l_tail", d.l_tail);
  d.drive = r.positive_or("drive", d.drive);

  const mcml::GatingTopology default_gating =
      v.style == cells::LogicStyle::kPgMcml
          ? mcml::GatingTopology::kSeriesSleep
          : mcml::GatingTopology::kNone;
  d.gating = static_cast<mcml::GatingTopology>(r.enum_or(
      "gating", kGatings, static_cast<std::size_t>(default_gating)));
  if (v.style == cells::LogicStyle::kPgMcml &&
      d.gating == mcml::GatingTopology::kNone) {
    r.child("gating").fail("style 'pgmcml' requires a power-gating topology");
  }
  if (v.style != cells::LogicStyle::kPgMcml &&
      d.gating != mcml::GatingTopology::kNone) {
    r.child("gating").fail(std::string("gating '") + gating_label(d.gating) +
                           "' requires style 'pgmcml'");
  }

  d.network_vt = static_cast<spice::VtFlavor>(r.enum_or(
      "network_vt", kVtFlavors, static_cast<std::size_t>(d.network_vt)));
  d.load_vt = static_cast<spice::VtFlavor>(r.enum_or(
      "load_vt", kVtFlavors, static_cast<std::size_t>(d.load_vt)));
  d.include_parasitics =
      r.bool_or("include_parasitics", d.include_parasitics);
  return v;
}

}  // namespace pgmcml::config
