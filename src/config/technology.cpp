#include "pgmcml/config/technology.hpp"

namespace pgmcml::config {

namespace {

spice::DeviceModel device_model_from(const Reader& r) {
  r.reject_unknown_keys({"vth0", "kp", "lambda", "n_sub", "gamma", "phi",
                         "cox_area", "cov_width", "cj_width"});
  spice::DeviceModel m;
  m.vth0 = r.require_positive("vth0");
  m.kp = r.require_positive("kp");
  m.lambda = r.require_number("lambda");
  m.n_sub = r.require_positive("n_sub");
  m.gamma = r.require_number("gamma");
  m.phi = r.require_positive("phi");
  m.cox_area = r.positive_or("cox_area", m.cox_area);
  m.cov_width = r.positive_or("cov_width", m.cov_width);
  m.cj_width = r.positive_or("cj_width", m.cj_width);
  if (m.lambda < 0.0) r.child("lambda").fail("must be >= 0");
  if (m.gamma < 0.0) r.child("gamma").fail("must be >= 0");
  return m;
}

obs::json::Value device_model_to_json(const spice::DeviceModel& m) {
  obs::json::Object o;
  o.emplace_back("vth0", m.vth0);
  o.emplace_back("kp", m.kp);
  o.emplace_back("lambda", m.lambda);
  o.emplace_back("n_sub", m.n_sub);
  o.emplace_back("gamma", m.gamma);
  o.emplace_back("phi", m.phi);
  o.emplace_back("cox_area", m.cox_area);
  o.emplace_back("cov_width", m.cov_width);
  o.emplace_back("cj_width", m.cj_width);
  return obs::json::Value(std::move(o));
}

}  // namespace

spice::TechnologyParams technology_params_from_json(
    const obs::json::Value& doc, const std::string& doc_label) {
  const Reader r = open_document(doc, "technology", doc_label);
  r.reject_unknown_keys({"pgmcml_schema", "kind", "name", "corner", "vdd",
                         "lmin", "avt", "akp", "devices"});
  spice::TechnologyParams p;
  p.name = r.require_string("name");
  if (p.name.empty()) r.child("name").fail("must not be empty");
  p.corner_label = r.string_or("corner", "TT");
  p.vdd = r.require_positive("vdd");
  p.lmin = r.require_positive("lmin");
  p.avt = r.positive_or("avt", p.avt);
  p.akp = r.positive_or("akp", p.akp);
  const Reader devices = r.child("devices");
  devices.reject_unknown_keys(
      {"nmos_lvt", "nmos_hvt", "pmos_lvt", "pmos_hvt"});
  p.nmos_lvt = device_model_from(devices.child("nmos_lvt"));
  p.nmos_hvt = device_model_from(devices.child("nmos_hvt"));
  p.pmos_lvt = device_model_from(devices.child("pmos_lvt"));
  p.pmos_hvt = device_model_from(devices.child("pmos_hvt"));
  return p;
}

obs::json::Value technology_to_json(const spice::TechnologyParams& p) {
  obs::json::Object o;
  o.emplace_back("pgmcml_schema", kSchemaVersion);
  o.emplace_back("kind", "technology");
  o.emplace_back("name", p.name);
  o.emplace_back("corner", p.corner_label);
  o.emplace_back("vdd", p.vdd);
  o.emplace_back("lmin", p.lmin);
  o.emplace_back("avt", p.avt);
  o.emplace_back("akp", p.akp);
  obs::json::Object devices;
  devices.emplace_back("nmos_lvt", device_model_to_json(p.nmos_lvt));
  devices.emplace_back("nmos_hvt", device_model_to_json(p.nmos_hvt));
  devices.emplace_back("pmos_lvt", device_model_to_json(p.pmos_lvt));
  devices.emplace_back("pmos_hvt", device_model_to_json(p.pmos_hvt));
  o.emplace_back("devices", obs::json::Value(std::move(devices)));
  return obs::json::Value(std::move(o));
}

}  // namespace pgmcml::config
