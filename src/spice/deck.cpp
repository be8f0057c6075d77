#include "pgmcml/spice/deck.hpp"

#include <cctype>
#include <map>
#include <sstream>

namespace pgmcml::spice {
namespace {

std::string node_name(const Circuit& c, NodeId n) {
  if (n == kGround) return "0";
  std::string name = c.node_name(n);
  for (char& ch : name) {
    if (std::isspace(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

std::string dev_name(char prefix, const std::string& name) {
  std::string out(1, prefix);
  for (char ch : name) {
    out += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
  }
  return out;
}

/// Devices sharing electrical parameters share one .model card.
struct ModelKey {
  bool is_nmos;
  double vth0;
  double kp;
  double lambda;
  double n_sub;
  bool operator<(const ModelKey& o) const {
    return std::tie(is_nmos, vth0, kp, lambda, n_sub) <
           std::tie(o.is_nmos, o.vth0, o.kp, o.lambda, o.n_sub);
  }
};

std::string describe_source(const SourceSpec& spec) {
  // DC sources print their value; time-varying sources print the value at
  // t = 0 plus a comment (exact PULSE reconstruction would need the
  // spec internals; the deck stays valid either way).
  std::ostringstream os;
  if (spec.is_dc()) {
    os << "DC " << spec.value(0.0);
  } else {
    os << "DC " << spec.value(0.0) << " * time-varying (see generator)";
  }
  return os.str();
}

}  // namespace

std::string to_spice_deck(const Circuit& circuit, const std::string& title) {
  std::ostringstream os;
  os << "* " << title << "\n";
  os << "* nodes: " << circuit.num_nodes()
     << ", devices: " << circuit.num_devices() << "\n";

  std::map<ModelKey, std::string> models;
  auto model_of = [&](const MosParams& p) {
    const ModelKey key{p.is_nmos, p.vth0, p.kp, p.lambda, p.n_sub};
    auto it = models.find(key);
    if (it == models.end()) {
      const std::string name =
          std::string(p.is_nmos ? "nch_" : "pch_") + std::to_string(models.size());
      it = models.emplace(key, name).first;
    }
    return it->second;
  };

  for (std::size_t i = 0; i < circuit.num_devices(); ++i) {
    const Device& dev = circuit.device(static_cast<DeviceId>(i));
    const auto t = dev.terminals();
    if (const auto* r = dynamic_cast<const Resistor*>(&dev)) {
      os << dev_name('R', dev.name()) << " " << node_name(circuit, t[0]) << " "
         << node_name(circuit, t[1]) << " " << r->resistance() << "\n";
    } else if (const auto* c = dynamic_cast<const Capacitor*>(&dev)) {
      os << dev_name('C', dev.name()) << " " << node_name(circuit, t[0]) << " "
         << node_name(circuit, t[1]) << " " << c->capacitance() << "\n";
    } else if (const auto* v = dynamic_cast<const VoltageSource*>(&dev)) {
      os << dev_name('V', dev.name()) << " " << node_name(circuit, t[0]) << " "
         << node_name(circuit, t[1]) << " " << describe_source(v->spec())
         << "\n";
    } else if (const auto* m = dynamic_cast<const Mosfet*>(&dev)) {
      const MosParams& p = m->params();
      os << dev_name('M', dev.name()) << " " << node_name(circuit, t[0]) << " "
         << node_name(circuit, t[1]) << " " << node_name(circuit, t[2]) << " "
         << node_name(circuit, t[3]) << " " << model_of(p) << " W=" << p.w
         << " L=" << p.l << "\n";
    }
  }

  for (const auto& [key, name] : models) {
    os << ".model " << name << " " << (key.is_nmos ? "nmos" : "pmos")
       << " level=1 vto=" << (key.is_nmos ? key.vth0 : -key.vth0)
       << " kp=" << key.kp << " lambda=" << key.lambda << "\n";
  }
  os << ".end\n";
  return os.str();
}

}  // namespace pgmcml::spice
