#include "pgmcml/synth/map.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace pgmcml::synth {

using mcml::CellKind;
using netlist::Design;
using netlist::Instance;
using netlist::kNoNet;
using netlist::NetId;

namespace {

class Mapper {
 public:
  Mapper(const Module& m, const cells::CellLibrary& lib,
         const MapOptions& options)
      : module_(m), lib_(lib), options_(options) {
    result_.design = Design(m.name());
    analyze_uses();
  }

  MapResult run() {
    Design& d = result_.design;
    for (std::uint32_t id : module_.inputs()) {
      const NetId net = d.add_net(module_.node(id).name);
      d.mark_input(net, module_.node(id).name);
      net_of_[id] = net;
    }
    for (std::uint32_t id = 1; id < module_.num_nodes(); ++id) {
      if (module_.node(id).op == NodeOp::kDff) {
        clock_net_ = d.add_net("clk");
        d.mark_input(clock_net_, "clk");
        break;
      }
    }
    // Map roots first; absorbable single-fanout nodes are consumed by their
    // user via collect_leaves / mux fusion, everything else is mapped on
    // demand through resolve().
    for (std::uint32_t id = 1; id < module_.num_nodes(); ++id) {
      const Node& n = module_.node(id);
      if (n.op == NodeOp::kInput || n.op == NodeOp::kConst) continue;
      if (absorbable(id)) continue;
      map_node(id);
    }
    // Anything deferred but never consumed (e.g. budget overflow).
    for (std::uint32_t id = 1; id < module_.num_nodes(); ++id) {
      const Node& n = module_.node(id);
      if (n.op == NodeOp::kInput || n.op == NodeOp::kConst) continue;
      map_node(id);
    }
    for (const auto& [name, lit] : module_.outputs()) {
      NetId net = net_for(lit_node(lit));
      bool inv = lit_neg(lit);
      if (inv && !lib_.free_inversion()) {
        net = inverter(net);
        inv = false;
      }
      d.mark_output(net, name, inv);
    }
    result_.cells = d.num_instances();
    return std::move(result_);
  }

 private:
  struct Use {
    std::uint32_t user = 0;
    Lit as = kLitFalse;
    int slot = 0;  ///< operand position in the user (0=a, 1=b, 2=c)
  };

  void analyze_uses() {
    fanout_.assign(module_.num_nodes(), 0);
    last_use_.assign(module_.num_nodes(), Use{});
    auto use = [&](Lit l, std::uint32_t user, int slot) {
      ++fanout_[lit_node(l)];
      last_use_[lit_node(l)] = Use{user, l, slot};
    };
    for (std::uint32_t id = 1; id < module_.num_nodes(); ++id) {
      const Node& n = module_.node(id);
      switch (n.op) {
        case NodeOp::kAnd:
        case NodeOp::kXor:
          use(n.a, id, 0);
          use(n.b, id, 1);
          break;
        case NodeOp::kMux:
          use(n.a, id, 0);
          use(n.b, id, 1);
          use(n.c, id, 2);
          break;
        case NodeOp::kDff:
          use(n.a, id, 0);
          break;
        default:
          break;
      }
    }
    for (const auto& [name, lit] : module_.outputs()) {
      (void)name;
      ++fanout_[lit_node(lit)];
      last_use_[lit_node(lit)] = Use{0, lit, -1};  // output use blocks absorb
    }
  }

  /// True when this node should be left for its unique user to swallow.
  bool absorbable(std::uint32_t id) const {
    if (!options_.collapse || fanout_[id] != 1) return false;
    const Node& n = module_.node(id);
    const Use& u = last_use_[id];
    if (u.slot < 0 || u.user == 0) return false;
    const Node& parent = module_.node(u.user);
    if (n.op == NodeOp::kAnd) {
      return parent.op == NodeOp::kAnd && !lit_neg(u.as);
    }
    if (n.op == NodeOp::kXor) {
      return parent.op == NodeOp::kXor;
    }
    if (n.op == NodeOp::kMux) {
      // Data legs of a parent mux on a matching inner select may fuse.
      return parent.op == NodeOp::kMux && u.slot >= 1 && !lit_neg(u.as);
    }
    return false;
  }

  NetId net_for(std::uint32_t node) {
    map_node(node);
    auto it = net_of_.find(node);
    if (it != net_of_.end()) return it->second;
    if (module_.node(node).op == NodeOp::kConst) {
      if (const_net_ == kNoNet) {
        const_net_ = result_.design.add_net("const0");
        result_.design.mark_input(const_net_, "const0");
      }
      return const_net_;
    }
    throw std::logic_error("mapper: unresolvable node");
  }

  std::pair<NetId, bool> resolve(Lit l) {
    NetId net = net_for(lit_node(l));
    bool inv = lit_neg(l);
    if (inv && !lib_.free_inversion()) {
      net = inverter(net);
      inv = false;
    }
    return {net, inv};
  }

  /// Materialized NOT of a net (cached; used by CMOS data paths and by
  /// control pins in every style, since control inputs carry no phase flag).
  NetId inverter(NetId net) {
    auto it = inverted_net_.find(net);
    if (it != inverted_net_.end()) return it->second;
    Design& d = result_.design;
    const NetId out = d.add_net("inv");
    Instance inst;
    inst.name = "U_inv" + std::to_string(result_.inverters);
    inst.kind = CellKind::kBuf;
    inst.inputs = {net};
    inst.outputs = {out};
    inst.inverted_output = true;
    d.add_instance(std::move(inst));
    ++result_.inverters;
    inverted_net_.emplace(net, out);
    return out;
  }

  void emit(std::uint32_t id, CellKind kind, const std::vector<Lit>& ins,
            bool out_inverted = false) {
    Design& d = result_.design;
    Instance inst;
    const std::string index = std::to_string(id);
    inst.name = "U" + index;
    inst.kind = kind;
    inst.input_inverted.assign(ins.size(), false);
    for (std::size_t k = 0; k < ins.size(); ++k) {
      const auto [net, inv] = resolve(ins[k]);
      inst.inputs.push_back(net);
      inst.input_inverted[k] = inv;
    }
    if (mcml::cell_info(kind).sequential) inst.clk = clock_net_;
    const NetId out = d.add_net("w");
    inst.outputs = {out};
    inst.inverted_output = out_inverted;
    d.add_instance(std::move(inst));
    net_of_[id] = out;
  }

  void collect_leaves(Lit l, NodeOp op, int limit, std::vector<Lit>& leaves,
                      bool& parity) {
    const std::uint32_t id = lit_node(l);
    const Node& n = module_.node(id);
    const bool expandable =
        options_.collapse && n.op == op && fanout_[id] == 1 &&
        !net_of_.count(id) &&
        static_cast<int>(leaves.size()) + 2 <= limit &&
        (op == NodeOp::kXor || !lit_neg(l));
    if (expandable) {
      if (op == NodeOp::kXor && lit_neg(l)) parity = !parity;
      consumed_.insert(id);
      collect_leaves(n.a, op, limit, leaves, parity);
      collect_leaves(n.b, op, limit, leaves, parity);
    } else {
      leaves.push_back(l);
    }
  }

  void map_node(std::uint32_t id) {
    if (net_of_.count(id) || consumed_.count(id)) return;
    const Node& n = module_.node(id);
    switch (n.op) {
      case NodeOp::kAnd: {
        std::vector<Lit> leaves;
        bool parity = false;
        // Temporarily reserve this id so recursion cannot revisit it.
        consumed_.insert(id);
        collect_leaves(n.a, NodeOp::kAnd, 4, leaves, parity);
        collect_leaves(n.b, NodeOp::kAnd, 4, leaves, parity);
        consumed_.erase(id);
        if (leaves.size() == 4) {
          emit(id, CellKind::kAnd4, leaves);
        } else if (leaves.size() == 3) {
          emit(id, CellKind::kAnd3, leaves);
        } else {
          emit(id, CellKind::kAnd2, {leaves[0], leaves[1]});
        }
        break;
      }
      case NodeOp::kXor: {
        std::vector<Lit> leaves;
        bool parity = false;
        consumed_.insert(id);
        collect_leaves(n.a, NodeOp::kXor, 4, leaves, parity);
        collect_leaves(n.b, NodeOp::kXor, 4, leaves, parity);
        consumed_.erase(id);
        if (leaves.size() == 4) {
          emit(id, CellKind::kXor4, leaves, parity);
        } else if (leaves.size() == 3) {
          emit(id, CellKind::kXor3, leaves, parity);
        } else {
          emit(id, CellKind::kXor2, {leaves[0], leaves[1]}, parity);
        }
        break;
      }
      case NodeOp::kMux: {
        const std::uint32_t bn = lit_node(n.b);
        const std::uint32_t cn = lit_node(n.c);
        const Node& b = module_.node(bn);
        const Node& c = module_.node(cn);
        const bool fuse =
            options_.collapse && b.op == NodeOp::kMux && c.op == NodeOp::kMux &&
            !lit_neg(n.b) && !lit_neg(n.c) && b.a == c.a && bn != cn &&
            fanout_[bn] == 1 && fanout_[cn] == 1 && !net_of_.count(bn) &&
            !net_of_.count(cn);
        if (fuse) {
          consumed_.insert(bn);
          consumed_.insert(cn);
          // {sel0, sel1, in0..in3}: inner select first, this select second.
          emit(id, CellKind::kMux4, {b.a, n.a, b.b, b.c, c.b, c.c});
        } else {
          emit(id, CellKind::kMux2, {n.a, n.b, n.c});
        }
        break;
      }
      case NodeOp::kDff:
        emit(id, CellKind::kDff, {n.a});
        break;
      case NodeOp::kConst:
      case NodeOp::kInput:
        break;
    }
  }

  const Module& module_;
  const cells::CellLibrary& lib_;
  MapOptions options_;
  MapResult result_;
  std::unordered_map<std::uint32_t, NetId> net_of_;
  std::unordered_map<NetId, NetId> inverted_net_;
  std::unordered_set<std::uint32_t> consumed_;
  std::vector<std::size_t> fanout_;
  std::vector<Use> last_use_;
  NetId clock_net_ = kNoNet;
  NetId const_net_ = kNoNet;
};

}  // namespace

MapResult map_module(const Module& module, const cells::CellLibrary& library,
                     const MapOptions& options) {
  Mapper mapper(module, library, options);
  return mapper.run();
}

}  // namespace pgmcml::synth
