#include "pgmcml/synth/module.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace pgmcml::synth {

Module::Module(std::string name) : name_(std::move(name)) {
  nodes_.push_back(Node{});  // node 0: constant false
}

Lit Module::input(const std::string& name) {
  Node n;
  n.op = NodeOp::kInput;
  n.name = name;
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(n);
  input_nodes_.push_back(id);
  return make_lit(id, false);
}

std::vector<Lit> Module::input_bus(const std::string& name, int width) {
  std::vector<Lit> bits;
  bits.reserve(width);
  for (int i = 0; i < width; ++i) {
    bits.push_back(input(name + "[" + std::to_string(i) + "]"));
  }
  return bits;
}

Lit Module::add_node(NodeOp op, Lit a, Lit b, Lit c) {
  const auto key = std::make_tuple(op, a, b, c);
  auto it = hash_.find(key);
  if (it != hash_.end()) return make_lit(it->second, false);
  Node n;
  n.op = op;
  n.a = a;
  n.b = b;
  n.c = c;
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(n);
  hash_.emplace(key, id);
  return make_lit(id, false);
}

Lit Module::land(Lit a, Lit b) {
  if (a > b) std::swap(a, b);  // commutativity normalization
  if (a == kLitFalse) { ++folded_; return kLitFalse; }
  if (a == kLitTrue) { ++folded_; return b; }
  if (a == b) { ++folded_; return a; }
  if (a == lit_not(b)) { ++folded_; return kLitFalse; }
  return add_node(NodeOp::kAnd, a, b, kLitFalse);
}

Lit Module::lxor(Lit a, Lit b) {
  // Pull complements out: xor(~a, b) = ~xor(a, b).
  bool neg = false;
  if (lit_neg(a)) { a = lit_not(a); neg = !neg; }
  if (lit_neg(b)) { b = lit_not(b); neg = !neg; }
  if (a > b) std::swap(a, b);
  Lit out;
  if (a == kLitFalse) { ++folded_; out = b; }
  else if (a == b) { ++folded_; out = kLitFalse; }
  else out = add_node(NodeOp::kXor, a, b, kLitFalse);
  return neg ? lit_not(out) : out;
}

Lit Module::lmux(Lit sel, Lit when0, Lit when1) {
  if (sel == kLitFalse) { ++folded_; return when0; }
  if (sel == kLitTrue) { ++folded_; return when1; }
  if (lit_neg(sel)) return lmux(lit_not(sel), when1, when0);
  if (when0 == when1) { ++folded_; return when0; }
  if (when0 == kLitFalse && when1 == kLitTrue) { ++folded_; return sel; }
  if (when0 == kLitTrue && when1 == kLitFalse) { ++folded_; return lit_not(sel); }
  // Pull a common output complement out of the data legs so shared
  // complementary cofactors hash to one node.
  if (lit_neg(when0) && lit_neg(when1)) {
    return lit_not(lmux(sel, lit_not(when0), lit_not(when1)));
  }
  return add_node(NodeOp::kMux, sel, when0, when1);
}

Lit Module::dff(Lit d) { return add_node(NodeOp::kDff, d, kLitFalse, kLitFalse); }

void Module::output(const std::string& name, Lit l) {
  outputs_.emplace_back(name, l);
}

void Module::output_bus(const std::string& name, const std::vector<Lit>& bits) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    output(name + "[" + std::to_string(i) + "]", bits[i]);
  }
}

std::vector<bool> Module::evaluate(const std::vector<bool>& input_values,
                                   bool tick_clock,
                                   std::vector<bool>* flop_state) const {
  if (input_values.size() != input_nodes_.size()) {
    throw std::invalid_argument("Module::evaluate: input count mismatch");
  }
  std::vector<bool> node_val(nodes_.size(), false);
  std::vector<bool> local_state;
  std::vector<bool>* state = flop_state;
  if (state == nullptr) {
    local_state.assign(nodes_.size(), false);
    state = &local_state;
  } else if (state->size() != nodes_.size()) {
    state->assign(nodes_.size(), false);
  }

  std::size_t in_idx = 0;
  auto lv = [&](Lit l) { return node_val[lit_node(l)] != lit_neg(l); };
  // Nodes are created in topological order (operands precede users), so a
  // single forward pass evaluates the whole DAG; flops read prior state.
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    switch (n.op) {
      case NodeOp::kConst:
        node_val[id] = false;
        break;
      case NodeOp::kInput:
        node_val[id] = input_values[in_idx++];
        break;
      case NodeOp::kAnd:
        node_val[id] = lv(n.a) && lv(n.b);
        break;
      case NodeOp::kXor:
        node_val[id] = lv(n.a) != lv(n.b);
        break;
      case NodeOp::kMux:
        node_val[id] = lv(n.a) ? lv(n.c) : lv(n.b);
        break;
      case NodeOp::kDff:
        node_val[id] = (*state)[id];
        break;
    }
  }
  if (tick_clock) {
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
      const Node& n = nodes_[id];
      if (n.op == NodeOp::kDff) (*state)[id] = lv(n.a);
    }
  }

  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (const auto& [nm, l] : outputs_) {
    (void)nm;
    out.push_back(lv(l));
  }
  return out;
}

std::vector<Lit> bus_xor(Module& m, const std::vector<Lit>& a,
                         const std::vector<Lit>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("bus_xor: width mismatch");
  }
  std::vector<Lit> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = m.lxor(a[i], b[i]);
  return out;
}

}  // namespace pgmcml::synth
