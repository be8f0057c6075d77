// RTL-level intermediate representation: a structurally-hashed DAG of
// AND / XOR / MUX / MAJ / DFF nodes over complemented literals (AIG-style:
// literal = node << 1 | negated).  This is what "RTL code" means in this
// reproduction; the technology mapper lowers it onto the 16-cell library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pgmcml::synth {

using Lit = std::uint32_t;

inline constexpr Lit kLitFalse = 0;  ///< constant-0 literal (node 0)
inline constexpr Lit kLitTrue = 1;

inline Lit lit_not(Lit l) { return l ^ 1u; }
inline std::uint32_t lit_node(Lit l) { return l >> 1; }
inline bool lit_neg(Lit l) { return (l & 1u) != 0; }
inline Lit make_lit(std::uint32_t node, bool neg) {
  return (node << 1) | (neg ? 1u : 0u);
}

enum class NodeOp : std::uint8_t {
  kConst,  ///< node 0: constant false
  kInput,
  kAnd,   ///< a & b
  kXor,   ///< a ^ b (operand literals stored uncomplemented)
  kMux,   ///< a ? c : b   (a = select, b = when-0, c = when-1)
  kDff,   ///< q: a = d, clk implicit (single global clock domain)
};

struct Node {
  NodeOp op = NodeOp::kConst;
  Lit a = kLitFalse;
  Lit b = kLitFalse;
  Lit c = kLitFalse;
  std::string name;  ///< inputs only
};

class Module {
 public:
  explicit Module(std::string name = "top");

  const std::string& name() const { return name_; }

  Lit input(const std::string& name);
  /// Bus convenience: `width` inputs named name[0..width-1], LSB first.
  std::vector<Lit> input_bus(const std::string& name, int width);

  Lit land(Lit a, Lit b);
  Lit lor(Lit a, Lit b) { return lit_not(land(lit_not(a), lit_not(b))); }
  Lit lxor(Lit a, Lit b);
  Lit lxnor(Lit a, Lit b) { return lit_not(lxor(a, b)); }
  Lit lnand(Lit a, Lit b) { return lit_not(land(a, b)); }
  Lit lnor(Lit a, Lit b) { return lit_not(lor(a, b)); }
  /// sel ? when1 : when0.
  Lit lmux(Lit sel, Lit when0, Lit when1);

  /// Rising-edge flop in the single global clock domain.
  Lit dff(Lit d);

  void output(const std::string& name, Lit l);
  /// Bus convenience, LSB first.
  void output_bus(const std::string& name, const std::vector<Lit>& bits);

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(std::uint32_t id) const { return nodes_.at(id); }
  const std::vector<std::pair<std::string, Lit>>& outputs() const {
    return outputs_;
  }
  const std::vector<std::uint32_t>& inputs() const { return input_nodes_; }

  /// Literal-level constant/identity simplification statistics.
  std::size_t folded() const { return folded_; }

  /// Evaluates the module combinationally for given input values (flops read
  /// their current state, which this call also advances on request).
  std::vector<bool> evaluate(const std::vector<bool>& input_values,
                             bool tick_clock = false,
                             std::vector<bool>* flop_state = nullptr) const;

 private:
  Lit add_node(NodeOp op, Lit a, Lit b, Lit c);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> input_nodes_;
  std::vector<std::pair<std::string, Lit>> outputs_;
  std::map<std::tuple<NodeOp, Lit, Lit, Lit>, std::uint32_t> hash_;
  std::size_t folded_ = 0;
};

// --- bit-vector helpers (LSB-first buses) ----------------------------------
std::vector<Lit> bus_xor(Module& m, const std::vector<Lit>& a,
                         const std::vector<Lit>& b);

}  // namespace pgmcml::synth
