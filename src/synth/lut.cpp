#include "pgmcml/synth/lut.hpp"

#include <map>
#include <stdexcept>

namespace pgmcml::synth {
namespace {

class LutSynthesizer {
 public:
  LutSynthesizer(Module& m, const std::vector<Lit>& inputs)
      : m_(m), inputs_(inputs) {}

  Lit build(const std::vector<bool>& table) {
    if (table.size() != (1u << inputs_.size())) {
      throw std::invalid_argument("LUT synthesis: table size mismatch");
    }
    return recurse(table, static_cast<int>(inputs_.size()));
  }

 private:
  /// `vars` = number of live inputs (inputs_[0..vars-1] index the table).
  Lit recurse(const std::vector<bool>& table, int vars) {
    // Constant and 1-variable bases.
    bool all0 = true;
    bool all1 = true;
    for (bool b : table) {
      all0 = all0 && !b;
      all1 = all1 && b;
    }
    if (all0) return kLitFalse;
    if (all1) return kLitTrue;

    auto memo = memo_.find(table);
    if (memo != memo_.end()) return memo->second;

    Lit out;
    if (vars == 1) {
      out = table[1] ? inputs_[0] : lit_not(inputs_[0]);
    } else if (vars == 2) {
      out = two_var(table);
    } else {
      // Shannon on the highest variable: f = mux(x, f0, f1).
      const std::size_t half = table.size() / 2;
      const std::vector<bool> lo(table.begin(), table.begin() + half);
      const std::vector<bool> hi(table.begin() + half, table.end());
      const Lit f0 = recurse(lo, vars - 1);
      const Lit f1 = recurse(hi, vars - 1);
      out = m_.lmux(inputs_[vars - 1], f0, f1);
    }
    memo_.emplace(table, out);
    return out;
  }

  /// All sixteen 2-variable functions as at most one gate.
  Lit two_var(const std::vector<bool>& t) {
    const Lit a = inputs_[0];
    const Lit b = inputs_[1];
    const unsigned code = (t[0] ? 1u : 0u) | (t[1] ? 2u : 0u) |
                          (t[2] ? 4u : 0u) | (t[3] ? 8u : 0u);
    switch (code) {
      case 0x0: return kLitFalse;
      case 0xF: return kLitTrue;
      case 0xA: return a;                       // f = a
      case 0x5: return lit_not(a);
      case 0xC: return b;                       // f = b
      case 0x3: return lit_not(b);
      case 0x8: return m_.land(a, b);           // AND
      case 0x7: return m_.lnand(a, b);
      case 0xE: return m_.lor(a, b);            // OR
      case 0x1: return m_.lnor(a, b);
      case 0x6: return m_.lxor(a, b);           // XOR
      case 0x9: return m_.lxnor(a, b);
      case 0x2: return m_.land(a, lit_not(b));  // a & ~b
      case 0x4: return m_.land(lit_not(a), b);
      case 0xB: return m_.lor(a, lit_not(b));   // false only at (0,1)
      case 0xD: return m_.lor(lit_not(a), b);   // false only at (1,0)
    }
    throw std::logic_error("unreachable two_var code");
  }

  Module& m_;
  const std::vector<Lit>& inputs_;
  std::map<std::vector<bool>, Lit> memo_;
};

}  // namespace

std::vector<Lit> synthesize_lut8(Module& m, const std::vector<Lit>& inputs,
                                 const std::vector<std::uint8_t>& table) {
  if (table.size() != (1u << inputs.size())) {
    throw std::invalid_argument("synthesize_lut8: table size mismatch");
  }
  // One shared synthesizer would memoize across bits; truth tables of
  // different bits rarely coincide exactly, but their cofactors do, so share
  // the memo by synthesizing all bits through one instance.
  LutSynthesizer s(m, inputs);
  std::vector<Lit> out;
  out.reserve(8);
  for (int bit = 0; bit < 8; ++bit) {
    std::vector<bool> tt(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
      tt[i] = (table[i] >> bit) & 1;
    }
    out.push_back(s.build(tt));
  }
  return out;
}

}  // namespace pgmcml::synth
