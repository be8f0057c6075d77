// Combinational synthesis of lookup tables (the AES S-box is an 8x8 LUT in
// the paper's custom functional unit).  Uses recursive Shannon decomposition
// into mux trees with memoization on cofactor truth tables, so identical
// subfunctions -- within one output bit and across output bits -- are shared.
// The resulting mux pairs fuse into MUX4 cells during technology mapping.
#pragma once

#include <cstdint>
#include <vector>

#include "pgmcml/synth/module.hpp"

namespace pgmcml::synth {

/// Synthesizes an n-input, 8-bit-output lookup table (LSB-first outputs).
/// `table.size()` must be 1 << inputs.size().
std::vector<Lit> synthesize_lut8(Module& m, const std::vector<Lit>& inputs,
                                 const std::vector<std::uint8_t>& table);

}  // namespace pgmcml::synth
