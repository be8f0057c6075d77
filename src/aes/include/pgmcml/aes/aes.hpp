// AES-128 (FIPS-197): reference software implementation, key schedule, the
// S-box tables, and the paper's reduced security-evaluation target
// (AddRoundKey + SubBytes on one byte).
//
// The software cipher is both the golden model for the hardware S-box ISE
// and the program the OpenRISC-style CPU model executes in the Table 3
// experiment.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pgmcml::aes {

using Block = std::array<std::uint8_t, 16>;
using Key = std::array<std::uint8_t, 16>;

/// Forward S-box (SubBytes).
const std::array<std::uint8_t, 256>& sbox();

/// xtime: multiplication by {02} in GF(2^8) mod x^8+x^4+x^3+x+1.
std::uint8_t xtime(std::uint8_t x);
/// GF(2^8) multiplication.
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

/// Expanded key: 11 round keys of 16 bytes for AES-128.
struct KeySchedule {
  std::array<std::array<std::uint8_t, 16>, 11> round_keys{};
};
KeySchedule expand_key(const Key& key);

/// Encrypts one 16-byte block with AES-128.
Block encrypt(const Block& plaintext, const Key& key);

/// Round primitives (exposed for tests and for the CPU program).
void add_round_key(Block& state, const std::array<std::uint8_t, 16>& rk);
void sub_bytes(Block& state);
void shift_rows(Block& state);
void mix_columns(Block& state);

/// The reduced DPA-evaluation target used in Section 6: one key byte, one
/// plaintext byte, output = S-box(p ^ k).  This is the function whose
/// hardware implementations are attacked in Fig. 6.
std::uint8_t reduced_target(std::uint8_t plaintext, std::uint8_t key);

/// Applies the 4-lane S-box custom instruction semantics: each byte of the
/// 32-bit word is replaced by its S-box image (the "S-box ISE").
std::uint32_t sbox_ise(std::uint32_t word);

}  // namespace pgmcml::aes
