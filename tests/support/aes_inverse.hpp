// The AES-128 inverse cipher (FIPS-197 Section 5.3), kept beside the tests
// as the oracle the round-trip tests check aes::encrypt against.  Nothing
// in the library decrypts: the paper's experiments only attack encryption.
#pragma once

#include <array>
#include <cstdint>

#include "pgmcml/aes/aes.hpp"

namespace pgmcml::aes::oracle {

inline const std::array<std::uint8_t, 256>& inv_sbox() {
  static const std::array<std::uint8_t, 256> kInv = [] {
    std::array<std::uint8_t, 256> inv{};
    for (int x = 0; x < 256; ++x) inv[sbox()[x]] = static_cast<std::uint8_t>(x);
    return inv;
  }();
  return kInv;
}

inline void inv_sub_bytes(Block& state) {
  for (auto& b : state) b = inv_sbox()[b];
}

// State layout: column-major as in FIPS-197 (byte i is row i%4, col i/4).
inline void inv_shift_rows(Block& s) {
  const Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[r + 4 * ((c + r) % 4)] = t[r + 4 * c];
    }
  }
}

inline void inv_mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gf_mul(a0, 0x0e) ^ gf_mul(a1, 0x0b) ^
                                       gf_mul(a2, 0x0d) ^ gf_mul(a3, 0x09));
    col[1] = static_cast<std::uint8_t>(gf_mul(a0, 0x09) ^ gf_mul(a1, 0x0e) ^
                                       gf_mul(a2, 0x0b) ^ gf_mul(a3, 0x0d));
    col[2] = static_cast<std::uint8_t>(gf_mul(a0, 0x0d) ^ gf_mul(a1, 0x09) ^
                                       gf_mul(a2, 0x0e) ^ gf_mul(a3, 0x0b));
    col[3] = static_cast<std::uint8_t>(gf_mul(a0, 0x0b) ^ gf_mul(a1, 0x0d) ^
                                       gf_mul(a2, 0x09) ^ gf_mul(a3, 0x0e));
  }
}

inline Block decrypt(const Block& ciphertext, const Key& key) {
  const KeySchedule ks = expand_key(key);
  Block s = ciphertext;
  add_round_key(s, ks.round_keys[10]);
  inv_shift_rows(s);
  inv_sub_bytes(s);
  for (int round = 9; round >= 1; --round) {
    add_round_key(s, ks.round_keys[round]);
    inv_mix_columns(s);
    inv_shift_rows(s);
    inv_sub_bytes(s);
  }
  add_round_key(s, ks.round_keys[0]);
  return s;
}

}  // namespace pgmcml::aes::oracle
