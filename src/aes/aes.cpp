#include "pgmcml/aes/aes.hpp"

namespace pgmcml::aes {
namespace {

/// Builds the S-box from the field inverse + affine map so the table is
/// self-derived rather than transcribed (and the test suite cross-checks a
/// handful of published values).
struct SboxTables {
  std::array<std::uint8_t, 256> fwd{};

  SboxTables() {
    // Multiplicative inverse in GF(2^8) via exhaustive search (tiny domain).
    std::array<std::uint8_t, 256> inverse{};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (gf_mul(static_cast<std::uint8_t>(a),
                   static_cast<std::uint8_t>(b)) == 1) {
          inverse[a] = static_cast<std::uint8_t>(b);
          break;
        }
      }
    }
    for (int x = 0; x < 256; ++x) {
      const std::uint8_t s = inverse[x];
      // Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i.
      std::uint8_t y = 0;
      for (int i = 0; i < 8; ++i) {
        const int bit = ((s >> i) ^ (s >> ((i + 4) & 7)) ^ (s >> ((i + 5) & 7)) ^
                         (s >> ((i + 6) & 7)) ^ (s >> ((i + 7) & 7)) ^
                         (0x63 >> i)) &
                        1;
        y = static_cast<std::uint8_t>(y | (bit << i));
      }
      fwd[x] = y;
    }
  }
};

const SboxTables& tables() {
  static const SboxTables kTables;
  return kTables;
}

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

}  // namespace

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t result = 0;
  while (b != 0) {
    if (b & 1) result ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return result;
}

const std::array<std::uint8_t, 256>& sbox() { return tables().fwd; }

KeySchedule expand_key(const Key& key) {
  KeySchedule ks;
  std::array<std::uint8_t, 176> w{};
  for (int i = 0; i < 16; ++i) w[i] = key[i];
  for (int i = 16; i < 176; i += 4) {
    std::uint8_t t[4] = {w[i - 4], w[i - 3], w[i - 2], w[i - 1]};
    if (i % 16 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(sbox()[t[1]] ^ kRcon[i / 16]);
      t[1] = sbox()[t[2]];
      t[2] = sbox()[t[3]];
      t[3] = sbox()[tmp];
    }
    for (int j = 0; j < 4; ++j) {
      w[i + j] = static_cast<std::uint8_t>(w[i - 16 + j] ^ t[j]);
    }
  }
  for (int r = 0; r < 11; ++r) {
    for (int j = 0; j < 16; ++j) ks.round_keys[r][j] = w[r * 16 + j];
  }
  return ks;
}

void add_round_key(Block& state, const std::array<std::uint8_t, 16>& rk) {
  for (int i = 0; i < 16; ++i) state[i] ^= rk[i];
}

void sub_bytes(Block& state) {
  for (auto& b : state) b = sbox()[b];
}

// State layout: column-major as in FIPS-197 (byte i is row i%4, col i/4).
void shift_rows(Block& s) {
  Block t = s;
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[r + 4 * c] = t[r + 4 * ((c + r) % 4)];
    }
  }
}

void mix_columns(Block& s) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = &s[4 * c];
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

Block encrypt(const Block& plaintext, const Key& key) {
  const KeySchedule ks = expand_key(key);
  Block s = plaintext;
  add_round_key(s, ks.round_keys[0]);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, ks.round_keys[round]);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, ks.round_keys[10]);
  return s;
}

std::uint8_t reduced_target(std::uint8_t plaintext, std::uint8_t key) {
  return sbox()[plaintext ^ key];
}

std::uint32_t sbox_ise(std::uint32_t word) {
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    const auto byte = static_cast<std::uint8_t>(word >> (8 * i));
    out |= static_cast<std::uint32_t>(sbox()[byte]) << (8 * i);
  }
  return out;
}

}  // namespace pgmcml::aes
