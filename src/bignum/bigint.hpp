// Arbitrary-precision integers for SINTRA's public-key cryptography.
//
// The paper's prototype used Java's BigInteger; this reproduction builds
// the substrate from scratch.  Representation is sign-magnitude with
// 64-bit limbs (least-significant first); intermediate products use the
// compiler's `unsigned __int128` so a full limb product plus two carries
// fits in one register pair.  Modular exponentiation uses fused-CIOS
// Montgomery multiplication (montgomery.hpp); primality testing and
// parameter generation live in prime.hpp.  Limb width is an internal
// representation choice only — the wire format is big-endian bytes and is
// bit-identical to the old 32-bit layer (docs/CRYPTO.md, DESIGN.md §13;
// tests/test_bignum_kat.cpp pins it with known answers from that layer).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace sintra::bignum {

/// Double-width intermediate for limb arithmetic.
using Wide = unsigned __int128;

class BigInt {
 public:
  /// The limb word.  64-bit since PR 8 (docs/CRYPTO.md has the layout).
  using Limb = std::uint64_t;
  static constexpr int kLimbBits = 64;

  BigInt() = default;
  BigInt(std::int64_t v);  // NOLINT(google-explicit-constructor) — numeric literal convenience

  /// Parses decimal, or hex with a "0x" prefix.  Throws std::invalid_argument.
  static BigInt from_string(std::string_view s);
  /// Big-endian unsigned byte string (the crypto wire format).
  static BigInt from_bytes(BytesView be);
  /// Uniform in [0, bound), bound > 0.
  static BigInt random_below(Rng& rng, const BigInt& bound);
  /// Uniform with exactly `bits` bits (top bit set).
  static BigInt random_bits(Rng& rng, int bits);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const { return negative_; }
  [[nodiscard]] bool is_odd() const {
    return !limbs_.empty() && (limbs_[0] & 1u);
  }
  [[nodiscard]] bool is_one() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }

  /// Number of significant bits (0 for zero).
  [[nodiscard]] int bit_length() const;
  [[nodiscard]] bool bit(int i) const;
  /// Bits [i, i+width) of the magnitude as an unsigned value (width in
  /// [1, 64]; bits past the top read as 0).  The digit-extraction primitive
  /// of windowed and comb exponentiation.  Returns a full Limb since PR 8 —
  /// callers that stuff the digit into a narrower type must cast explicitly
  /// (the bignum target builds with -Wconversion to catch silent narrowing).
  [[nodiscard]] Limb bits_window(int i, int width) const;

  [[nodiscard]] std::string to_string() const;   // decimal
  [[nodiscard]] std::string to_hex() const;      // lowercase, no prefix
  /// Minimal big-endian unsigned bytes ("" for zero).  Negative values are
  /// not representable; throws std::logic_error.
  [[nodiscard]] Bytes to_bytes() const;
  /// Big-endian, left-padded with zeros to exactly `len` bytes; throws if
  /// the value does not fit.
  [[nodiscard]] Bytes to_bytes_padded(std::size_t len) const;
  /// Value as u64; throws std::overflow_error if it does not fit.
  [[nodiscard]] std::uint64_t to_u64() const;

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  friend BigInt operator/(const BigInt& a, const BigInt& b);  // trunc toward 0
  friend BigInt operator%(const BigInt& a, const BigInt& b);  // sign of a
  friend BigInt operator<<(const BigInt& a, int k);
  friend BigInt operator>>(const BigInt& a, int k);
  BigInt operator-() const;

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }
  BigInt& operator%=(const BigInt& b) { return *this = *this % b; }

  friend bool operator==(const BigInt& a, const BigInt& b) = default;
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Quotient and remainder in one pass (remainder has sign of a),
  /// returned as {quotient, remainder}.
  static std::pair<BigInt, BigInt> div_mod(const BigInt& a, const BigInt& b);

  /// Non-negative residue in [0, m); m > 0.
  [[nodiscard]] BigInt mod(const BigInt& m) const;

  /// this^e mod m (e >= 0, m > 0).  Montgomery for odd m, generic otherwise.
  [[nodiscard]] BigInt mod_pow(const BigInt& e, const BigInt& m) const;

  /// Multiplicative inverse mod m; throws std::domain_error if gcd != 1.
  [[nodiscard]] BigInt mod_inverse(const BigInt& m) const;

  static BigInt gcd(BigInt a, BigInt b);

  /// Serialize as sign byte + length-prefixed magnitude.
  void write(Writer& w) const;
  static BigInt read(Reader& r);

  // Internal access for the Montgomery machinery.
  [[nodiscard]] const std::vector<Limb>& limbs() const { return limbs_; }
  static BigInt from_limbs(std::vector<Limb> limbs);

 private:
  void trim();
  static int cmp_mag(const BigInt& a, const BigInt& b);
  static BigInt add_mag(const BigInt& a, const BigInt& b);
  static BigInt sub_mag(const BigInt& a, const BigInt& b);  // |a| >= |b|

  std::vector<Limb> limbs_;  // little-endian; empty == 0
  bool negative_ = false;    // never true when limbs_ empty
};

}  // namespace sintra::bignum
