// Known-answer tests for the BigInt/Montgomery arithmetic.
//
// Each randomized or adversarial test drives the live layer with fixed
// seeded inputs, feeds the write() bytes (sign byte + length-prefixed
// big-endian magnitude, the crypto wire format) of every result, in order,
// into SHA-256, and compares the digest with a recorded constant.  The
// constants were produced by the frozen 32-bit-limb implementation that
// preceded the 64-bit rework, and the 64-bit layer was confirmed to
// produce the same digests before that implementation was deleted, so
// they pin both the values and the wire bytes to the original arithmetic.
// Changing any seeded input or any single result changes the digest.
//
// The suite keeps its historical name, BignumDiff, so its test ids stay
// stable.  Runs under SINTRA_SANITIZE like the rest of the suite; the
// randomized cases double as a UBSan/ASan workout for the __int128 carry
// paths.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bignum/bigint.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace sintra::bignum {
namespace {

/// Running SHA-256 over the serialized form of a sequence of results.
class ResultHash {
 public:
  void add(const BigInt& v) {
    Writer w;
    v.write(w);
    sha_.update(w.data());
  }
  [[nodiscard]] std::string hex() { return hex_encode(sha_.digest()); }

 private:
  crypto::Sha256 sha_;
};

BigInt from_bytes(const Bytes& be, bool negative = false) {
  const BigInt v = BigInt::from_bytes(be);
  return negative ? -v : v;
}

// Every draw is sequenced explicitly, so the inputs do not depend on the
// compiler's argument evaluation order: the sign comes first, then the
// magnitude.
BigInt signed_value(Rng& rng, std::size_t len) {
  const bool negative = rng.coin();
  return from_bytes(rng.bytes(len), negative);
}

// --- randomized known answers ---------------------------------------------

TEST(BignumDiff, RandomizedAddSubMul) {
  Rng rng(0xd1ff64);
  ResultHash h;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t la = rng.uniform(48);  // up to 384 bits
    const std::size_t lb = rng.uniform(48);
    const BigInt a = signed_value(rng, la);
    const BigInt b = signed_value(rng, lb);
    h.add(a + b);
    h.add(a - b);
    h.add(a * b);
  }
  EXPECT_EQ(h.hex(),
            "58e34976bcd71824bec4f0b44ece4af1a1159ff9e750fa2f35666d1eb09286d7");
}

TEST(BignumDiff, RandomizedDivMod) {
  Rng rng(0xd1ff65);
  ResultHash h;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t la = 1 + rng.uniform(40);
    const std::size_t lb = 1 + rng.uniform(20);
    const BigInt a = signed_value(rng, la);
    const BigInt b = signed_value(rng, lb);
    if (b.is_zero()) continue;
    const auto [q, r] = BigInt::div_mod(a, b);
    h.add(q);
    h.add(r);
    // Non-negative residue (different rounding convention).
    h.add(a.mod(b.is_negative() ? -b : b));
  }
  EXPECT_EQ(h.hex(),
            "0550e26a2a38d0e162f17caedfc3514b12a2d6826de03ba0f3d25589ca6eeee5");
}

TEST(BignumDiff, RandomizedKaratsubaSizes) {
  // Products wide enough to cross the 20-limb (1280-bit) Karatsuba
  // threshold.
  Rng rng(0xd1ff66);
  ResultHash h;
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t la = 160 + rng.uniform(160);  // up to ~2560 bits
    const std::size_t lb = 160 + rng.uniform(160);
    const BigInt a = from_bytes(rng.bytes(la));
    const BigInt b = from_bytes(rng.bytes(lb));
    h.add(a * b);
  }
  EXPECT_EQ(h.hex(),
            "1f8645ba14a22faa6f4e5373ddcc465e47178d8d68433ffb4172b78cc1c49c1e");
}

TEST(BignumDiff, RandomizedShifts) {
  Rng rng(0xd1ff67);
  ResultHash h;
  for (int iter = 0; iter < 200; ++iter) {
    const bool neg = rng.coin();
    const BigInt a = from_bytes(rng.bytes(1 + rng.uniform(40)), neg);
    const int k = static_cast<int>(rng.uniform(200));
    h.add(a << k);
    h.add(a >> k);
  }
  EXPECT_EQ(h.hex(),
            "7b89cd74e01115679c836181c47eb84d4a8e94fe509694140348b9b5677c4420");
}

TEST(BignumDiff, RandomizedModexpOddModulus) {
  Rng rng(0xd1ff68);
  ResultHash h;
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t lm = 16 + rng.uniform(49);  // 128..512-bit moduli
    Bytes mb = rng.bytes(lm);
    mb.back() |= 1;  // odd
    mb.front() |= 0x80;
    const BigInt m = from_bytes(mb);
    const BigInt b = from_bytes(rng.bytes(lm + 4));
    const BigInt e = from_bytes(rng.bytes(1 + rng.uniform(lm)));
    h.add(b.mod_pow(e, m));
  }
  EXPECT_EQ(h.hex(),
            "b2866f4a47a3adccff7f6143372f69011d9f3378bebc9195a1869bf681a4f30e");
}

TEST(BignumDiff, Modexp1024BitVector) {
  // One full RSA-sized case through the fused CIOS path.
  Rng rng(0xd1ff69);
  Bytes mb = rng.bytes(128);
  mb.back() |= 1;
  mb.front() |= 0x80;
  const BigInt m = from_bytes(mb);
  const BigInt b = from_bytes(rng.bytes(128));
  const BigInt e = from_bytes(rng.bytes(128));
  ResultHash h;
  h.add(b.mod_pow(e, m));
  EXPECT_EQ(h.hex(),
            "bc53050d4c15e3933b3efc8ae33ec5ee11663268f9296cbcc469af6bbfaf9c59");
}

// --- adversarial edge vectors ---------------------------------------------

TEST(BignumDiff, EdgeVectors) {
  // Values chosen to sit on limb boundaries: all-ones runs force maximal
  // carry chains; single set bits probe the limb indexing; the 32-bit
  // lengths exercise asymmetric limb splits.
  std::vector<Bytes> raw;
  raw.push_back(Bytes{});             // zero
  raw.push_back(Bytes{0x01});         // one
  for (std::size_t len : {1u, 4u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 32u, 33u}) {
    raw.push_back(Bytes(len, 0xff));  // maximal carry chains
    Bytes top(len, 0x00);
    top.front() = 0x80;               // single top bit
    raw.push_back(top);
    Bytes walk(len, 0x00);
    walk.front() = 0x80;
    walk.back() |= 0x01;              // top and bottom bit
    raw.push_back(walk);
  }
  std::vector<BigInt> vals;
  for (const auto& b : raw) {
    vals.push_back(from_bytes(b, false));
    if (!b.empty()) vals.push_back(from_bytes(b, true));
  }
  ResultHash h;
  for (const auto& a : vals) {
    for (const auto& b : vals) {
      h.add(a + b);
      h.add(a - b);
      h.add(a * b);
      if (!b.is_zero()) {
        const auto [q, r] = BigInt::div_mod(a, b);
        h.add(q);
        h.add(r);
      }
    }
  }
  EXPECT_EQ(h.hex(),
            "3ac5631af8ee3c0de6a6fb9efdd2c9f74252701be2990a765000ccf1cae12977");
}

TEST(BignumDiff, KnuthDQhatStress) {
  // Dividends shaped so the initial qhat estimate overshoots and the
  // correction/add-back paths run with 64-bit limbs: divisor just above a
  // power of two, dividend with saturated high limbs.
  Rng rng(0xd1ff6a);
  ResultHash h;
  for (int iter = 0; iter < 60; ++iter) {
    Bytes db(9 + rng.uniform(16), 0x00);
    db.front() = 0x80;
    db.back() = static_cast<std::uint8_t>(1 + rng.uniform(3));
    Bytes nb(db.size() + 8 + rng.uniform(16), 0xff);
    for (std::size_t i = 0; i < nb.size(); i += 1 + rng.uniform(4)) {
      nb[i] = static_cast<std::uint8_t>(rng.uniform(256));
    }
    const BigInt d = from_bytes(db);
    const BigInt n = from_bytes(nb);
    const auto [q, r] = BigInt::div_mod(n, d);
    h.add(q);
    h.add(r);
    EXPECT_EQ(q * d + r, n) << "divisor/quotient identity";
  }
  EXPECT_EQ(h.hex(),
            "0a3499ab904f571bcbe11c74542cb9e34f8560300786b10a8af3256fbdf62040");
}

// --- wire format ----------------------------------------------------------

TEST(BignumDiff, WireBytesIdentical) {
  Rng rng(0xd1ff6b);
  ResultHash h;
  for (int iter = 0; iter < 200; ++iter) {
    const bool neg = rng.coin();
    const BigInt a = from_bytes(rng.bytes(rng.uniform(64)), neg);
    h.add(a);
    Writer w;
    a.write(w);
    Reader rd(w.data());
    EXPECT_EQ(BigInt::read(rd), a) << "round-trip";
  }
  EXPECT_EQ(h.hex(),
            "6a242103f7281456cfa766cb70f641f83d415ac4fd30d62a42c04dc28358d5d1");
}

TEST(BignumDiff, WireGoldenVectors) {
  // Hardcoded expected serializations: sign byte (0 = +, 1 = -) then a
  // big-endian u32 length prefix and big-endian magnitude bytes.  These
  // bytes are the PR 1 wire format; they must never change.
  struct Golden {
    std::int64_t value;
    Bytes expected;
  };
  const std::vector<Golden> cases = {
      {0, Bytes{0x00, 0x00, 0x00, 0x00, 0x00}},
      {1, Bytes{0x00, 0x00, 0x00, 0x00, 0x01, 0x01}},
      {-1, Bytes{0x01, 0x00, 0x00, 0x00, 0x01, 0x01}},
      {0x1234, Bytes{0x00, 0x00, 0x00, 0x00, 0x02, 0x12, 0x34}},
      {-0x80, Bytes{0x01, 0x00, 0x00, 0x00, 0x01, 0x80}},
  };
  for (const auto& c : cases) {
    Writer w;
    BigInt{c.value}.write(w);
    EXPECT_EQ(w.data(), c.expected) << c.value;
  }
  // A value spanning several 64-bit limbs: 2^130 + 5 is 17 magnitude
  // bytes, 0x04 (15 zero bytes) 0x05.
  const BigInt big = (BigInt{1} << 130) + BigInt{5};
  Writer w;
  big.write(w);
  Bytes expected{0x00, 0x00, 0x00, 0x00, 0x11, 0x04};
  expected.insert(expected.end(), 15, 0x00);
  expected.push_back(0x05);
  EXPECT_EQ(w.data(), expected);
}

TEST(BignumDiff, ToBytesMatchesAcrossWidths) {
  // Leading zeros must be stripped: the digest covers the minimal
  // magnitude bytes of every parsed value.
  Rng rng(0xd1ff6c);
  ResultHash h;
  for (int iter = 0; iter < 200; ++iter) {
    Bytes be = rng.bytes(rng.uniform(48));
    if (!be.empty() && rng.coin()) be.front() = 0;
    h.add(from_bytes(be));
  }
  EXPECT_EQ(h.hex(),
            "d8784c324e6034f4af5223fa6203b944a51725cf4c5eadf99d57a13e1cf3ef8d");
}

// --- live-layer invariants ------------------------------------------------

TEST(BignumDiff, BitsWindowMatchesBitReconstruction) {
  Rng rng(0xd1ff6d);
  for (int iter = 0; iter < 50; ++iter) {
    const BigInt a = BigInt::from_bytes(rng.bytes(1 + rng.uniform(33)));
    for (int width : {1, 3, 8, 31, 32, 33, 63, 64}) {
      const int i = static_cast<int>(rng.uniform(300));
      BigInt::Limb want = 0;
      for (int b = width; b-- > 0;) {
        want = (want << 1) | (a.bit(i + b) ? 1u : 0u);
      }
      EXPECT_EQ(a.bits_window(i, width), want)
          << "i=" << i << " width=" << width;
    }
  }
}

TEST(BignumDiff, MontgomeryRejectsOversizedModulus) {
  // Fixed-capacity scratch is sized for kMaxModulusBits; wider moduli must
  // be rejected at construction, not corrupt the stack.
  BigInt m = (BigInt{1} << kMaxModulusBits) + BigInt{1};  // 4097 bits, odd
  EXPECT_THROW(Montgomery{m}, std::domain_error);
  BigInt ok = (BigInt{1} << (kMaxModulusBits - 1)) + BigInt{1};
  EXPECT_NO_THROW(Montgomery{ok});
}

TEST(BignumDiff, WorkCounterUnchangedByRescale) {
  // kLimbWorkScale must keep the counter bit-identical to the 32-bit
  // layer for 64-bit-multiple moduli: one mmul over an n-limb modulus
  // charges 4*n^2 = (2n)^2, exactly the old count for the same modulus.
  Rng rng(0xd1ff6e);
  Bytes mb = rng.bytes(64);  // 512-bit modulus: n = 8 limbs
  mb.back() |= 1;
  mb.front() |= 0x80;
  const Montgomery mont{BigInt::from_bytes(mb)};
  const BigInt a = BigInt::from_bytes(rng.bytes(64));
  const BigInt b = BigInt::from_bytes(rng.bytes(64));
  reset_work_counter();
  (void)mont.mul(a, b);
  // mul() = to_mont(a) + to_mont(b) + product + from_mont: 4 mmuls.
  EXPECT_EQ(work_counter(), 4 * kLimbWorkScale * 8 * 8);
  EXPECT_EQ(work_counter(), 4ull * 16 * 16);  // the old 32-bit count
}

}  // namespace
}  // namespace sintra::bignum
