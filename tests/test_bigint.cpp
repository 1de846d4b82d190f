#include "bignum/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/hex.hpp"
#include "util/rng.hpp"

namespace sintra::bignum {
namespace {

BigInt bi(std::string_view s) { return BigInt::from_string(s); }

TEST(BigInt, ConstructionFromInt64) {
  EXPECT_EQ(BigInt{0}.to_string(), "0");
  EXPECT_EQ(BigInt{1}.to_string(), "1");
  EXPECT_EQ(BigInt{-1}.to_string(), "-1");
  EXPECT_EQ(BigInt{INT64_MAX}.to_string(), "9223372036854775807");
  EXPECT_EQ(BigInt{INT64_MIN}.to_string(), "-9223372036854775808");
}

TEST(BigInt, DecimalStringRoundTrip) {
  const char* cases[] = {
      "0",
      "1",
      "-1",
      "4294967295",
      "4294967296",
      "123456789012345678901234567890",
      "-999999999999999999999999999999999999",
  };
  for (const char* s : cases) EXPECT_EQ(bi(s).to_string(), s);
}

TEST(BigInt, HexParsingMatchesDecimal) {
  EXPECT_EQ(bi("0xff"), bi("255"));
  EXPECT_EQ(bi("0x100000000"), bi("4294967296"));
  EXPECT_EQ(bi("-0x10"), bi("-16"));
  EXPECT_EQ(bi("0xDEADBEEF"), bi("3735928559"));
}

TEST(BigInt, ToHex) {
  EXPECT_EQ(bi("255").to_hex(), "ff");
  EXPECT_EQ(bi("4294967296").to_hex(), "100000000");
  EXPECT_EQ(BigInt{0}.to_hex(), "0");
}

TEST(BigInt, RejectsMalformedStrings) {
  EXPECT_THROW(bi(""), std::invalid_argument);
  EXPECT_THROW(bi("12a"), std::invalid_argument);
  EXPECT_THROW(bi("0xgg"), std::invalid_argument);
  EXPECT_THROW(bi("-"), std::invalid_argument);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  EXPECT_EQ(bi("4294967295") + BigInt{1}, bi("4294967296"));
  EXPECT_EQ(bi("18446744073709551615") + BigInt{1}, bi("18446744073709551616"));
}

TEST(BigInt, SignedAddition) {
  EXPECT_EQ(BigInt{5} + BigInt{-3}, BigInt{2});
  EXPECT_EQ(BigInt{3} + BigInt{-5}, BigInt{-2});
  EXPECT_EQ(BigInt{-3} + BigInt{-5}, BigInt{-8});
  EXPECT_EQ(BigInt{5} + BigInt{-5}, BigInt{0});
}

TEST(BigInt, SubtractionBorrows) {
  EXPECT_EQ(bi("4294967296") - BigInt{1}, bi("4294967295"));
  EXPECT_EQ(BigInt{0} - bi("123456789012345678901234567890"),
            bi("-123456789012345678901234567890"));
}

TEST(BigInt, MultiplicationLarge) {
  EXPECT_EQ(bi("123456789012345678901234567890") * bi("987654321098765432109876543210"),
            bi("121932631137021795226185032733622923332237463801111263526900"));
}

TEST(BigInt, MultiplicationSigns) {
  EXPECT_EQ(BigInt{-4} * BigInt{5}, BigInt{-20});
  EXPECT_EQ(BigInt{-4} * BigInt{-5}, BigInt{20});
  EXPECT_EQ(BigInt{-4} * BigInt{0}, BigInt{0});
}

TEST(BigInt, DivisionSingleLimb) {
  EXPECT_EQ(bi("1000000000000") / BigInt{7}, bi("142857142857"));
  EXPECT_EQ(bi("1000000000000") % BigInt{7}, BigInt{1});
}

TEST(BigInt, DivisionMultiLimbKnuthD) {
  const BigInt a = bi("340282366920938463463374607431768211456");  // 2^128
  const BigInt b = bi("18446744073709551629");                     // 2^64+13
  const auto [q, r] = BigInt::div_mod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_GE(r, BigInt{0});
  EXPECT_LT(r, b);
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt{-7} / BigInt{2}, BigInt{-3});
  EXPECT_EQ(BigInt{-7} % BigInt{2}, BigInt{-1});
  EXPECT_EQ(BigInt{7} / BigInt{-2}, BigInt{-3});
  EXPECT_EQ(BigInt{7} % BigInt{-2}, BigInt{1});
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{0}, std::domain_error);
}

TEST(BigInt, DivModPropertyRandomized) {
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    const BigInt a = BigInt::random_bits(rng, 20 + static_cast<int>(rng.uniform(500)));
    const BigInt b = BigInt::random_bits(rng, 8 + static_cast<int>(rng.uniform(300)));
    const auto [q, r] = BigInt::div_mod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_GE(r, BigInt{0});
    EXPECT_LT(r, b);
  }
}

TEST(BigInt, Shifts) {
  EXPECT_EQ(BigInt{1} << 100, bi("1267650600228229401496703205376"));
  EXPECT_EQ(bi("1267650600228229401496703205376") >> 100, BigInt{1});
  EXPECT_EQ(bi("12345") >> 200, BigInt{0});
  EXPECT_EQ(BigInt{6} >> 1, BigInt{3});
  EXPECT_EQ(BigInt{6} << 0, BigInt{6});
}

TEST(BigInt, ShiftRoundTripRandomized) {
  Rng rng(321);
  for (int i = 0; i < 100; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + static_cast<int>(rng.uniform(400)));
    const int k = static_cast<int>(rng.uniform(130));
    EXPECT_EQ((a << k) >> k, a);
  }
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt{-2}, BigInt{-1});
  EXPECT_LT(BigInt{-1}, BigInt{0});
  EXPECT_LT(BigInt{0}, BigInt{1});
  EXPECT_LT(bi("4294967295"), bi("4294967296"));
  EXPECT_GT(bi("100000000000000000000"), bi("99999999999999999999"));
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt{0}.bit_length(), 0);
  EXPECT_EQ(BigInt{1}.bit_length(), 1);
  EXPECT_EQ(BigInt{255}.bit_length(), 8);
  EXPECT_EQ(BigInt{256}.bit_length(), 9);
  EXPECT_EQ((BigInt{1} << 1000).bit_length(), 1001);
}

TEST(BigInt, BitAccess) {
  const BigInt v = bi("0b1010" == nullptr ? "10" : "10");  // 10 = 0b1010
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(100));
}

TEST(BigInt, ModNonNegative) {
  EXPECT_EQ(BigInt{-7}.mod(BigInt{3}), BigInt{2});
  EXPECT_EQ(BigInt{7}.mod(BigInt{3}), BigInt{1});
  EXPECT_EQ(BigInt{-6}.mod(BigInt{3}), BigInt{0});
  EXPECT_THROW(BigInt{1}.mod(BigInt{0}), std::domain_error);
}

TEST(BigInt, ModPowSmallKnownValues) {
  EXPECT_EQ(BigInt{2}.mod_pow(BigInt{10}, BigInt{1000}), BigInt{24});
  EXPECT_EQ(BigInt{3}.mod_pow(BigInt{0}, BigInt{7}), BigInt{1});
  EXPECT_EQ(BigInt{0}.mod_pow(BigInt{5}, BigInt{7}), BigInt{0});
  EXPECT_EQ(BigInt{5}.mod_pow(BigInt{3}, BigInt{1}), BigInt{0});
}

TEST(BigInt, ModPowFermat) {
  // a^(p-1) == 1 mod p for prime p, gcd(a,p)=1.
  const BigInt p = bi("1000000007");
  for (std::int64_t a : {2, 3, 65537, 999999999}) {
    EXPECT_EQ(BigInt{a}.mod_pow(p - BigInt{1}, p), BigInt{1});
  }
}

TEST(BigInt, ModPowEvenModulus) {
  EXPECT_EQ(BigInt{3}.mod_pow(BigInt{4}, BigInt{100}), BigInt{81});
  EXPECT_EQ(BigInt{7}.mod_pow(BigInt{5}, BigInt{16}), BigInt{7});
}

TEST(BigInt, ModInverse) {
  const BigInt m = bi("1000000007");
  Rng rng(55);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt{1} + BigInt::random_below(rng, m - BigInt{1});
    const BigInt inv = a.mod_inverse(m);
    EXPECT_EQ((a * inv).mod(m), BigInt{1});
  }
}

TEST(BigInt, ModInverseNotInvertibleThrows) {
  EXPECT_THROW(BigInt{6}.mod_inverse(BigInt{9}), std::domain_error);
  EXPECT_THROW(BigInt{0}.mod_inverse(BigInt{7}), std::domain_error);
}

// Odd moduli take the binary extended GCD: random widths from one limb to
// past the 64-limb stack scratch, operands of every size below m (and
// negative or >= m ones, which are reduced first), checked by a*inv = 1.
TEST(BigInt, ModInverseOddModuliRandomized) {
  Rng rng(0x696e76);
  for (int iter = 0; iter < 300; ++iter) {
    const int bits = iter == 0 ? 4200 : 2 + static_cast<int>(rng.uniform(1100));
    BigInt m = BigInt::random_bits(rng, bits);
    if (!m.is_odd()) m += BigInt{1};
    BigInt a = BigInt::random_bits(rng, 1 + static_cast<int>(rng.uniform(
                                            static_cast<std::uint64_t>(bits + 70))));
    if (iter % 5 == 0) a = -a;
    if (BigInt::gcd(a, m) != BigInt{1}) {
      EXPECT_THROW((void)a.mod_inverse(m), std::domain_error) << iter;
      continue;
    }
    const BigInt inv = a.mod_inverse(m);
    ASSERT_GE(inv, BigInt{0});
    ASSERT_LT(inv, m);
    ASSERT_EQ((a * inv).mod(m), BigInt{1}.mod(m)) << "iter=" << iter;
  }
  // A shared odd factor, a power of two against an odd modulus, m = 1.
  const BigInt p = bi("340282366920938463463374607431768211507");
  const BigInt q = bi("18446744073709551557");
  EXPECT_THROW((void)(p * BigInt{3}).mod_inverse(p * q), std::domain_error);
  const BigInt two_k = BigInt{1} << 300;
  EXPECT_EQ((two_k * two_k.mod_inverse(p * q)).mod(p * q), BigInt{1});
  EXPECT_EQ(BigInt{5}.mod_inverse(BigInt{1}), BigInt{0});
}

TEST(BigInt, BatchModInverseMatchesSingleInverses) {
  // Composite modulus, as in Shoup's RSA combine; unreduced and negative
  // inputs are inverted as their residues.
  const BigInt m = bi("1000000007") * bi("998244353");
  Rng rng(56);
  std::vector<BigInt> vals;
  for (int i = 0; i < 7; ++i) {
    vals.push_back(BigInt{1} + BigInt::random_below(rng, m - BigInt{1}));
  }
  vals.push_back(m + BigInt{3});
  vals.push_back(BigInt{-5});
  const std::vector<BigInt> inv = BigInt::batch_mod_inverse(vals, m);
  ASSERT_EQ(inv.size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(inv[i], vals[i].mod_inverse(m)) << i;
  }
  EXPECT_TRUE(BigInt::batch_mod_inverse({}, m).empty());
}

TEST(BigInt, BatchModInverseNotInvertibleThrows) {
  const BigInt p = bi("1000000007");
  const BigInt m = p * bi("998244353");
  EXPECT_THROW((void)BigInt::batch_mod_inverse({BigInt{3}, p, BigInt{5}}, m),
               std::domain_error);
  EXPECT_THROW((void)BigInt::batch_mod_inverse({BigInt{0}}, m),
               std::domain_error);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}), BigInt{6});
  EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}), BigInt{6});
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}), BigInt{5});
  EXPECT_EQ(BigInt::gcd(bi("123456789012345678901234567890"), BigInt{0}),
            bi("123456789012345678901234567890"));
}

TEST(BigInt, BytesRoundTrip) {
  const BigInt v = bi("0xdeadbeefcafebabe0123456789");
  EXPECT_EQ(BigInt::from_bytes(v.to_bytes()), v);
  EXPECT_TRUE(BigInt{0}.to_bytes().empty());
  EXPECT_EQ(BigInt::from_bytes(Bytes{}), BigInt{0});
}

TEST(BigInt, BytesPadded) {
  const Bytes b = BigInt{258}.to_bytes_padded(4);
  EXPECT_EQ(b, (Bytes{0, 0, 1, 2}));
  EXPECT_THROW(bi("100000000000").to_bytes_padded(2), std::logic_error);
  EXPECT_THROW(BigInt{-1}.to_bytes(), std::logic_error);
}

TEST(BigInt, BytesLeadingZerosStripped) {
  const Bytes raw{0, 0, 1, 2};
  EXPECT_EQ(BigInt::from_bytes(raw).to_bytes(), (Bytes{1, 2}));
}

TEST(BigInt, ToU64) {
  EXPECT_EQ(BigInt{0}.to_u64(), 0u);
  EXPECT_EQ(bi("18446744073709551615").to_u64(), UINT64_MAX);
  EXPECT_THROW((void)bi("18446744073709551616").to_u64(), std::overflow_error);
  EXPECT_THROW((void)BigInt{-1}.to_u64(), std::overflow_error);
}

TEST(BigInt, SerdeRoundTrip) {
  for (const char* s : {"0", "-12345678901234567890", "0xffffffffffffffff"}) {
    Writer w;
    bi(s).write(w);
    Reader r(w.data());
    EXPECT_EQ(BigInt::read(r), bi(s));
    r.expect_end();
  }
}

TEST(BigInt, RandomBelowInRange) {
  Rng rng(77);
  const BigInt bound = bi("1000000000000000000000");
  for (int i = 0; i < 100; ++i) {
    const BigInt v = BigInt::random_below(rng, bound);
    EXPECT_GE(v, BigInt{0});
    EXPECT_LT(v, bound);
  }
}

TEST(BigInt, RandomBitsExactWidth) {
  Rng rng(88);
  for (int bits : {1, 8, 9, 31, 32, 33, 160, 512}) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(BigInt::random_bits(rng, bits).bit_length(), bits);
    }
  }
}

TEST(BigInt, ArithmeticIdentitiesRandomized) {
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const BigInt a = BigInt::random_bits(rng, 1 + static_cast<int>(rng.uniform(256)));
    const BigInt b = BigInt::random_bits(rng, 1 + static_cast<int>(rng.uniform(256)));
    EXPECT_EQ(a + b - b, a);
    EXPECT_EQ((a * b) / b, a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * (a - b), a * a - b * b);
  }
}

}  // namespace
}  // namespace sintra::bignum
