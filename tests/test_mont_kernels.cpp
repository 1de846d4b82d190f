// Montgomery kernels: each set on carry-edge vectors, against the
// portable loops on random operands, and through the whole Montgomery
// context via the exchange hook (mont_kernels.hpp).
//
// Setting SINTRA_TEST_MONT_KERNELS=portable (or =mulx_adx) runs the whole
// test binary on that set; ctest's BignumCryptoPortableKernels entry uses
// it to run the bignum/crypto suites on the portable kernels, the path a
// CPU without ADX takes.

#include "bignum/mont_kernels.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "bignum/bigint.hpp"
#include "bignum/montgomery.hpp"
#include "mont_kernel_fixture.hpp"
#include "util/rng.hpp"

namespace sintra::bignum {
namespace {

using mont_kernels::KernelSet;
using Limb = std::uint64_t;
using Limbs = std::vector<Limb>;

class ForcedKernelsEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* name = std::getenv("SINTRA_TEST_MONT_KERNELS");
    if (name == nullptr || *name == '\0') return;
    const KernelSet* set = std::string_view(name) == "portable"
                               ? &mont_kernels::portable_kernels()
                               : mont_kernels::adx_kernels();
    ASSERT_NE(set, nullptr) << "kernel set '" << name
                            << "' is not available on this CPU";
    ASSERT_EQ(std::string_view(set->name), name);
    saved_ = mont_kernels::exchange_montgomery_kernels(set);
  }
  void TearDown() override {
    if (saved_ != nullptr) mont_kernels::exchange_montgomery_kernels(saved_);
  }

 private:
  const KernelSet* saved_ = nullptr;
};

[[maybe_unused]] ::testing::Environment* const kForcedKernels =
    ::testing::AddGlobalTestEnvironment(new ForcedKernelsEnvironment);

Limbs limbs_of(const BigInt& v, std::size_t n) {
  Limbs l = v.limbs();
  l.resize(n, 0);
  return l;
}

BigInt value_of(const Limbs& l) { return BigInt::from_limbs(l); }

// The set's kernels at width n, as callables over limb vectors.
Limbs kernel_mul(const KernelSet& set, const Limbs& a, const Limbs& b,
                 const Limbs& m, Limb m0inv) {
  Limbs out(m.size());
  (m.size() == 8 ? set.mul8 : set.mul16)(out.data(), a.data(), b.data(),
                                          m.data(), m0inv);
  return out;
}

Limbs kernel_sqr(const KernelSet& set, const Limbs& a, const Limbs& m,
                 Limb m0inv) {
  Limbs out(m.size());
  (m.size() == 8 ? set.sqr8 : set.sqr16)(out.data(), a.data(), m.data(),
                                          m0inv);
  return out;
}

Limb neg_inv64(Limb x) {
  Limb y = x;
  for (int i = 0; i < 5; ++i) y *= 2 - x * y;
  return Limb{0} - y;
}

// out is a*b*R^-1 mod m exactly when out < m and out*R = a*b (mod m).
void expect_mont_product(const Limbs& out, const BigInt& a, const BigInt& b,
                         const BigInt& m, const char* what) {
  const BigInt o = value_of(out);
  const auto n = static_cast<int>(out.size());
  ASSERT_LT(o, m) << what << ": not fully reduced";
  ASSERT_EQ((o << (64 * n)).mod(m), (a * b).mod(m))
      << what << ": a=" << a.to_hex() << " b=" << b.to_hex()
      << " m=" << m.to_hex();
}

// Moduli on the carry edges at width n: all-ones limbs, 2^(64n) minus a
// small odd number, a single top bit, a lone low limb under all-ones
// limbs, and a short top limb.
std::vector<BigInt> edge_moduli(int n) {
  const BigInt r = BigInt{1} << (64 * n);
  return {r - BigInt{1},
          r - BigInt{3},
          r - BigInt{129},
          r - (BigInt{1} << 64) + BigInt{1},
          (BigInt{1} << (64 * n - 1)) + BigInt{1},
          (BigInt{1} << (64 * (n - 1))) + BigInt{1},
          ((BigInt{1} << (64 * (n - 1))) << 1) - BigInt{1}};
}

std::vector<BigInt> edge_operands(const BigInt& m, int n) {
  const BigInt r = BigInt{1} << (64 * n);
  std::vector<BigInt> ops = {BigInt{0},
                             BigInt{1},
                             BigInt{2},
                             m - BigInt{1},
                             m - BigInt{2},
                             (m - BigInt{1}) >> 1,
                             r.mod(m),  // Montgomery form of 1
                             (BigInt{1} << (64 * (n - 1))) - BigInt{1},
                             BigInt{-1}.mod(BigInt{1} << 64)};
  for (auto& v : ops) v = v.mod(m);
  return ops;
}

TEST_P(MontKernelSet, CarryEdgeVectors) {
  for (const int n : {8, 16}) {
    const auto un = static_cast<std::size_t>(n);
    for (const BigInt& m : edge_moduli(n)) {
      const Limbs ml = limbs_of(m, un);
      ASSERT_EQ(m.limbs().size(), un);
      const Limb m0inv = neg_inv64(ml[0]);
      const auto ops = edge_operands(m, n);
      for (const BigInt& a : ops) {
        const Limbs al = limbs_of(a, un);
        const Limbs sq = kernel_sqr(set(), al, ml, m0inv);
        expect_mont_product(sq, a, a, m, "sqr");
        // out aliasing a.
        Limbs x = al;
        (n == 8 ? set().sqr8 : set().sqr16)(x.data(), x.data(), ml.data(),
                                            m0inv);
        ASSERT_EQ(x, sq) << "sqr with out == a";
        for (const BigInt& b : ops) {
          const Limbs bl = limbs_of(b, un);
          const Limbs p = kernel_mul(set(), al, bl, ml, m0inv);
          expect_mont_product(p, a, b, m, "mul");
          const auto mul = n == 8 ? set().mul8 : set().mul16;
          Limbs oa = al;  // out aliasing a
          mul(oa.data(), oa.data(), bl.data(), ml.data(), m0inv);
          ASSERT_EQ(oa, p) << "mul with out == a";
          Limbs ob = bl;  // out aliasing b
          mul(ob.data(), al.data(), ob.data(), ml.data(), m0inv);
          ASSERT_EQ(ob, p) << "mul with out == b";
        }
        // out aliasing both inputs: a*a through mul equals sqr.
        Limbs ab = al;
        (n == 8 ? set().mul8 : set().mul16)(ab.data(), ab.data(), ab.data(),
                                            ml.data(), m0inv);
        ASSERT_EQ(ab, sq) << "mul with out == a == b";
      }
    }
  }
}

TEST_P(MontKernelSet, RandomizedMatchesPortable) {
  const KernelSet& portable = mont_kernels::portable_kernels();
  Rng rng(0x6d6f6e74);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t n = iter % 2 == 0 ? 8 : 16;
    // Half full-width moduli (RSA-like), half with a shorter top limb.
    const int short_by = iter % 4 < 2 ? 0 : 1 + static_cast<int>(rng.uniform(63));
    BigInt m = BigInt::random_bits(rng, static_cast<int>(64 * n) - short_by);
    if (!m.is_odd()) m += BigInt{1};
    const Limbs ml = limbs_of(m, n);
    const Limb m0inv = neg_inv64(ml[0]);
    const BigInt a = BigInt::random_below(rng, m);
    const BigInt b = BigInt::random_below(rng, m);
    const Limbs al = limbs_of(a, n);
    const Limbs bl = limbs_of(b, n);
    const Limbs p = kernel_mul(set(), al, bl, ml, m0inv);
    ASSERT_EQ(p, kernel_mul(portable, al, bl, ml, m0inv)) << "iter=" << iter;
    const Limbs s = kernel_sqr(set(), al, ml, m0inv);
    ASSERT_EQ(s, kernel_sqr(portable, al, ml, m0inv)) << "iter=" << iter;
    if (iter % 64 == 0) {
      expect_mont_product(p, a, b, m, "mul");
      expect_mont_product(s, a, a, m, "sqr");
    }
  }
}

// The 1024-bit vector of BignumDiff.Modexp1024BitVector and a 512-bit
// one, through Montgomery::pow on the active set.
TEST_P(MontKernelSet, ModexpMatchesPlainArithmetic) {
  Rng rng(0xd1ff69);
  for (const std::size_t bytes : {64u, 128u}) {
    Bytes mb = rng.bytes(bytes);
    mb.back() |= 1;
    mb.front() |= 0x80;
    const BigInt m = BigInt::from_bytes(mb);
    const BigInt base = BigInt::from_bytes(rng.bytes(bytes));
    const BigInt e = BigInt::from_bytes(rng.bytes(bytes));
    const Montgomery mont(m);
    // Left-to-right binary ladder in plain BigInt arithmetic.
    BigInt want{1};
    const BigInt b = base.mod(m);
    for (int i = e.bit_length() - 1; i >= 0; --i) {
      want = (want * want).mod(m);
      if (e.bit(i)) want = (want * b).mod(m);
    }
    EXPECT_EQ(mont.pow(base, e), want) << bytes * 8 << "-bit modulus";
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, MontKernelSet,
                         ::testing::Values(false, true), mont_kernel_set_name);

// Work units are charged by Montgomery, not by the kernels, so every
// entry point charges the same under either set (and returns the same
// value).
TEST(MontKernels, WorkCounterIdenticalAcrossSets) {
  const KernelSet* adx = mont_kernels::adx_kernels();
  if (adx == nullptr) GTEST_SKIP() << "this CPU (or build) lacks BMI2 + ADX";
  auto run = [](const KernelSet* set) {
    const KernelSet* saved = mont_kernels::exchange_montgomery_kernels(set);
    Rng rng(0x776f726b);
    std::vector<BigInt> results;
    std::vector<std::uint64_t> work;
    for (const int bits : {512, 1024}) {
      BigInt m = BigInt::random_bits(rng, bits);
      if (!m.is_odd()) m += BigInt{1};
      const Montgomery mont(m);
      const BigInt a = BigInt::random_below(rng, m);
      const BigInt b = BigInt::random_below(rng, m);
      const BigInt ea = BigInt::random_bits(rng, bits);
      const BigInt eb = BigInt::random_bits(rng, 160);
      reset_work_counter();
      results.push_back(mont.pow(a, ea));
      results.push_back(mont.mul(a, b));
      results.push_back(mont.mul_pow(a, ea, b, eb));
      results.push_back(mont.multi_pow({{a, eb}, {b, ea}, {a, ea}}));
      const FixedBaseTable table = mont.precompute(b, 160);
      results.push_back(mont.pow(table, eb));
      results.push_back(mont.mul_pow(table, eb, a, ea));
      work.push_back(work_counter());
    }
    mont_kernels::exchange_montgomery_kernels(saved);
    return std::pair{results, work};
  };
  const auto [portable_results, portable_work] =
      run(&mont_kernels::portable_kernels());
  const auto [adx_results, adx_work] = run(adx);
  EXPECT_EQ(adx_results, portable_results);
  EXPECT_EQ(adx_work, portable_work);
  EXPECT_GT(portable_work[0], 0u);
}

}  // namespace
}  // namespace sintra::bignum
