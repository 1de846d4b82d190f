// Tests for both implementations of the ThresholdSigScheme interface:
// Shoup RSA threshold signatures and multi-signatures.  The parameterized
// suite runs every behavioural test against both, which is exactly the
// drop-in property the paper relies on (§2.1).
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "crypto/cost.hpp"
#include "crypto/dealer.hpp"
#include "crypto/multi_sig.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra::crypto {
namespace {

struct SchemeFixture {
  std::vector<std::shared_ptr<ThresholdSigScheme>> parties;
  int n;
  int k;
};

SchemeFixture make_shoup(int n, int k) {
  static std::map<std::pair<int, int>, RsaThresholdDeal> cache;
  auto it = cache.find({n, k});
  if (it == cache.end()) {
    Rng rng(0x515);
    it = cache.emplace(std::pair{n, k}, deal_rsa_threshold(rng, n, k, 512))
             .first;
  }
  SchemeFixture fx;
  fx.n = n;
  fx.k = k;
  for (int i = 0; i < n; ++i) fx.parties.push_back(it->second.make_party(i));
  return fx;
}

SchemeFixture make_multi(int n, int k) {
  static std::map<int, std::vector<RsaKeyPair>> keycache;
  auto it = keycache.find(n);
  if (it == keycache.end()) {
    std::vector<RsaKeyPair> keys;
    for (int i = 0; i < n; ++i) {
      Rng rng(0x600d + static_cast<std::uint64_t>(i));
      keys.push_back(rsa_generate(rng, 512));
    }
    it = keycache.emplace(n, std::move(keys)).first;
  }
  std::vector<RsaPublicKey> pubs;
  for (const auto& kp : it->second) pubs.push_back(kp.pub);
  auto pub = std::make_shared<const MultiSigPublic>(
      MultiSigPublic{n, k, pubs, HashKind::kSha256});
  SchemeFixture fx;
  fx.n = n;
  fx.k = k;
  for (int i = 0; i < n; ++i) {
    fx.parties.push_back(std::make_shared<MultiSigScheme>(
        pub, i, std::make_shared<const RsaKeyPair>(it->second[static_cast<std::size_t>(i)])));
  }
  return fx;
}

using Maker = std::function<SchemeFixture(int, int)>;

class ThresholdSigBoth : public ::testing::TestWithParam<const char*> {
 protected:
  SchemeFixture make(int n, int k) const {
    return std::string(GetParam()) == "shoup" ? make_shoup(n, k)
                                              : make_multi(n, k);
  }
};

TEST_P(ThresholdSigBoth, KSharesProduceValidSignature) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("pid.cb.0|echo|payload-hash");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < fx.k; ++i) {
    shares.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]->sign_share(msg));
  }
  const Bytes sig = fx.parties[3]->combine(msg, shares);
  for (const auto& p : fx.parties) EXPECT_TRUE(p->verify(msg, sig));
}

TEST_P(ThresholdSigBoth, AnyKSubsetWorks) {
  SchemeFixture fx = make(7, 5);
  const Bytes msg = to_bytes("message");
  std::vector<std::pair<int, Bytes>> all;
  for (int i = 0; i < fx.n; ++i) {
    all.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]->sign_share(msg));
  }
  // A few different 5-subsets.
  for (const auto& pick : std::vector<std::vector<int>>{
           {0, 1, 2, 3, 4}, {2, 3, 4, 5, 6}, {0, 2, 4, 5, 6}, {6, 4, 3, 1, 0}}) {
    std::vector<std::pair<int, Bytes>> subset;
    for (int i : pick) subset.push_back(all[static_cast<std::size_t>(i)]);
    const Bytes sig = fx.parties[0]->combine(msg, subset);
    EXPECT_TRUE(fx.parties[1]->verify(msg, sig));
  }
}

TEST_P(ThresholdSigBoth, SharesVerify) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("m");
  for (int i = 0; i < fx.n; ++i) {
    const Bytes share = fx.parties[static_cast<std::size_t>(i)]->sign_share(msg);
    for (int j = 0; j < fx.n; ++j) {
      EXPECT_TRUE(fx.parties[static_cast<std::size_t>(j)]->verify_share(msg, i, share));
    }
  }
}

TEST_P(ThresholdSigBoth, ShareFromWrongSignerRejected) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("m");
  const Bytes share = fx.parties[0]->sign_share(msg);
  EXPECT_FALSE(fx.parties[1]->verify_share(msg, 1, share));
  EXPECT_FALSE(fx.parties[1]->verify_share(msg, 2, share));
}

TEST_P(ThresholdSigBoth, ShareForWrongMessageRejected) {
  SchemeFixture fx = make(4, 3);
  const Bytes share = fx.parties[0]->sign_share(to_bytes("m1"));
  EXPECT_FALSE(fx.parties[1]->verify_share(to_bytes("m2"), 0, share));
}

TEST_P(ThresholdSigBoth, GarbageSharesRejected) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(fx.parties[0]->verify_share(msg, 1, Bytes{}));
  EXPECT_FALSE(fx.parties[0]->verify_share(msg, 1, Bytes(40, 0xcc)));
  EXPECT_FALSE(fx.parties[0]->verify_share(msg, -1, Bytes(40, 0xcc)));
  EXPECT_FALSE(fx.parties[0]->verify_share(msg, 99, Bytes(40, 0xcc)));
}

TEST_P(ThresholdSigBoth, TamperedShareRejected) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("m");
  Bytes share = fx.parties[2]->sign_share(msg);
  share[share.size() / 2] ^= 0x40;
  EXPECT_FALSE(fx.parties[0]->verify_share(msg, 2, share));
}

TEST_P(ThresholdSigBoth, CombineRequiresKShares) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("m");
  std::vector<std::pair<int, Bytes>> two;
  for (int i = 0; i < 2; ++i) {
    two.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]->sign_share(msg));
  }
  EXPECT_THROW((void)fx.parties[0]->combine(msg, two), std::invalid_argument);
}

TEST_P(ThresholdSigBoth, CombineRejectsDuplicateSigners) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("m");
  const Bytes s0 = fx.parties[0]->sign_share(msg);
  std::vector<std::pair<int, Bytes>> shares{{0, s0}, {0, s0}, {1, fx.parties[1]->sign_share(msg)}};
  EXPECT_THROW((void)fx.parties[0]->combine(msg, shares),
               std::invalid_argument);
}

TEST_P(ThresholdSigBoth, VerifyRejectsWrongMessage) {
  SchemeFixture fx = make(4, 3);
  const Bytes msg = to_bytes("m");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 3; ++i) {
    shares.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]->sign_share(msg));
  }
  const Bytes sig = fx.parties[0]->combine(msg, shares);
  EXPECT_FALSE(fx.parties[0]->verify(to_bytes("other"), sig));
}

TEST_P(ThresholdSigBoth, VerifyRejectsGarbage) {
  SchemeFixture fx = make(4, 3);
  EXPECT_FALSE(fx.parties[0]->verify(to_bytes("m"), Bytes{}));
  EXPECT_FALSE(fx.parties[0]->verify(to_bytes("m"), Bytes(64, 0xee)));
}

TEST_P(ThresholdSigBoth, MinimalGroup) {
  // n=1, k=1 degenerates to an ordinary signature.
  SchemeFixture fx = make(1, 1);
  const Bytes msg = to_bytes("solo");
  std::vector<std::pair<int, Bytes>> shares{{0, fx.parties[0]->sign_share(msg)}};
  EXPECT_TRUE(fx.parties[0]->verify(msg, fx.parties[0]->combine(msg, shares)));
}

INSTANTIATE_TEST_SUITE_P(Schemes, ThresholdSigBoth,
                         ::testing::Values("shoup", "multi"),
                         [](const auto& info) { return info.param; });

// --- Shoup-specific behaviours ---

TEST(RsaThreshold, ExtraSharesBeyondKIgnored) {
  SchemeFixture fx = make_shoup(4, 3);
  const Bytes msg = to_bytes("m");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 4; ++i) {
    shares.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]->sign_share(msg));
  }
  const Bytes sig = fx.parties[0]->combine(msg, shares);
  EXPECT_TRUE(fx.parties[0]->verify(msg, sig));
}

TEST(RsaThreshold, SignatureIsStandardRsa) {
  // The assembled signature must verify as a plain RSA-FDH signature under
  // (N, e) — this is what lets verifiers be oblivious to thresholding.
  Rng rng(0x7777);
  const RsaThresholdDeal deal = deal_rsa_threshold(rng, 4, 3, 512);
  auto p0 = deal.make_party(0);
  auto p1 = deal.make_party(1);
  auto p2 = deal.make_party(2);
  const Bytes msg = to_bytes("standard verification");
  std::vector<std::pair<int, Bytes>> shares{{0, p0->sign_share(msg)},
                                            {1, p1->sign_share(msg)},
                                            {2, p2->sign_share(msg)}};
  const Bytes sig = p0->combine(msg, shares);
  const RsaPublicKey pub{deal.pub->modulus, deal.pub->e};
  EXPECT_TRUE(rsa_verify(pub, msg, sig, deal.pub->hash));
}

TEST(RsaThreshold, VerifyOnlyHandleCannotSign) {
  Rng rng(0x8888);
  const RsaThresholdDeal deal = deal_rsa_threshold(rng, 4, 3, 512);
  auto external = deal.make_party(-1);
  EXPECT_THROW((void)external->sign_share(to_bytes("m")), std::logic_error);
  // But it can verify.
  auto p0 = deal.make_party(0);
  const Bytes share = p0->sign_share(to_bytes("m"));
  EXPECT_TRUE(external->verify_share(to_bytes("m"), 0, share));
}

TEST(RsaThreshold, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW((void)deal_rsa_threshold(rng, 4, 5, 256), std::invalid_argument);
  EXPECT_THROW((void)deal_rsa_threshold(rng, 0, 0, 256), std::invalid_argument);
}

// One safe-prime key for the Shoup tests that need the factorization.
const RsaKeyPair& shoup_key() {
  static const RsaKeyPair key = [] {
    Rng rng(0x1e55);
    return rsa_generate(rng, 512, /*safe_primes=*/true);
  }();
  return key;
}

TEST(RsaThreshold, CombineWorkUnitsPinnedAtN16) {
  // Signers {0..10} of n=16, k=11 carry five negative Lagrange
  // coefficients, and b < 0 needs x^{-1} as well.  Those inverses are plain
  // BigInt arithmetic, free in work-counter terms (DESIGN.md §6): only the
  // multi-exponentiation and the final simultaneous power are charged, so
  // the figure below moves only if the charged arithmetic does.
  Rng rng(0x16b);
  const RsaThresholdDeal deal =
      deal_rsa_threshold_with_key(rng, 16, 11, shoup_key());
  const Bytes msg = to_bytes("combine work pin");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 11; ++i) {
    shares.emplace_back(i, deal.make_party(i)->sign_share(msg));
  }
  const auto combiner = deal.make_party(0);
  const WorkMeter meter;
  const Bytes sig = combiner->combine(msg, shares);
  const std::uint64_t work = meter.elapsed();
  EXPECT_TRUE(combiner->verify(msg, sig));
  EXPECT_EQ(work, 111104u);  // multi_pow + mul_pow at 512 bits; inverses add 0
}

TEST(RsaThreshold, NonInvertibleShareThrowsAndIsBlacklisted) {
  // A share whose x_i is a prime factor of N has no inverse mod N.  At
  // position 1 of signers {0, 1, 2} its Lagrange coefficient is negative,
  // so combine must invert it and fails with std::domain_error; the
  // checked combine falls back, blacklists exactly that signer and still
  // returns a standard RSA signature.
  Rng rng(0x1f1);
  const RsaThresholdDeal deal =
      deal_rsa_threshold_with_key(rng, 4, 3, shoup_key());
  const Bytes msg = to_bytes("non-invertible share");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 4; ++i) {
    shares.emplace_back(i, deal.make_party(i)->sign_share(msg));
  }
  Writer w;
  shoup_key().p.write(w);  // x_i = p
  BigInt{0}.write(w);      // c
  BigInt{0}.write(w);      // z
  shares[1].second = std::move(w).take();

  const auto combiner = deal.make_party(3);
  const std::vector<std::pair<int, Bytes>> first3(shares.begin(),
                                                  shares.begin() + 3);
  EXPECT_THROW((void)combiner->combine(msg, first3), std::domain_error);
  EXPECT_FALSE(combiner->verify_share(msg, 1, shares[1].second));

  const auto out = combiner->combine_checked(msg, shares);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->used, (std::vector<int>{0, 2, 3}));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(combiner->is_blacklisted(i), i == 1);
  const RsaPublicKey pub{deal.pub->modulus, deal.pub->e};
  EXPECT_TRUE(rsa_verify(pub, msg, out->sig, deal.pub->hash));
}

}  // namespace
}  // namespace sintra::crypto
