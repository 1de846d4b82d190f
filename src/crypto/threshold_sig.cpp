#include "crypto/threshold_sig.hpp"

#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "bignum/montgomery.hpp"
#include "crypto/cost.hpp"
#include "crypto/shamir.hpp"
#include "crypto/work_pool.hpp"

namespace sintra::crypto {

namespace {

// Upper bound on the response z = s_i*c + r: the share is below the secret
// modulus m < N, c spans one hash output, and r spans bits(N) + two hash
// outputs; the margin absorbs the carries.
int z_exp_bits(const RsaThresholdPublic& pub) {
  return pub.modulus.bit_length() +
         2 * static_cast<int>(hash_digest_size(pub.hash)) * 8 + 16;
}

int challenge_bits(const RsaThresholdPublic& pub) {
  return static_cast<int>(hash_digest_size(pub.hash)) * 8;
}

}  // namespace

/// Precomputation shared by sign/verify/combine on one scheme handle.  The
/// comb tables perform real multiplications when built, so they carry the
/// global cache epoch: a new simulator run drops them and pays the build
/// again, keeping virtual timings reproducible (see crypto/cost.hpp).
///
/// Concurrency: verify_share builds whatever it needs under `mu` and then
/// computes lock-free against an immutable snapshot, so the work pool can
/// verify k shares on k cores during fallback.  The epoch-guarded tables
/// live behind a shared_ptr that is *replaced* (never mutated in place) on
/// epoch change; built entries are write-once under `mu`, so a reader that
/// saw an entry built can keep using it without the lock.
struct RsaThresholdScheme::FastPath {
  struct Signer {
    BigInt vi_inv;                        // v_i^{-1} mod N
    bignum::FixedBaseTable vi_inv_table;  // comb over one hash output
    bool ready = false;
  };

  struct Tables {
    bignum::FixedBaseTable v_table;  // comb for v over full-width responses
    std::vector<Signer> signers;
  };

  std::mutex mu;
  std::uint64_t epoch = 0;  // 0 never matches a live epoch
  // The Montgomery context costs no counted work to build; it persists
  // across epochs and only the charged tables are epoch-guarded.  It is
  // immutable once built and therefore safe to read without the lock.
  std::optional<bignum::Montgomery> mont;
  std::shared_ptr<Tables> tables;
  int window_bits = 4;

  const bignum::Montgomery& refreshed(const RsaThresholdPublic& pub) {
    const std::uint64_t now = cache_epoch();
    if (epoch != now || !tables) {
      auto fresh = std::make_shared<Tables>();
      fresh->signers.assign(static_cast<std::size_t>(pub.n), {});
      tables = std::move(fresh);  // old snapshot stays alive via readers
      epoch = now;
    }
    if (!mont) {
      mont.emplace(pub.modulus);
      // Widest window whose projected per-handle total (one response-wide
      // v table + n challenge-wide v_i^{-1} tables) fits the comb budget:
      // 4 at the paper's n=4, narrower as n or the modulus grows.
      const int mod_bits = pub.modulus.bit_length();
      for (window_bits = 4; window_bits > 2; --window_bits) {
        const std::size_t total =
            bignum::comb_table_bytes(z_exp_bits(pub), mod_bits, window_bits) +
            static_cast<std::size_t>(pub.n) *
                bignum::comb_table_bytes(challenge_bits(pub), mod_bits,
                                         window_bits);
        if (total <= bignum::kCombMemoryBudgetBytes) break;
      }
    }
    return *mont;
  }

  const bignum::FixedBaseTable& v_comb(const RsaThresholdPublic& pub) {
    if (!tables->v_table.valid())
      tables->v_table = mont->precompute(pub.v, z_exp_bits(pub), window_bits);
    return tables->v_table;
  }

  const Signer& signer_comb(const RsaThresholdPublic& pub, int signer) {
    Signer& s = tables->signers[static_cast<std::size_t>(signer)];
    if (!s.ready) {
      s.vi_inv = pub.vi[static_cast<std::size_t>(signer)].mod_inverse(
          pub.modulus);
      s.vi_inv_table =
          mont->precompute(s.vi_inv, challenge_bits(pub), window_bits);
      s.ready = true;
    }
    return s;
  }
};

namespace {

// Fiat–Shamir challenge for the share-correctness proof: maps the proof
// transcript to an integer of hash-output length.
BigInt share_challenge(const RsaThresholdPublic& pub, const BigInt& x_tilde,
                       const BigInt& vi, const BigInt& xi2, const BigInt& vp,
                       const BigInt& xp) {
  Writer w;
  pub.v.write(w);
  x_tilde.write(w);
  vi.write(w);
  xi2.write(w);
  vp.write(w);
  xp.write(w);
  return BigInt::from_bytes(hash_bytes(pub.hash, w.data()));
}

struct ParsedShare {
  BigInt xi;
  BigInt c;
  BigInt z;
};

ParsedShare parse_share(BytesView share) {
  Reader r(share);
  ParsedShare out;
  out.xi = BigInt::read(r);
  out.c = BigInt::read(r);
  out.z = BigInt::read(r);
  r.expect_end();
  return out;
}

}  // namespace

std::optional<ThresholdSigScheme::CheckedSignature>
ThresholdSigScheme::combine_checked(
    BytesView msg, const std::vector<std::pair<int, Bytes>>& shares,
    WorkPool* wp) const {
  // Working pool: first-come order, one share per signer, blacklisted
  // signers skipped up front.
  std::vector<const std::pair<int, Bytes>*> pool;
  std::set<int> seen;
  pool.reserve(shares.size());
  for (const auto& share : shares) {
    const int idx = share.first;
    if (idx < 0 || idx >= n() || is_blacklisted(idx)) continue;
    if (!seen.insert(idx).second) continue;
    pool.push_back(&share);
  }

  bool first_attempt = true;
  while (static_cast<int>(pool.size()) >= k()) {
    std::vector<std::pair<int, Bytes>> chosen;
    chosen.reserve(static_cast<std::size_t>(k()));
    for (int j = 0; j < k(); ++j) chosen.push_back(*pool[static_cast<std::size_t>(j)]);

    Bytes sig;
    bool ok = false;
    try {
      sig = combine(msg, chosen);
      ok = verify(msg, sig);
    } catch (const std::exception&) {
      ok = false;  // malformed share bytes surface as parse errors here
    }
    if (ok) {
      if (first_attempt) count_optimistic_hit("threshold_sig");
      CheckedSignature out;
      out.sig = std::move(sig);
      out.used.reserve(chosen.size());
      for (const auto& [idx, raw] : chosen) out.used.push_back(idx);
      return out;
    }

    // Fallback: find the offenders among the chosen shares, remember them,
    // and retry with replacements.
    first_attempt = false;
    count_fallback("threshold_sig");
    std::set<int> dropped;
    if (wp != nullptr && !wp->inline_mode() && chosen.size() > 1) {
      // k independent verifications across cores; verdicts land in
      // per-share slots, so the blacklist outcome matches the serial loop.
      std::vector<char> good(chosen.size(), 0);
      std::vector<std::function<void()>> jobs;
      jobs.reserve(chosen.size());
      for (std::size_t j = 0; j < chosen.size(); ++j) {
        jobs.push_back([this, msg, j, &chosen, &good] {
          good[j] = verify_share(msg, chosen[j].first, chosen[j].second)
                        ? 1
                        : 0;
        });
      }
      wp->run_parallel(jobs);
      count_parallel_verify("threshold_sig", chosen.size());
      for (std::size_t j = 0; j < chosen.size(); ++j) {
        if (good[j] == 0) {
          blacklist_.add(chosen[j].first);
          dropped.insert(chosen[j].first);
        }
      }
    } else {
      for (const auto& [idx, raw] : chosen) {
        if (!verify_share(msg, idx, raw)) {
          blacklist_.add(idx);
          dropped.insert(idx);
        }
      }
    }
    if (dropped.empty()) {
      // Every chosen share verifies individually yet the combination fails
      // its check — not attributable to a signer (e.g. inconsistent dealer
      // data).  Give up instead of retrying the same set forever.
      return std::nullopt;
    }
    std::erase_if(pool, [&dropped](const std::pair<int, Bytes>* s) {
      return dropped.count(s->first) != 0;
    });
  }
  return std::nullopt;
}

RsaThresholdScheme::RsaThresholdScheme(
    std::shared_ptr<const RsaThresholdPublic> pub, int index, BigInt share,
    std::uint64_t prover_seed)
    : pub_(std::move(pub)),
      verifier_(RsaPublicKey{pub_->modulus, pub_->e}),
      index_(index),
      share_(std::move(share)),
      prover_rng_(prover_seed),
      fast_(std::make_unique<FastPath>()) {}

RsaThresholdScheme::~RsaThresholdScheme() = default;

Bytes RsaThresholdScheme::sign_share(BytesView msg) {
  if (index_ < 0)
    throw std::logic_error("RsaThresholdScheme: verify-only handle");
  const OpScope ops("threshold_sig.sign_share");
  const std::lock_guard lk(fast_->mu);
  const bignum::Montgomery& mont = fast_->refreshed(*pub_);
  const BigInt x = rsa_fdh(msg, pub_->modulus, pub_->hash);
  const BigInt two_delta = pub_->delta << 1;
  const BigInt xi = mont.pow(x, two_delta * share_);

  // Proof of correctness (discrete-log equality between the verification
  // key pair (v, v_i) and (x~, x_i^2) with x~ = x^{4Δ}).
  const BigInt x_tilde = mont.pow(x, two_delta << 1);
  const BigInt xi2 = mont.mul(xi, xi);
  // r uniform in [0, 2^(bits(N) + 2*hash_bits)).
  const int rbits =
      pub_->modulus.bit_length() +
      2 * static_cast<int>(hash_digest_size(pub_->hash)) * 8;
  const BigInt r =
      BigInt::from_bytes(prover_rng_.bytes(static_cast<std::size_t>(rbits) / 8));
  const BigInt vp = mont.pow(fast_->v_comb(*pub_), r);
  const BigInt xp = mont.pow(x_tilde, r);
  const BigInt c = share_challenge(*pub_, x_tilde,
                                   pub_->vi[static_cast<std::size_t>(index_)],
                                   xi2, vp, xp);
  const BigInt z = share_ * c + r;

  Writer w;
  xi.write(w);
  c.write(w);
  z.write(w);
  return std::move(w).take();
}

bool RsaThresholdScheme::verify_share(BytesView msg, int signer,
                                      BytesView share) const {
  if (signer < 0 || signer >= pub_->n) return false;
  const OpScope ops("threshold_sig.verify_share");
  ParsedShare s;
  try {
    s = parse_share(share);
  } catch (const SerdeError&) {
    return false;
  }
  if (s.xi.is_negative() || s.xi >= pub_->modulus || s.xi.is_zero())
    return false;
  if (s.c.is_negative() || s.z.is_negative()) return false;

  // Ensure-build under the lock, compute lock-free against the snapshot:
  // concurrent verifications (the work-pool fallback) serialize only on
  // the cheap table lookups, never on the exponentiations.
  std::shared_ptr<const FastPath::Tables> tables;
  const bignum::Montgomery* mont = nullptr;
  const bignum::FixedBaseTable* v_table = nullptr;
  const FastPath::Signer* sg = nullptr;
  {
    const std::lock_guard lk(fast_->mu);
    mont = &fast_->refreshed(*pub_);
    v_table = &fast_->v_comb(*pub_);
    sg = &fast_->signer_comb(*pub_, signer);
    tables = fast_->tables;  // keeps v_table/sg alive across epoch swaps
  }
  const BigInt x = rsa_fdh(msg, pub_->modulus, pub_->hash);
  const BigInt x_tilde = mont->pow(x, pub_->delta << 2);
  const BigInt xi2 = mont->mul(s.xi, s.xi);
  const BigInt& vi = pub_->vi[static_cast<std::size_t>(signer)];

  // v' = v^z * v_i^{-c},  x' = x~^z * x_i^{-2c}.  The RSA group order is
  // unknown, so negative exponents cannot be folded into it; instead the
  // cached v_i^{-1} (and a per-share xi2^{-1}) turn both products into
  // simultaneous exponentiations with non-negative exponents.  The v/v_i
  // pair evaluates over comb tables with no squarings at all; honest
  // shares always fit the table widths, oversized adversarial exponents
  // take the slow fallback inside mul_pow.
  BigInt vp, xp;
  try {
    vp = mont->mul_pow(*v_table, s.z, sg->vi_inv_table, s.c);
    xp = mont->mul_pow(x_tilde, s.z, xi2.mod_inverse(pub_->modulus), s.c);
  } catch (const std::domain_error&) {
    return false;  // a non-invertible element would factor N; treat as bad
  }
  return share_challenge(*pub_, x_tilde, vi, xi2, vp, xp) == s.c;
}

Bytes RsaThresholdScheme::combine(
    BytesView msg, const std::vector<std::pair<int, Bytes>>& shares) const {
  const OpScope ops("threshold_sig.combine");
  if (static_cast<int>(shares.size()) < pub_->k)
    throw std::invalid_argument("RsaThresholdScheme::combine: need k shares");
  std::vector<int> indices;
  std::vector<BigInt> xs;
  std::set<int> seen;
  for (const auto& [idx, raw] : shares) {
    if (static_cast<int>(indices.size()) == pub_->k) break;
    if (idx < 0 || idx >= pub_->n || !seen.insert(idx).second)
      throw std::invalid_argument(
          "RsaThresholdScheme::combine: bad or duplicate signer index");
    indices.push_back(idx);
    xs.push_back(parse_share(raw).xi);
  }

  const std::lock_guard lk(fast_->mu);
  const bignum::Montgomery& mont = fast_->refreshed(*pub_);
  // w = prod x_j^{2λ_j} as one simultaneous multi-exponentiation.  The
  // integer coefficients are memoized per signer set; a negative 2λ_j is
  // handled by inverting the share once (the group order is unknown, so
  // the exponent itself cannot be reduced).
  const std::vector<BigInt> lambdas =
      lagrange_.integer_coeffs(pub_->delta, indices);
  std::vector<std::pair<BigInt, BigInt>> terms;
  terms.reserve(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const BigInt exp2 = lambdas[j] << 1;  // 2*lambda
    if (exp2.is_negative()) {
      terms.emplace_back(xs[j].mod_inverse(pub_->modulus), -exp2);
    } else {
      terms.emplace_back(xs[j], exp2);
    }
  }
  const BigInt w = mont.multi_pow(terms);
  // w^e == x^{4Δ²}.  With a·4Δ² + b·e = 1 and y = w^a·x^b we get
  // y^e = x^{4Δ²·a + e·b} = x.
  const BigInt x = rsa_fdh(msg, pub_->modulus, pub_->hash);
  const BigInt four_delta_sq = (pub_->delta * pub_->delta) << 2;
  const BigInt a = four_delta_sq.mod_inverse(pub_->e);
  const BigInt b = (BigInt{1} - a * four_delta_sq) / pub_->e;  // exact, <= 0
  const BigInt y =
      b.is_negative()
          ? mont.mul_pow(w, a, x.mod_inverse(pub_->modulus), -b)
          : mont.mul_pow(w, a, x, b);
  return y.to_bytes_padded(
      static_cast<std::size_t>(pub_->modulus.bit_length() + 7) / 8);
}

bool RsaThresholdScheme::verify(BytesView msg, BytesView sig) const {
  const OpScope ops("threshold_sig.verify");
  return verifier_.verify(msg, sig, pub_->hash, "threshold_sig.verify");
}

std::unique_ptr<RsaThresholdScheme> RsaThresholdDeal::make_party(int i) const {
  if (i < 0) {
    return std::make_unique<RsaThresholdScheme>(pub, -1, BigInt{0}, 0);
  }
  return std::make_unique<RsaThresholdScheme>(
      pub, i, shares[static_cast<std::size_t>(i)],
      0x7e51 + static_cast<std::uint64_t>(i));
}

RsaThresholdDeal deal_rsa_threshold_with_key(Rng& rng, int n, int k,
                                             const RsaKeyPair& key,
                                             HashKind hash) {
  if (n < 1 || k < 1 || k > n)
    throw std::invalid_argument("deal_rsa_threshold: need 1 <= k <= n");
  if (BigInt{n} >= key.pub.e)
    throw std::invalid_argument("deal_rsa_threshold: e must exceed n");
  const BigInt pprime = (key.p - BigInt{1}) >> 1;
  const BigInt qprime = (key.q - BigInt{1}) >> 1;
  const BigInt m = pprime * qprime;
  const BigInt d = key.pub.e.mod_inverse(m);

  const SecretPolynomial poly(rng, d, m, k);
  auto pub = std::make_shared<RsaThresholdPublic>();
  pub->n = n;
  pub->k = k;
  pub->modulus = key.pub.n;
  pub->e = key.pub.e;
  pub->delta = factorial(n);
  pub->hash = hash;
  // v = u^2 for random u: a generator of the squares w.h.p.
  const bignum::Montgomery mont(key.pub.n);
  const BigInt u =
      BigInt{2} + BigInt::random_below(rng, key.pub.n - BigInt{3});
  pub->v = mont.mul(u, u);

  RsaThresholdDeal deal;
  deal.shares = poly.shares(n);
  pub->vi.reserve(static_cast<std::size_t>(n));
  for (const BigInt& si : deal.shares) {
    pub->vi.push_back(mont.pow(pub->v, si));
  }
  deal.pub = std::move(pub);
  return deal;
}

RsaThresholdDeal deal_rsa_threshold(Rng& rng, int n, int k, int modulus_bits,
                                    HashKind hash) {
  const RsaKeyPair key =
      rsa_generate(rng, modulus_bits, /*safe_primes=*/true, BigInt{65537});
  return deal_rsa_threshold_with_key(rng, n, k, key, hash);
}

}  // namespace sintra::crypto
