#include "crypto/shamir.hpp"

#include <set>
#include <stdexcept>

namespace sintra::crypto {

SecretPolynomial::SecretPolynomial(Rng& rng, const BigInt& secret,
                                   const BigInt& modulus, int k)
    : modulus_(modulus) {
  if (k < 1) throw std::invalid_argument("SecretPolynomial: k < 1");
  coeffs_.reserve(static_cast<std::size_t>(k));
  coeffs_.push_back(secret.mod(modulus_));
  for (int i = 1; i < k; ++i) {
    coeffs_.push_back(BigInt::random_below(rng, modulus_));
  }
}

BigInt SecretPolynomial::share_for(int party_index) const {
  const BigInt x{party_index + 1};
  // Horner evaluation mod m.
  BigInt acc;
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    acc = (acc * x + coeffs_[i]).mod(modulus_);
  }
  return acc;
}

std::vector<BigInt> SecretPolynomial::shares(int n) const {
  std::vector<BigInt> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(share_for(i));
  return out;
}

namespace {
void check_distinct(const std::vector<int>& indices) {
  std::set<int> seen(indices.begin(), indices.end());
  if (seen.size() != indices.size())
    throw std::invalid_argument("lagrange: duplicate indices");
  for (int i : indices) {
    if (i < 0) throw std::invalid_argument("lagrange: negative index");
  }
}
}  // namespace

BigInt lagrange_coeff_zero(const std::vector<int>& indices, int j,
                           const BigInt& q) {
  check_distinct(indices);
  const BigInt xj{indices[static_cast<std::size_t>(j)] + 1};
  BigInt num{1}, den{1};
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (static_cast<int>(i) == j) continue;
    const BigInt xi{indices[i] + 1};
    num = (num * xi).mod(q);
    den = (den * (xi - xj)).mod(q);
  }
  return (num * den.mod(q).mod_inverse(q)).mod(q);
}

BigInt lagrange_zero(const std::vector<SharePoint>& points, const BigInt& q) {
  std::vector<int> indices;
  indices.reserve(points.size());
  for (const auto& p : points) indices.push_back(p.index);
  BigInt acc;
  for (std::size_t j = 0; j < points.size(); ++j) {
    const BigInt lambda =
        lagrange_coeff_zero(indices, static_cast<int>(j), q);
    acc = (acc + lambda * points[j].value).mod(q);
  }
  return acc;
}

BigInt factorial(int n) {
  BigInt out{1};
  for (int i = 2; i <= n; ++i) out *= BigInt{i};
  return out;
}

BigInt integer_lagrange_coeff(const BigInt& delta,
                              const std::vector<int>& indices, int j) {
  check_distinct(indices);
  const BigInt xj{indices[static_cast<std::size_t>(j)] + 1};
  BigInt num = delta;
  BigInt den{1};
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (static_cast<int>(i) == j) continue;
    const BigInt xi{indices[i] + 1};
    num *= xi;          // (0 - x_i) contributes sign below
    den *= (xi - xj);   // (x_i - x_j) — note: matches (0-x_i)/(x_j-x_i) up to
                        // a shared (-1)^{k-1} that cancels between num/den
  }
  // num/den = delta * prod x_i / prod (x_i - x_j)
  //         = delta * prod (0 - x_i) / prod (x_j - x_i)   (signs cancel)
  const auto [quot, rem] = BigInt::div_mod(num, den);
  if (!rem.is_zero())
    throw std::logic_error(
        "integer_lagrange_coeff: delta does not clear denominators");
  return quot;
}

namespace {
// Key covers the scale and the first `len` indices *in order*: prefixes of
// a request are themselves valid keys, which is what longest-prefix
// extension looks up.
std::string cache_key(const char* tag, const BigInt& scale,
                      const std::vector<int>& indices, std::size_t len) {
  std::string key = tag;
  key += scale.to_hex();
  for (std::size_t i = 0; i < len; ++i) {
    key += ',';
    key += std::to_string(indices[i]);
  }
  return key;
}

// All field Lagrange coefficients at zero for `indices`, from scratch with
// one batched inversion.  Value-identical to calling lagrange_coeff_zero
// per j (same field elements, canonically reduced).
std::vector<BigInt> full_field_coeffs(const std::vector<int>& indices,
                                      const BigInt& q) {
  const std::size_t k = indices.size();
  std::vector<BigInt> nums(k), dens(k);
  for (std::size_t j = 0; j < k; ++j) {
    const BigInt xj{indices[j] + 1};
    BigInt num{1}, den{1};
    for (std::size_t i = 0; i < k; ++i) {
      if (i == j) continue;
      const BigInt xi{indices[i] + 1};
      num = (num * xi).mod(q);
      den = (den * (xi - xj)).mod(q);
    }
    nums[j] = std::move(num);
    dens[j] = den.mod(q);
  }
  std::vector<BigInt> coeffs(k);
  if (k == 1) {
    coeffs[0] = BigInt{1}.mod(q);
    return coeffs;
  }
  const std::vector<BigInt> inv = BigInt::batch_mod_inverse(dens, q);
  for (std::size_t j = 0; j < k; ++j) {
    coeffs[j] = (nums[j] * inv[j]).mod(q);
  }
  return coeffs;
}

// Extends field coefficients for indices[0..len-1) by the point at
// position len-1: λ'_j = λ_j · x · (x − x_j)^{-1}, and the new point's own
// coefficient from the same batch of inverses.  One mod_inverse total.
bool extend_field_coeffs(std::vector<BigInt>& coeffs,
                         const std::vector<int>& indices, std::size_t new_len,
                         const BigInt& q) {
  const std::size_t m = new_len - 1;  // old size
  const BigInt x{indices[m] + 1};
  std::vector<BigInt> diffs(m);  // (x − x_j) mod q, nonzero: indices distinct
  for (std::size_t j = 0; j < m; ++j) {
    diffs[j] = (x - BigInt{indices[j] + 1}).mod(q);
    if (diffs[j].is_zero()) return false;
  }
  const std::vector<BigInt> inv = BigInt::batch_mod_inverse(diffs, q);
  BigInt prod_x{1};    // Π x_i over the old set
  BigInt prod_inv{1};  // Π (x − x_i)^{-1} over the old set
  for (std::size_t j = 0; j < m; ++j) {
    coeffs[j] = ((coeffs[j] * x).mod(q) * inv[j]).mod(q);
    prod_x = (prod_x * BigInt{indices[j] + 1}).mod(q);
    prod_inv = (prod_inv * inv[j]).mod(q);
  }
  // λ_x = Π x_i / Π (x_i − x); each (x_i − x) = −(x − x_i) flips sign.
  BigInt lam = (prod_x * prod_inv).mod(q);
  if (m % 2 == 1) lam = (q - lam).mod(q);
  coeffs.push_back(std::move(lam));
  return true;
}

// Extends integer (Shoup) coefficients by the point at position len-1:
// c'_j = c_j · x / (x − x_j), exact for any subset under Δ = n!.  Returns
// false (caller recomputes) if a division is inexact — that only happens
// when Δ was not n! for these indices, and the from-scratch path then
// raises the same logic_error the non-incremental code did.
bool extend_integer_coeffs(std::vector<BigInt>& coeffs, const BigInt& delta,
                           const std::vector<int>& indices,
                           std::size_t new_len) {
  const std::size_t m = new_len - 1;
  const BigInt x{indices[m] + 1};
  for (std::size_t j = 0; j < m; ++j) {
    const BigInt den = x - BigInt{indices[j] + 1};
    const auto [quot, rem] = BigInt::div_mod(coeffs[j] * x, den);
    if (!rem.is_zero()) return false;
    coeffs[j] = quot;
  }
  std::vector<int> prefix(indices.begin(),
                          indices.begin() + static_cast<std::ptrdiff_t>(new_len));
  coeffs.push_back(
      integer_lagrange_coeff(delta, prefix, static_cast<int>(m)));
  return true;
}
}  // namespace

void LagrangeCache::insert_locked(std::string key,
                                  std::vector<BigInt> coeffs) {
  if (entries_.size() >= kMaxEntries) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    entries_.erase(victim);
  }
  entries_.emplace(std::move(key),
                   Entry{std::move(coeffs), ++use_clock_});
}

std::vector<BigInt> LagrangeCache::lookup(
    const char* tag, const BigInt& scale, const std::vector<int>& indices,
    const std::function<std::vector<BigInt>()>& compute,
    const std::function<bool(std::vector<BigInt>&, std::size_t)>& extend) {
  std::string key = cache_key(tag, scale, indices, indices.size());
  const std::lock_guard lk(mu_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    it->second.last_use = ++use_clock_;
    ++stats_.hits;
    return it->second.coeffs;
  }
  // Longest cached prefix, extended one appended point at a time.
  for (std::size_t len = indices.size(); len-- > 1;) {
    auto it = entries_.find(cache_key(tag, scale, indices, len));
    if (it == entries_.end()) continue;
    it->second.last_use = ++use_clock_;
    std::vector<BigInt> coeffs = it->second.coeffs;
    bool ok = true;
    for (std::size_t grow = len + 1; ok && grow <= indices.size(); ++grow) {
      ok = extend(coeffs, grow);
    }
    if (!ok) break;  // fall through to the from-scratch path
    ++stats_.prefix_extends;
    insert_locked(std::move(key), coeffs);
    return coeffs;
  }
  ++stats_.full_computes;
  std::vector<BigInt> coeffs = compute();
  insert_locked(std::move(key), coeffs);
  return coeffs;
}

std::vector<BigInt> LagrangeCache::coeffs_zero(const std::vector<int>& indices,
                                               const BigInt& q) {
  check_distinct(indices);
  return lookup(
      "q:", q, indices, [&] { return full_field_coeffs(indices, q); },
      [&](std::vector<BigInt>& coeffs, std::size_t new_len) {
        return extend_field_coeffs(coeffs, indices, new_len, q);
      });
}

std::vector<BigInt> LagrangeCache::integer_coeffs(
    const BigInt& delta, const std::vector<int>& indices) {
  check_distinct(indices);
  return lookup(
      "d:", delta, indices,
      [&] {
        std::vector<BigInt> coeffs;
        coeffs.reserve(indices.size());
        for (std::size_t j = 0; j < indices.size(); ++j) {
          coeffs.push_back(
              integer_lagrange_coeff(delta, indices, static_cast<int>(j)));
        }
        return coeffs;
      },
      [&](std::vector<BigInt>& coeffs, std::size_t new_len) {
        return extend_integer_coeffs(coeffs, delta, indices, new_len);
      });
}

LagrangeCache::Stats LagrangeCache::stats() {
  const std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace sintra::crypto
