#include "bignum/bigint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "bignum/montgomery.hpp"

namespace sintra::bignum {

namespace {
using Limb = BigInt::Limb;
constexpr int kLB = BigInt::kLimbBits;

inline Limb lo(Wide v) { return static_cast<Limb>(v); }
inline Limb hi(Wide v) { return static_cast<Limb>(v >> kLB); }
}  // namespace

BigInt::BigInt(std::int64_t v) {
  negative_ = v < 0;
  const std::uint64_t mag = negative_ ? ~static_cast<std::uint64_t>(v) + 1
                                      : static_cast<std::uint64_t>(v);
  if (mag != 0) limbs_.push_back(mag);
}

BigInt BigInt::from_limbs(std::vector<Limb> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.trim();
  return out;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::cmp_mag(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_)
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  int c = BigInt::cmp_mag(a, b);
  if (a.negative_) c = -c;
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::add_mag(const BigInt& a, const BigInt& b) {
  BigInt out;
  const auto& x = a.limbs_;
  const auto& y = b.limbs_;
  const std::size_t n = std::max(x.size(), y.size());
  out.limbs_.resize(n + 1, 0);
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Wide s = carry;
    if (i < x.size()) s += x[i];
    if (i < y.size()) s += y[i];
    out.limbs_[i] = lo(s);
    carry = hi(s);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigInt BigInt::sub_mag(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const Limb bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const Limb ai = a.limbs_[i];
    const Limb d = ai - bi - borrow;
    // Borrow iff the true difference went negative: ai < bi + borrow
    // (the RHS cannot wrap — bi <= 2^64-1 and borrow <= 1 never carry
    // together out of 128 bits).
    borrow = (static_cast<Wide>(bi) + borrow > ai) ? 1 : 0;
    out.limbs_[i] = d;
  }
  out.trim();
  return out;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  if (a.negative_ == b.negative_) {
    BigInt out = BigInt::add_mag(a, b);
    out.negative_ = a.negative_ && !out.is_zero();
    return out;
  }
  int c = BigInt::cmp_mag(a, b);
  if (c == 0) return BigInt{};
  BigInt out = c > 0 ? BigInt::sub_mag(a, b) : BigInt::sub_mag(b, a);
  out.negative_ = (c > 0 ? a.negative_ : b.negative_) && !out.is_zero();
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

namespace {

// Schoolbook product of limb magnitudes (little-endian).  One __int128
// accumulator per column step: (2^64-1)^2 + 2*(2^64-1) = 2^128-1, so the
// product + limb + carry chain cannot overflow.
std::vector<Limb> mul_school(const std::vector<Limb>& x,
                             const std::vector<Limb>& y) {
  std::vector<Limb> out(x.size() + y.size(), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    Limb carry = 0;
    const Limb xi = x[i];
    for (std::size_t j = 0; j < y.size(); ++j) {
      const Wide cur = static_cast<Wide>(xi) * y[j] + out[i + j] + carry;
      out[i + j] = lo(cur);
      carry = hi(cur);
    }
    std::size_t k = i + y.size();
    while (carry != 0) {
      const Wide cur = static_cast<Wide>(out[k]) + carry;
      out[k] = lo(cur);
      carry = hi(cur);
      ++k;
    }
  }
  return out;
}

std::vector<Limb> add_limbs(const std::vector<Limb>& x,
                            const std::vector<Limb>& y) {
  std::vector<Limb> out(std::max(x.size(), y.size()) + 1, 0);
  Limb carry = 0;
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    Wide s = carry;
    if (i < x.size()) s += x[i];
    if (i < y.size()) s += y[i];
    out[i] = lo(s);
    carry = hi(s);
  }
  out.back() = carry;
  return out;
}

// out -= x * B^shift (in place; caller guarantees no final borrow).
void sub_limbs_at(std::vector<Limb>& out, const std::vector<Limb>& x,
                  std::size_t shift) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < x.size() || borrow != 0; ++i) {
    const Limb xi = i < x.size() ? x[i] : 0;
    const Limb oi = out[shift + i];
    const Limb d = oi - xi - borrow;
    borrow = (static_cast<Wide>(xi) + borrow > oi) ? 1 : 0;
    out[shift + i] = d;
  }
}

// out += x * B^shift (in place; out must be large enough).
void add_limbs_at(std::vector<Limb>& out, const std::vector<Limb>& x,
                  std::size_t shift) {
  Limb carry = 0;
  for (std::size_t i = 0; i < x.size() || carry != 0; ++i) {
    Wide s = static_cast<Wide>(out[shift + i]) + carry;
    if (i < x.size()) s += x[i];
    out[shift + i] = lo(s);
    carry = hi(s);
  }
}

// Below this operand size (in 64-bit limbs) schoolbook wins.  Retuned for
// the 64-bit layer: the __int128 schoolbook inner loop is ~4x denser than
// the 32-bit one, so the crossover moves out to ~20 limbs = 1280 bits —
// RSA-size modexp squares (16 limbs at 1024 bits) stay schoolbook, while
// 2048-bit products and the dealer's safe-prime search take the
// three-multiplication split (measured sweep in docs/CRYPTO.md).
constexpr std::size_t kKaratsubaThreshold = 20;

// Karatsuba product (the "optimizations in the modular arithmetic" the
// paper's §6 suggests; pays off for the multi-limb products in division
// and non-Montgomery paths).
std::vector<Limb> mul_limbs(const std::vector<Limb>& x,
                            const std::vector<Limb>& y) {
  if (x.size() < kKaratsubaThreshold || y.size() < kKaratsubaThreshold) {
    return mul_school(x, y);
  }
  const std::size_t half = std::max(x.size(), y.size()) / 2;
  const auto split = [half](const std::vector<Limb>& v) {
    std::vector<Limb> lov(v.begin(),
                          v.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(half, v.size())));
    std::vector<Limb> hiv(
        v.begin() + static_cast<std::ptrdiff_t>(std::min(half, v.size())),
        v.end());
    return std::pair{std::move(lov), std::move(hiv)};
  };
  auto [x0, x1] = split(x);
  auto [y0, y1] = split(y);

  const auto z0 = mul_limbs(x0, y0);                       // low product
  const auto z2 = mul_limbs(x1, y1);                       // high product
  auto zm = mul_limbs(add_limbs(x0, x1), add_limbs(y0, y1));
  // zm -= z0 + z2  => the middle term (non-negative by construction).
  sub_limbs_at(zm, z0, 0);
  sub_limbs_at(zm, z2, 0);

  std::vector<Limb> out(x.size() + y.size() + 1, 0);
  add_limbs_at(out, z0, 0);
  add_limbs_at(out, zm, half);
  add_limbs_at(out, z2, 2 * half);
  return out;
}

}  // namespace

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt{};
  BigInt out;
  out.limbs_ = mul_limbs(a.limbs_, b.limbs_);
  out.negative_ = a.negative_ != b.negative_;
  out.trim();
  return out;
}

BigInt operator<<(const BigInt& a, int k) {
  if (a.is_zero() || k == 0) return k < 0 ? a >> -k : a;
  if (k < 0) return a >> -k;
  const std::size_t limb_shift = static_cast<std::size_t>(k) / kLB;
  const int bit_shift = k % kLB;
  BigInt out;
  out.negative_ = a.negative_;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const Wide v = static_cast<Wide>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= lo(v);
    out.limbs_[i + limb_shift + 1] |= hi(v);
  }
  out.trim();
  return out;
}

BigInt operator>>(const BigInt& a, int k) {
  if (a.is_zero() || k == 0) return k < 0 ? a << -k : a;
  if (k < 0) return a << -k;
  const std::size_t limb_shift = static_cast<std::size_t>(k) / kLB;
  const int bit_shift = k % kLB;
  if (limb_shift >= a.limbs_.size()) return BigInt{};
  BigInt out;
  out.negative_ = a.negative_;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    Limb v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= a.limbs_[i + limb_shift + 1] << (kLB - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.trim();
  return out;
}

std::pair<BigInt, BigInt> BigInt::div_mod(const BigInt& a, const BigInt& b) {
  if (b.is_zero()) throw std::domain_error("BigInt: division by zero");
  if (cmp_mag(a, b) < 0) return {BigInt{}, a};

  // Knuth Algorithm D on magnitudes (64-bit limbs; the two-limb trial
  // numerators are __int128).
  BigInt u = a;
  u.negative_ = false;
  BigInt v = b;
  v.negative_ = false;

  if (v.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    const Limb d = v.limbs_[0];
    BigInt q;
    q.limbs_.assign(u.limbs_.size(), 0);
    Limb rem = 0;
    for (std::size_t i = u.limbs_.size(); i-- > 0;) {
      const Wide cur = (static_cast<Wide>(rem) << kLB) | u.limbs_[i];
      q.limbs_[i] = static_cast<Limb>(cur / d);
      rem = static_cast<Limb>(cur % d);
    }
    q.trim();
    BigInt r;
    if (rem != 0) r.limbs_.push_back(rem);
    q.negative_ = !q.is_zero() && (a.negative_ != b.negative_);
    r.negative_ = !r.is_zero() && a.negative_;
    return {q, r};
  }

  // Normalize so the top limb of v has its high bit set.
  int shift = 0;
  Limb top = v.limbs_.back();
  while ((top & (1ULL << 63)) == 0) {
    top <<= 1;
    ++shift;
  }
  u = u << shift;
  v = v << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const Limb vtop = v.limbs_[n - 1];
  const Limb vsec = v.limbs_[n - 2];
  constexpr Wide kBase = static_cast<Wide>(1) << kLB;

  for (std::size_t j = m + 1; j-- > 0;) {
    const Wide num =
        (static_cast<Wide>(u.limbs_[j + n]) << kLB) | u.limbs_[j + n - 1];
    Wide qhat = num / vtop;
    Wide rhat = num % vtop;
    if (qhat >= kBase) {
      qhat = kBase - 1;
      rhat = num - qhat * vtop;
    }
    while (rhat < kBase &&
           qhat * vsec > ((rhat << kLB) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += vtop;
    }
    // u[j .. j+n] -= qhat * v
    const Limb qh = static_cast<Limb>(qhat);
    Limb borrow = 0;
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide p = static_cast<Wide>(qh) * v.limbs_[i] + carry;
      carry = hi(p);
      const Limb pl = lo(p);
      const Limb ui = u.limbs_[i + j];
      const Limb d = ui - pl - borrow;
      borrow = (static_cast<Wide>(pl) + borrow > ui) ? 1 : 0;
      u.limbs_[i + j] = d;
    }
    {
      const Limb ui = u.limbs_[j + n];
      Limb d = ui - carry - borrow;
      if (static_cast<Wide>(carry) + borrow > ui) {
        // qhat was one too large: add back.
        --qhat;
        Limb c = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const Wide s = static_cast<Wide>(u.limbs_[i + j]) + v.limbs_[i] + c;
          u.limbs_[i + j] = lo(s);
          c = hi(s);
        }
        d += c;  // wraps back into range
      }
      u.limbs_[j + n] = d;
    }
    q.limbs_[j] = static_cast<Limb>(qhat);
  }

  q.trim();
  u.limbs_.resize(n);
  u.trim();
  BigInt r = u >> shift;
  q.negative_ = !q.is_zero() && (a.negative_ != b.negative_);
  r.negative_ = !r.is_zero() && a.negative_;
  return {q, r};
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  return BigInt::div_mod(a, b).first;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  return BigInt::div_mod(a, b).second;
}

BigInt BigInt::mod(const BigInt& m) const {
  if (m <= BigInt{0}) throw std::domain_error("BigInt::mod: modulus <= 0");
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt BigInt::mod_pow(const BigInt& e, const BigInt& m) const {
  if (e.is_negative()) throw std::domain_error("BigInt::mod_pow: negative exponent");
  if (m <= BigInt{0}) throw std::domain_error("BigInt::mod_pow: modulus <= 0");
  if (m.is_one()) return BigInt{};
  if (m.is_odd()) return Montgomery(m).pow(this->mod(m), e);
  // Rare even-modulus path (not used by the crypto layer): square & multiply.
  BigInt base = this->mod(m);
  BigInt result{1};
  for (int i = e.bit_length() - 1; i >= 0; --i) {
    result = (result * result).mod(m);
    if (e.bit(i)) result = (result * base).mod(m);
  }
  return result;
}

namespace {

// --- binary extended GCD over fixed-width limb arrays (odd moduli) ---

// Number of significant limbs of x[0..len).
std::size_t used_limbs(const Limb* x, std::size_t len) {
  while (len > 0 && x[len - 1] == 0) --len;
  return len;
}

// Trailing zero bits of a nonzero x.
unsigned trailing_zeros(const Limb* x) {
  unsigned k = 0;
  for (; *x == 0; ++x) k += kLB;
  return k + static_cast<unsigned>(__builtin_ctzll(*x));
}

// x >>= k over len limbs; len shrinks to the significant limbs.
void shift_right(Limb* x, std::size_t& len, unsigned k) {
  const std::size_t limbs = k / kLB;
  const unsigned bits = k % kLB;
  const std::size_t keep = len - limbs;
  for (std::size_t i = 0; i < keep; ++i) {
    Limb v = x[i + limbs] >> bits;
    if (bits != 0 && i + limbs + 1 < len) {
      v |= x[i + limbs + 1] << (kLB - static_cast<int>(bits));
    }
    x[i] = v;
  }
  len = used_limbs(x, keep);
}

int compare(const Limb* a, std::size_t alen, const Limb* b,
            std::size_t blen) {
  if (alen != blen) return alen < blen ? -1 : 1;
  for (std::size_t i = alen; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// a -= b over alen limbs (a >= b, blen <= alen); returns the borrow out.
Limb subtract(Limb* a, std::size_t alen, const Limb* b, std::size_t blen) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < alen; ++i) {
    if (i >= blen && borrow == 0) break;
    const Limb bi = i < blen ? b[i] : 0;
    const Wide d = static_cast<Wide>(a[i]) - bi - borrow;
    a[i] = lo(d);
    borrow = hi(d) != 0 ? 1 : 0;
  }
  return borrow;
}

// x = x - y mod m for x, y in [0, m), all n limbs.
void sub_mod(Limb* x, const Limb* y, const Limb* m, std::size_t n) {
  if (subtract(x, n, y, n) == 0) return;
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Wide s = static_cast<Wide>(x[i]) + m[i] + carry;
    x[i] = lo(s);
    carry = hi(s);
  }
}

// x = x / 2^k mod m for x in [0, m), m odd, m0inv = -m^-1 mod 2^64: each
// chunk of up to 63 bits adds the multiple q*m that clears the low bits,
// then shifts them out; (x + q*m) / 2^c < m keeps x reduced.
void halve_mod(Limb* x, unsigned k, const Limb* m, std::size_t n,
               Limb m0inv) {
  while (k > 0) {
    const unsigned c = std::min(k, 63u);
    k -= c;
    const Limb q = (x[0] * m0inv) & ((Limb{1} << c) - 1);
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide t = static_cast<Wide>(q) * m[i] + x[i] + carry;
      x[i] = lo(t);
      carry = hi(t);
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      x[i] = (x[i] >> c) | (x[i + 1] << (kLB - static_cast<int>(c)));
    }
    x[n - 1] = (x[n - 1] >> c) | (carry << (kLB - static_cast<int>(c)));
  }
}

// Writes a^-1 mod m into out (n limbs) for odd m > 1 of n limbs and
// 0 < a < m; returns false when gcd(a, m) != 1.  Binary extended GCD with
// the invariants x1*a = u and x2*a = v (mod m): subtract the smaller of
// the odd pair (u, v) from the larger, then divide the even difference and
// its coefficient by the same power of two.  O(n) limb work per step, no
// allocation beyond one scratch block.
bool inverse_odd_modulus(const Limb* a, std::size_t alen, const Limb* m,
                         std::size_t n, Limb* out) {
  constexpr std::size_t kStackLimbs = 64;
  Limb stack[4 * kStackLimbs];
  std::vector<Limb> heap;
  Limb* buf = stack;
  if (n > kStackLimbs) {
    heap.resize(4 * n);
    buf = heap.data();
  }
  Limb* u = buf;
  Limb* v = buf + n;
  Limb* x1 = buf + 2 * n;
  Limb* x2 = buf + 3 * n;
  std::fill(buf, buf + 4 * n, Limb{0});
  std::copy(a, a + alen, u);
  std::copy(m, m + n, v);
  x1[0] = 1;
  std::size_t ulen = alen;
  std::size_t vlen = n;
  Limb m0inv = m[0];  // -m^-1 mod 2^64 by Newton iteration
  for (int i = 0; i < 5; ++i) m0inv *= 2 - m[0] * m0inv;
  m0inv = Limb{0} - m0inv;

  if (const unsigned k = trailing_zeros(u); k != 0) {
    shift_right(u, ulen, k);
    halve_mod(x1, k, m, n, m0inv);
  }
  for (;;) {  // u and v are odd here
    const int c = compare(u, ulen, v, vlen);
    if (c == 0) break;
    if (c > 0) {
      subtract(u, ulen, v, vlen);
      sub_mod(x1, x2, m, n);
      const unsigned k = trailing_zeros(u);
      shift_right(u, ulen, k);
      halve_mod(x1, k, m, n, m0inv);
    } else {
      subtract(v, vlen, u, ulen);
      sub_mod(x2, x1, m, n);
      const unsigned k = trailing_zeros(v);
      shift_right(v, vlen, k);
      halve_mod(x2, k, m, n, m0inv);
    }
  }
  if (ulen != 1 || u[0] != 1) return false;  // u = v = gcd(a, m)
  std::copy(x1, x1 + n, out);
  return true;
}

}  // namespace

BigInt BigInt::mod_inverse(const BigInt& m) const {
  if (m <= BigInt{0}) throw std::domain_error("BigInt::mod_inverse: modulus <= 0");
  BigInt a = this->mod(m);
  if (m.is_odd() && !m.is_one()) {
    // The hot case (RSA moduli, group primes and orders): binary GCD.
    std::vector<Limb> out(m.limbs_.size());
    if (a.is_zero() || !inverse_odd_modulus(a.limbs_.data(), a.limbs_.size(),
                                            m.limbs_.data(), m.limbs_.size(),
                                            out.data())) {
      throw std::domain_error("BigInt::mod_inverse: not invertible");
    }
    return from_limbs(std::move(out));
  }
  // Even moduli (key generation only): extended Euclid on (a mod m, m).
  BigInt r0 = m, r1 = a;
  BigInt s0{0}, s1{1};
  while (!r1.is_zero()) {
    auto [q, r2] = div_mod(r0, r1);
    BigInt s2 = s0 - q * s1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s1 = std::move(s2);
  }
  if (!r0.is_one()) throw std::domain_error("BigInt::mod_inverse: not invertible");
  return s0.mod(m);
}

std::vector<BigInt> BigInt::batch_mod_inverse(const std::vector<BigInt>& vals,
                                              const BigInt& m) {
  const std::size_t len = vals.size();
  if (len == 0) return {};
  std::vector<BigInt> prefix(len);  // prefix[i] = vals[0]*..*vals[i] mod m
  BigInt acc{1};
  for (std::size_t i = 0; i < len; ++i) {
    acc = (acc * vals[i]).mod(m);
    prefix[i] = acc;
  }
  BigInt inv_acc = prefix[len - 1].mod_inverse(m);
  std::vector<BigInt> out(len);
  for (std::size_t i = len; i-- > 1;) {
    out[i] = (inv_acc * prefix[i - 1]).mod(m);
    inv_acc = (inv_acc * vals[i]).mod(m);
  }
  out[0] = std::move(inv_acc);
  return out;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

int BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  int bits = static_cast<int>(limbs_.size() - 1) * kLB;
  Limb top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(int i) const {
  const std::size_t limb = static_cast<std::size_t>(i) / kLB;
  if (limb >= limbs_.size()) return false;
  return ((limbs_[limb] >> (i % kLB)) & 1u) != 0;
}

BigInt::Limb BigInt::bits_window(int i, int width) const {
  const std::size_t limb = static_cast<std::size_t>(i) / kLB;
  const int off = i % kLB;
  Wide word = limb < limbs_.size() ? limbs_[limb] : 0u;
  if (limb + 1 < limbs_.size()) {
    word |= static_cast<Wide>(limbs_[limb + 1]) << kLB;
  }
  word >>= off;
  const Limb mask =
      width >= kLB ? ~static_cast<Limb>(0) : (1ULL << width) - 1;
  return static_cast<Limb>(word) & mask;
}

BigInt BigInt::from_string(std::string_view s) {
  bool neg = false;
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    neg = s[0] == '-';
    s.remove_prefix(1);
  }
  if (s.empty()) throw std::invalid_argument("BigInt::from_string: empty");
  BigInt out;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    for (char c : s.substr(2)) {
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
      else throw std::invalid_argument("BigInt::from_string: bad hex digit");
      out = (out << 4) + BigInt{d};
    }
  } else {
    for (char c : s) {
      if (c < '0' || c > '9')
        throw std::invalid_argument("BigInt::from_string: bad decimal digit");
      out = out * BigInt{10} + BigInt{c - '0'};
    }
  }
  if (neg && !out.is_zero()) out.negative_ = true;
  return out;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Repeated division by 10^18 (one limb's worth of decimal digits).
  BigInt v = *this;
  v.negative_ = false;
  const BigInt chunk{1000000000000000000LL};
  std::vector<std::uint64_t> groups;
  while (!v.is_zero()) {
    auto [q, r] = div_mod(v, chunk);
    groups.push_back(r.is_zero() ? 0 : r.limbs_[0]);
    v = std::move(q);
  }
  std::string out = negative_ ? "-" : "";
  out += std::to_string(groups.back());
  for (std::size_t i = groups.size() - 1; i-- > 0;) {
    std::string g = std::to_string(groups[i]);
    out += std::string(18 - g.size(), '0') + g;
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string out = negative_ ? "-" : "";
  char buf[17];
  std::snprintf(buf, sizeof buf, "%" PRIx64, limbs_.back());
  out += buf;
  for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof buf, "%016" PRIx64, limbs_[i]);
    out += buf;
  }
  return out;
}

BigInt BigInt::from_bytes(BytesView be) {
  BigInt out;
  const std::size_t n = be.size();
  out.limbs_.assign((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t byte = be[n - 1 - i];  // i-th least significant
    out.limbs_[i / 8] |= static_cast<Limb>(byte) << (8 * (i % 8));
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes() const {
  if (negative_) throw std::logic_error("BigInt::to_bytes: negative value");
  if (is_zero()) return {};
  const int bytes = (bit_length() + 7) / 8;
  return to_bytes_padded(static_cast<std::size_t>(bytes));
}

Bytes BigInt::to_bytes_padded(std::size_t len) const {
  if (negative_) throw std::logic_error("BigInt::to_bytes_padded: negative value");
  if (static_cast<std::size_t>((bit_length() + 7) / 8) > len)
    throw std::logic_error("BigInt::to_bytes_padded: value too large");
  Bytes out(len, 0);
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t byte_index = len - 1 - i;  // i-th least significant
    const std::size_t limb = i / 8;
    if (limb < limbs_.size()) {
      out[byte_index] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (i % 8)));
    }
  }
  return out;
}

std::uint64_t BigInt::to_u64() const {
  if (negative_ || bit_length() > 64)
    throw std::overflow_error("BigInt::to_u64: out of range");
  return limbs_.empty() ? 0 : limbs_[0];
}

BigInt BigInt::random_below(Rng& rng, const BigInt& bound) {
  if (bound <= BigInt{0})
    throw std::domain_error("BigInt::random_below: bound <= 0");
  const int bits = bound.bit_length();
  const std::size_t nbytes = static_cast<std::size_t>((bits + 7) / 8);
  const int excess = static_cast<int>(nbytes * 8) - bits;
  // Rejection sampling: uniform in [0, 2^bits), retry until < bound.
  for (;;) {
    Bytes raw = rng.bytes(nbytes);
    if (!raw.empty()) raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt v = from_bytes(raw);
    if (v < bound) return v;
  }
}

BigInt BigInt::random_bits(Rng& rng, int bits) {
  if (bits <= 0) throw std::domain_error("BigInt::random_bits: bits <= 0");
  const std::size_t nbytes = static_cast<std::size_t>((bits + 7) / 8);
  const int excess = static_cast<int>(nbytes * 8) - bits;
  Bytes raw = rng.bytes(nbytes);
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);  // force top bit
  return from_bytes(raw);
}

void BigInt::write(Writer& w) const {
  w.u8(negative_ ? 1 : 0);
  BigInt mag = *this;
  mag.negative_ = false;
  w.bytes(mag.to_bytes());
}

BigInt BigInt::read(Reader& r) {
  const bool neg = r.u8() != 0;
  BigInt out = from_bytes(r.bytes());
  if (neg && !out.is_zero()) out.negative_ = true;
  return out;
}

}  // namespace sintra::bignum
