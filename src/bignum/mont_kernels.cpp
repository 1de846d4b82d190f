// Montgomery kernels: the portable `unsigned __int128` loops for every
// width, and fully unrolled MULX/ADCX/ADOX kernels for 8 and 16 limbs
// (multiply at both widths, squaring at 16; 8-limb squaring multiplies).
//
// The accelerated kernels keep the running sum t in memory and walk it
// one row at a time.  Each row is one asm statement whose columns are
// unrolled: column j multiplies rdx by one limb with mulx (which leaves
// the flags alone), adds the previous column's high word on the OF chain
// (adox) and t[j] on the CF chain (adcx), and stores the column sum.  The
// two chains never wait on each other, which is what the portable loop,
// with its two carries in general registers, cannot express (GCC 12 does
// not build two interleaved chains from _addcarryx_u64).  Each function
// carries its own target attribute, so the rest of the build needs no -m
// flag; adx_kernels() hands the set out only when the CPU reports BMI2
// and ADX.  The asm names no frame-pointer register and at most 13
// general registers, so it also builds with -fno-omit-frame-pointer
// (the sanitizer build).  docs/CRYPTO.md and DESIGN.md §17 give the
// bounds.
#include "bignum/mont_kernels.hpp"

#include <algorithm>
#include <atomic>

#include "bignum/bigint.hpp"
#include "bignum/montgomery.hpp"

namespace sintra::bignum::mont_kernels {

namespace {

constexpr std::size_t kMaxLimbs = kMaxModulusBits / 64;

// out = t - m when top:t >= m, else t; t < 2m, so one subtraction leaves
// the result fully reduced.
void subtract_if_ge(Limb* out, const Limb* t, Limb top, const Limb* m,
                    std::size_t n) {
  bool ge = top != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Limb ti = t[i];
      const Limb d = ti - m[i] - borrow;
      borrow = (static_cast<Wide>(m[i]) + borrow > ti) ? 1 : 0;
      out[i] = d;
    }
  } else {
    std::copy(t, t + n, out);
  }
}

}  // namespace

void mul_portable(Limb* out, const Limb* a, const Limb* b, const Limb* m,
                  Limb m0inv, std::size_t n) {
  // Fused CIOS: one outer pass per limb of a; the multiply row
  // (t += a[i]*b) and the reduction row (t += mi*m, t >>= 64) share a
  // single inner loop with two running carries.  Invariant: the t value
  // entering and leaving each outer iteration is < 2m, so t occupies n
  // limbs plus a top limb t[n] in {0, 1} — no intermediate normalization
  // is ever needed (bounds walked through in docs/CRYPTO.md).
  Limb t[kMaxLimbs + 2];
  std::fill(t, t + n + 2, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const Limb ai = a[i];
    // Column 0 decides the reduction multiplier mi, and its reduced limb
    // is exactly zero by construction of m0inv, so it is never stored.
    const Wide p0 = static_cast<Wide>(ai) * b[0] + t[0];
    const Limb mi = static_cast<Limb>(p0) * m0inv;
    const Wide r0 = static_cast<Wide>(mi) * m[0] + static_cast<Limb>(p0);
    Limb carry_mul = static_cast<Limb>(p0 >> 64);
    Limb carry_red = static_cast<Limb>(r0 >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      const Wide p = static_cast<Wide>(ai) * b[j] + t[j] + carry_mul;
      carry_mul = static_cast<Limb>(p >> 64);
      const Wide r =
          static_cast<Wide>(mi) * m[j] + static_cast<Limb>(p) + carry_red;
      t[j - 1] = static_cast<Limb>(r);
      carry_red = static_cast<Limb>(r >> 64);
    }
    const Wide s = static_cast<Wide>(t[n]) + carry_mul + carry_red;
    t[n - 1] = static_cast<Limb>(s);
    t[n] = static_cast<Limb>(s >> 64);  // in {0, 1}
  }
  subtract_if_ge(out, t, t[n], m, n);
}

void sqr_portable(Limb* out, const Limb* a, const Limb* m, Limb m0inv,
                  std::size_t n) {
  // SOS squaring: full double-width square first (cross products computed
  // once, then doubled, then the diagonal squares added), followed by n
  // Montgomery reduction rows.  1.5n^2 + O(n) limb products vs the 2n^2
  // of mul.  r needs 2n+1 limbs: the square fills 2n, and the reduction
  // carries can reach one bit into limb 2n (a^2 + m*floor-term < 2^(128n+1)).
  Limb r[2 * kMaxLimbs + 1];
  std::fill(r, r + 2 * n + 1, 0u);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Limb ai = a[i];
    Limb carry = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const Wide cur = static_cast<Wide>(ai) * a[j] + r[i + j] + carry;
      r[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    r[i + n] = carry;
  }
  // Double the cross terms.  2*cross < a^2 < 2^(128n), so the shift-out of
  // limb 2n-1 is always zero.
  Limb topbit = 0;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const Limb v = r[i];
    r[i] = (v << 1) | topbit;
    topbit = v >> 63;
  }
  // Add the diagonal a[i]^2 at bit position 128*i.
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Wide sq = static_cast<Wide>(a[i]) * a[i];
    const Wide lo_sum =
        static_cast<Wide>(r[2 * i]) + static_cast<Limb>(sq) + carry;
    r[2 * i] = static_cast<Limb>(lo_sum);
    const Wide hi_sum = static_cast<Wide>(r[2 * i + 1]) +
                        static_cast<Limb>(sq >> 64) +
                        static_cast<Limb>(lo_sum >> 64);
    r[2 * i + 1] = static_cast<Limb>(hi_sum);
    carry = static_cast<Limb>(hi_sum >> 64);
  }
  // Reduction: zero the low n limbs one at a time, exactly as in CIOS.
  for (std::size_t i = 0; i < n; ++i) {
    const Limb mi = r[i] * m0inv;
    Limb c = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const Wide cur = static_cast<Wide>(mi) * m[j] + r[i + j] + c;
      r[i + j] = static_cast<Limb>(cur);
      c = static_cast<Limb>(cur >> 64);
    }
    for (std::size_t k = i + n; c != 0; ++k) {
      const Wide cur = static_cast<Wide>(r[k]) + c;
      r[k] = static_cast<Limb>(cur);
      c = static_cast<Limb>(cur >> 64);
    }
  }
  // Result is r[n..2n] < 2m with r[2n] in {0, 1}.
  subtract_if_ge(out, r + n, r[2 * n], m, n);
}

const KernelSet& portable_kernels() {
  static const KernelSet set{
      "portable",
      [](Limb* out, const Limb* a, const Limb* b, const Limb* m, Limb m0inv) {
        mul_portable(out, a, b, m, m0inv, 8);
      },
      [](Limb* out, const Limb* a, const Limb* m, Limb m0inv) {
        sqr_portable(out, a, m, m0inv, 8);
      },
      [](Limb* out, const Limb* a, const Limb* b, const Limb* m, Limb m0inv) {
        mul_portable(out, a, b, m, m0inv, 16);
      },
      [](Limb* out, const Limb* a, const Limb* m, Limb m0inv) {
        sqr_portable(out, a, m, m0inv, 16);
      }};
  return set;
}

}  // namespace sintra::bignum::mont_kernels

#if defined(__x86_64__)

#define SINTRA_MONT_TARGET __attribute__((target("bmi2,adx")))

// --- asm building blocks (AT&T operand order) -----------------------------
//
// Column j of a row: (lo, hi) = rdx * src[j]; the OF chain adds the
// previous column's high word `prev`, the CF chain adds t[j], and the
// column sum is stored at byte offset `dst` from t.  Even and odd columns
// use alternate (lo, hi) register pairs, so each column's high word
// survives until the next column adds it.
#define SINTRA_COL(j, dst, src, lo, hi, prev)                 \
  "mulx " #j "*8(%[" #src "]), %[" #lo "], %[" #hi "]\n\t"    \
  "adox %[" #prev "], %[" #lo "]\n\t"                         \
  "adcx " #j "*8(%[t]), %[" #lo "]\n\t"                       \
  "movq %[" #lo "], " dst "(%[t])\n\t"

// Multiply-row columns add into place; reduction-row columns store one
// limb down, which is the row's division by 2^64.
#define SINTRA_MUL_E(j) SINTRA_COL(j, #j "*8", b, le, he, ho)
#define SINTRA_MUL_O(j) SINTRA_COL(j, #j "*8", b, lo, ho, he)
#define SINTRA_RED_E(j) SINTRA_COL(j, #j "*8-8", m, le, he, ho)
#define SINTRA_RED_O(j) SINTRA_COL(j, #j "*8-8", m, lo, ho, he)

// Columns k..n-1 for n = 8 and n = 16 (E for even columns, O for odd).
#define SINTRA_F8_7(E, O) O(7)
#define SINTRA_F8_6(E, O) E(6) SINTRA_F8_7(E, O)
#define SINTRA_F8_5(E, O) O(5) SINTRA_F8_6(E, O)
#define SINTRA_F8_4(E, O) E(4) SINTRA_F8_5(E, O)
#define SINTRA_F8_3(E, O) O(3) SINTRA_F8_4(E, O)
#define SINTRA_F8_2(E, O) E(2) SINTRA_F8_3(E, O)
#define SINTRA_F8_1(E, O) O(1) SINTRA_F8_2(E, O)
#define SINTRA_F16_15(E, O) O(15)
#define SINTRA_F16_14(E, O) E(14) SINTRA_F16_15(E, O)
#define SINTRA_F16_13(E, O) O(13) SINTRA_F16_14(E, O)
#define SINTRA_F16_12(E, O) E(12) SINTRA_F16_13(E, O)
#define SINTRA_F16_11(E, O) O(11) SINTRA_F16_12(E, O)
#define SINTRA_F16_10(E, O) E(10) SINTRA_F16_11(E, O)
#define SINTRA_F16_9(E, O) O(9) SINTRA_F16_10(E, O)
#define SINTRA_F16_8(E, O) E(8) SINTRA_F16_9(E, O)
#define SINTRA_F16_7(E, O) O(7) SINTRA_F16_8(E, O)
#define SINTRA_F16_6(E, O) E(6) SINTRA_F16_7(E, O)
#define SINTRA_F16_5(E, O) O(5) SINTRA_F16_6(E, O)
#define SINTRA_F16_4(E, O) E(4) SINTRA_F16_5(E, O)
#define SINTRA_F16_3(E, O) O(3) SINTRA_F16_4(E, O)
#define SINTRA_F16_2(E, O) E(2) SINTRA_F16_3(E, O)
#define SINTRA_F16_1(E, O) O(1) SINTRA_F16_2(E, O)

// Reduction row: t = (tn:t + q*m) / 2^64, with rdx = q, flags clear,
// z = 0, u0 = t[0], tn = t[n] and top = t[n+1].  Column 0 sums to zero
// mod 2^64 by the choice of q, so only its carries are kept.  Leaves the
// new t[n] (0 or 1) in tn.
#define SINTRA_RED_ROW(COLS)                   \
  "mulx (%[m]), %[le], %[he]\n\t"              \
  "adcx %[u0], %[le]\n\t"                      \
  COLS(SINTRA_RED_E, SINTRA_RED_O)             \
  "adox %[z], %[ho]\n\t"                       \
  "adcx %[tn], %[ho]\n\t"                      \
  "movq %[ho], %c[last](%[t])\n\t"             \
  "adcx %[z], %[top]\n\t"                      \
  "movq %[top], %[tn]\n\t"

// One CIOS iteration: t += a_i * b (rdx = a_i), then one reduction row.
// Between the two, t[n] and t[n+1] stay in registers (tn, top).
#define SINTRA_CIOS_STEP(COLS)                                           \
  asm volatile(                                                          \
      "xorq %[z], %[z]\n\t"                                              \
      "mulx (%[b]), %[le], %[he]\n\t"                                    \
      "adcx (%[t]), %[le]\n\t"                                           \
      "movq %[le], (%[t])\n\t"                                           \
      "movq %[le], %[u0]\n\t"                                            \
      COLS(SINTRA_MUL_E, SINTRA_MUL_O)                                   \
      "adox %[z], %[ho]\n\t"                                             \
      "adcx %[tn], %[ho]\n\t"                                            \
      "movq %[ho], %[tn]\n\t"                                            \
      "movq %[z], %[top]\n\t"                                            \
      "adcx %[z], %[top]\n\t"                                            \
      "movq %[u0], %%rdx\n\t"                                            \
      "imulq %[m0], %%rdx\n\t"                                           \
      "xorq %[z], %[z]\n\t"                                              \
      SINTRA_RED_ROW(COLS)                                               \
      : [tn] "+r"(tn), [ai] "+d"(ai), [le] "=&r"(le), [he] "=&r"(he),    \
        [lo] "=&r"(lo), [ho] "=&r"(ho), [z] "=&r"(z), [u0] "=&r"(u0),    \
        [top] "=&r"(top)                                                 \
      : [t] "r"(t), [b] "r"(b), [m] "r"(m), [m0] "r"(m0inv),             \
        [last] "i"(8 * (N - 1))                                          \
      : "cc", "memory")

// SOS reduction row over the low half of the square (top = 0).
#define SINTRA_SOS_RED_STEP(COLS)                                        \
  asm volatile(                                                          \
      "movq (%[t]), %[u0]\n\t"                                           \
      "movq %[u0], %%rdx\n\t"                                            \
      "imulq %[m0], %%rdx\n\t"                                           \
      "xorq %[z], %[z]\n\t"                                              \
      "movq %[z], %[top]\n\t"                                            \
      SINTRA_RED_ROW(COLS)                                               \
      : [tn] "+r"(tn), [le] "=&r"(le), [he] "=&r"(he), [lo] "=&r"(lo),   \
        [ho] "=&r"(ho), [z] "=&r"(z), [u0] "=&r"(u0), [top] "=&r"(top)   \
      : [t] "r"(r), [m] "r"(m), [m0] "r"(m0inv), [last] "i"(8 * (N - 1)) \
      : "rdx", "cc", "memory")

// Row i of the square's cross products: r[i+j] += a_i * a_j for
// j = i+1..n-1, the row's carry-out landing in the still-empty r[i+n].
// The last column is odd for both widths, so its high word is in ho.
#define SINTRA_TRI_ROW(i, COLS)                                          \
  asm volatile(                                                          \
      "xorq %[z], %[z]\n\t"                                              \
      "movq %[z], %[he]\n\t"                                             \
      "movq %[z], %[ho]\n\t"                                             \
      COLS(SINTRA_MUL_E, SINTRA_MUL_O)                                   \
      "adox %[z], %[ho]\n\t"                                             \
      "adcx %[z], %[ho]\n\t"                                             \
      "movq %[ho], %c[end](%[t])\n\t"                                    \
      : [le] "=&r"(le), [he] "=&r"(he), [lo] "=&r"(lo), [ho] "=&r"(ho),  \
        [z] "=&r"(z)                                                     \
      : "d"(a[i]), [b] "r"(a), [t] "r"(r + (i)), [end] "i"(8 * N)        \
      : "cc", "memory")

// r = 2*r + sum a_i^2 * 2^(128 i): the CF chain doubles (adcx x, x), the
// OF chain adds the diagonal squares.
#define SINTRA_DIAG(i)                 \
  "movq " #i "*8(%[a]), %%rdx\n\t"     \
  "mulx %%rdx, %[le], %[he]\n\t"       \
  "movq " #i "*16(%[r]), %[lo]\n\t"    \
  "adcx %[lo], %[lo]\n\t"              \
  "adox %[le], %[lo]\n\t"              \
  "movq %[lo], " #i "*16(%[r])\n\t"    \
  "movq " #i "*16+8(%[r]), %[ho]\n\t"  \
  "adcx %[ho], %[ho]\n\t"              \
  "adox %[he], %[ho]\n\t"              \
  "movq %[ho], " #i "*16+8(%[r])\n\t"

// The whole doubling-and-diagonal pass, columns 0..n-1.
#define SINTRA_DIAG_PASS(COLS)                                           \
  asm volatile("xorq %[z], %[z]\n\t"                                      \
               SINTRA_DIAG(0) COLS(SINTRA_DIAG, SINTRA_DIAG)             \
               : [le] "=&r"(le), [he] "=&r"(he), [lo] "=&r"(lo),         \
                 [ho] "=&r"(ho), [z] "=&r"(z)                            \
               : [a] "r"(a), [r] "r"(r)                                  \
               : "rdx", "cc", "memory")

// t[j] += t[n + j], carrying into tn.
#define SINTRA_ADD_HIGH(j)                         \
  "movq " #j "*8(%[t]), %[x]\n\t"                  \
  "adcq " #j "*8+%c[high](%[t]), %[x]\n\t"         \
  "movq %[x], " #j "*8(%[t])\n\t"

// out[j] = t[j] - m[j] - borrow.
#define SINTRA_SBB(j)                  \
  "movq " #j "*8(%[t]), %[x]\n\t"      \
  "sbbq " #j "*8(%[m]), %[x]\n\t"      \
  "movq %[x], " #j "*8(%[out])\n\t"

// The high-half addition and the final subtraction, columns 0..n-1.
#define SINTRA_ADD_HIGH_HALF(COLS)                                  \
  asm volatile("movq (%[t]), %[x]\n\t"                              \
               "addq %c[high](%[t]), %[x]\n\t"                      \
               "movq %[x], (%[t])\n\t"                              \
               COLS(SINTRA_ADD_HIGH, SINTRA_ADD_HIGH)               \
               "adcq $0, %[tn]\n\t"                                 \
               : [tn] "+r"(tn), [x] "=&r"(x)                        \
               : [t] "r"(r), [high] "i"(8 * N)                      \
               : "cc", "memory")

#define SINTRA_FINISH(COLS)                                    \
  asm volatile("movq (%[t]), %[x]\n\t"                         \
               "subq (%[m]), %[x]\n\t"                         \
               "movq %[x], (%[out])\n\t"                       \
               COLS(SINTRA_SBB, SINTRA_SBB)                    \
               "sbbq $0, %[tn]\n\t"                            \
               "sbbq %[keep], %[keep]\n\t"                     \
               : [tn] "+r"(tn), [x] "=&r"(x), [keep] "=&r"(keep) \
               : [t] "r"(t), [m] "r"(m), [out] "r"(out)        \
               : "cc", "memory")

namespace sintra::bignum::mont_kernels {

namespace {

// out = tn:t >= m ? t - m : t for tn:t < 2m, without a data-dependent
// branch: the difference goes to out, then the borrow out of tn selects.
// out may alias the inputs of the kernel (they are no longer read).
template <std::size_t N>
SINTRA_MONT_TARGET inline void finish(Limb* out, const Limb* t, Limb tn,
                                      const Limb* m) {
  Limb x;
  Limb keep;
  if constexpr (N == 8) {
    SINTRA_FINISH(SINTRA_F8_1);
  } else {
    SINTRA_FINISH(SINTRA_F16_1);
  }
  // keep is all ones when the subtraction borrowed, i.e. tn:t < m.
  for (std::size_t j = 0; j < N; ++j) out[j] ^= (out[j] ^ t[j]) & keep;
}

template <std::size_t N>
SINTRA_MONT_TARGET void mul_adx(Limb* out, const Limb* a, const Limb* b,
                                const Limb* m, Limb m0inv) {
  static_assert(N == 8 || N == 16);
  Limb t[N] = {};
  Limb tn = 0;
  Limb le, he, lo, ho, z, u0, top;
  for (std::size_t i = 0; i < N; ++i) {
    Limb ai = a[i];
    if constexpr (N == 8) {
      SINTRA_CIOS_STEP(SINTRA_F8_1);
    } else {
      SINTRA_CIOS_STEP(SINTRA_F16_1);
    }
  }
  finish<N>(out, t, tn, m);
}

// An 8-limb squaring kernel (triangle, diagonal pass, reduction) ran no
// faster than mul_adx<8> with a = b, about 77 ns per call each: at 8 limbs
// the triangle saves 20 of 128 mulx columns, and the extra row set-ups eat
// that.  So the 8-limb squaring is the multiply, and only 16 limbs have a
// squaring kernel.
SINTRA_MONT_TARGET void sqr8_adx(Limb* out, const Limb* a, const Limb* m,
                                 Limb m0inv) {
  mul_adx<8>(out, a, a, m, m0inv);
}

template <std::size_t N>
SINTRA_MONT_TARGET void sqr_adx(Limb* out, const Limb* a, const Limb* m,
                                Limb m0inv) {
  static_assert(N == 16);
  // Double-width square in r: cross products, then doubled plus the
  // diagonal.  Only r[0..n-1] and r[2n-1] are read before a row writes
  // them, but zeroing all of r is cheaper than reasoning about it.
  Limb r[2 * N] = {};
  Limb le, he, lo, ho, z, u0, top;
  SINTRA_TRI_ROW(0, SINTRA_F16_1);
  SINTRA_TRI_ROW(1, SINTRA_F16_2);
  SINTRA_TRI_ROW(2, SINTRA_F16_3);
  SINTRA_TRI_ROW(3, SINTRA_F16_4);
  SINTRA_TRI_ROW(4, SINTRA_F16_5);
  SINTRA_TRI_ROW(5, SINTRA_F16_6);
  SINTRA_TRI_ROW(6, SINTRA_F16_7);
  SINTRA_TRI_ROW(7, SINTRA_F16_8);
  SINTRA_TRI_ROW(8, SINTRA_F16_9);
  SINTRA_TRI_ROW(9, SINTRA_F16_10);
  SINTRA_TRI_ROW(10, SINTRA_F16_11);
  SINTRA_TRI_ROW(11, SINTRA_F16_12);
  SINTRA_TRI_ROW(12, SINTRA_F16_13);
  SINTRA_TRI_ROW(13, SINTRA_F16_14);
  SINTRA_TRI_ROW(14, SINTRA_F16_15);
  SINTRA_DIAG_PASS(SINTRA_F16_1);
  // Montgomery-reduce the low half in place: after n rows r[0..n-1] + tn
  // is (low + q*m) / R <= m.  Adding the high half (< m) then gives the
  // REDC value, < 2m.
  Limb tn = 0;
  for (std::size_t i = 0; i < N; ++i) SINTRA_SOS_RED_STEP(SINTRA_F16_1);
  Limb x;
  SINTRA_ADD_HIGH_HALF(SINTRA_F16_1);
  finish<N>(out, r, tn, m);
}

bool cpu_has_mulx_adx() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  }();
  return available;
}

}  // namespace

const KernelSet* adx_kernels() {
  static const KernelSet set{"mulx_adx", &mul_adx<8>, &sqr8_adx,
                             &mul_adx<16>, &sqr_adx<16>};
  return cpu_has_mulx_adx() ? &set : nullptr;
}

}  // namespace sintra::bignum::mont_kernels

#else  // not x86-64: only the portable kernels exist

namespace sintra::bignum::mont_kernels {

const KernelSet* adx_kernels() { return nullptr; }

}  // namespace sintra::bignum::mont_kernels

#endif

namespace sintra::bignum::mont_kernels {

namespace {

std::atomic<const KernelSet*>& active() {
  static std::atomic<const KernelSet*> set{[] {
    const KernelSet* adx = adx_kernels();
    return adx != nullptr ? adx : &portable_kernels();
  }()};
  return set;
}

}  // namespace

const KernelSet& active_kernels() {
  return *active().load(std::memory_order_relaxed);
}

const KernelSet* exchange_montgomery_kernels(const KernelSet* set) {
  return active().exchange(set);
}

}  // namespace sintra::bignum::mont_kernels
