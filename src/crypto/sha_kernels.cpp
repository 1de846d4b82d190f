// SHA-extension kernels for SHA-1 and SHA-256 (x86 only).
//
// Each function carries its own target attribute, so the rest of the
// build needs no -msha and still runs on CPUs without the extensions;
// sha1_accelerated() / sha256_accelerated() hand a kernel out only when
// the CPU reports SHA, SSE4.1 and SSSE3.  The round structure follows
// Intel's reference sequence: SHA-1 keeps A..D in one register (lane 3 =
// A) and E in the top lane of a second; SHA-256 keeps the state as the
// ABEF/CDGH register pair sha256rnds2 works on.  Message schedules run
// four words at a time, interleaved with the rounds they feed.
#include "crypto/sha_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <utility>

#define SINTRA_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))
#define SINTRA_SHA_INLINE \
  SINTRA_SHA_TARGET inline __attribute__((always_inline))

namespace sintra::crypto::sha_kernels {

namespace {

// Big-endian 32-bit words of a 16-byte chunk, word 0 in lane 3 (SHA-1).
SINTRA_SHA_INLINE __m128i load_be_reversed(const std::uint8_t* p) {
  const __m128i mask =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), mask);
}

// Big-endian 32-bit words of a 16-byte chunk, word 0 in lane 0 (SHA-256).
SINTRA_SHA_INLINE __m128i load_be(const std::uint8_t* p) {
  const __m128i mask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), mask);
}

// SHA-1 rounds 4G..4G+3.  `m[G % 4]` holds W[4G..4G+3]; the same step
// advances the schedule: msg1 starts W for group G+3, the xor folds in
// W[t-8], and msg2 finishes W for group G+1.  `e_next` receives the A..D
// register before the rounds, from which sha1nexte derives the next E.
template <int G>
SINTRA_SHA_INLINE void sha1_group(__m128i& abcd, __m128i& e, __m128i& e_next,
                                  __m128i (&m)[4], const std::uint8_t* block) {
  if constexpr (G < 4) m[G] = load_be_reversed(block + 16 * G);
  __m128i& cur = m[G % 4];
  if constexpr (G == 0) {
    e = _mm_add_epi32(e, cur);
  } else {
    e = _mm_sha1nexte_epu32(e, cur);
  }
  e_next = abcd;
  if constexpr (G >= 3 && G <= 18) {
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], cur);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e, G / 5);
  if constexpr (G >= 1 && G <= 16) {
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], cur);
  }
  if constexpr (G >= 2 && G <= 17) {
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], cur);
  }
}

template <int... G>
SINTRA_SHA_INLINE void sha1_rounds(__m128i& abcd, __m128i& e0, __m128i& e1,
                                   __m128i (&m)[4], const std::uint8_t* block,
                                   std::integer_sequence<int, G...>) {
  // The two E registers alternate: even groups consume e0 and refill e1.
  (sha1_group<G>(abcd, G % 2 == 0 ? e0 : e1, G % 2 == 0 ? e1 : e0, m, block),
   ...);
}

SINTRA_SHA_TARGET void sha1_shani(std::uint32_t* state,
                                  const std::uint8_t* blocks,
                                  std::size_t nblocks) {
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i e1;
    __m128i m[4];
    sha1_rounds(abcd, e0, e1, m, blocks, std::make_integer_sequence<int, 20>{});
    // After group 19 (odd) e0 holds A..D before the last four rounds.
    e0 = _mm_sha1nexte_epu32(e0, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

// SHA-256 rounds 4G..4G+3 on the ABEF/CDGH pair.  `m[G % 4]` holds
// W[4G..4G+3]; the step also finishes W for group G+1 (alignr + msg2)
// and starts W for group G+3 (msg1).
template <int G>
SINTRA_SHA_INLINE void sha256_group(__m128i& abef, __m128i& cdgh,
                                    __m128i (&m)[4],
                                    const std::uint8_t* block) {
  if constexpr (G < 4) m[G] = load_be(block + 16 * G);
  const __m128i& cur = m[G % 4];
  __m128i wk = _mm_add_epi32(
      cur, _mm_load_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * G])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (G >= 3 && G <= 14) {
    __m128i& next = m[(G + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(G + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, cur);
  }
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  if constexpr (G >= 1 && G <= 12) {
    m[(G + 3) % 4] = _mm_sha256msg1_epu32(m[(G + 3) % 4], cur);
  }
}

template <int... G>
SINTRA_SHA_INLINE void sha256_rounds(__m128i& abef, __m128i& cdgh,
                                     __m128i (&m)[4],
                                     const std::uint8_t* block,
                                     std::integer_sequence<int, G...>) {
  (sha256_group<G>(abef, cdgh, m, block), ...);
}

SINTRA_SHA_TARGET void sha256_shani(std::uint32_t* state,
                                    const std::uint8_t* blocks,
                                    std::size_t nblocks) {
  // state[0..3] = A B C D, state[4..7] = E F G H  ->  ABEF, CDGH (named
  // from lane 3 down).
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i m[4];
    sha256_rounds(abef, cdgh, m, blocks,
                  std::make_integer_sequence<int, 16>{});
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_extensions() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") &&
           __builtin_cpu_supports("sse4.1") &&
           __builtin_cpu_supports("ssse3");
  }();
  return available;
}

}  // namespace

Kernel sha1_accelerated() {
  return cpu_has_sha_extensions() ? &sha1_shani : nullptr;
}

Kernel sha256_accelerated() {
  return cpu_has_sha_extensions() ? &sha256_shani : nullptr;
}

}  // namespace sintra::crypto::sha_kernels

#else  // no x86: only the portable kernels exist

namespace sintra::crypto::sha_kernels {

Kernel sha1_accelerated() { return nullptr; }
Kernel sha256_accelerated() { return nullptr; }

}  // namespace sintra::crypto::sha_kernels

#endif
