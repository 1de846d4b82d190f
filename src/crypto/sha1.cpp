#include "crypto/sha1.hpp"

#include <atomic>
#include <stdexcept>

#include "crypto/sha_kernels.hpp"

namespace sintra::crypto {

namespace sha_kernels {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

// Branch-free round functions (Ch and Maj in their 3-op forms).
constexpr std::uint32_t f_ch(std::uint32_t b, std::uint32_t c,
                             std::uint32_t d) {
  return d ^ (b & (c ^ d));
}
constexpr std::uint32_t f_parity(std::uint32_t b, std::uint32_t c,
                                 std::uint32_t d) {
  return b ^ c ^ d;
}
constexpr std::uint32_t f_maj(std::uint32_t b, std::uint32_t c,
                              std::uint32_t d) {
  return (b & c) | (d & (b | c));
}

// One round with the working variables renamed instead of shifted: the
// caller rotates the argument order, so the only writes are e and b.
template <std::uint32_t (*F)(std::uint32_t, std::uint32_t, std::uint32_t),
          std::uint32_t K>
inline void sha1_round(std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                       std::uint32_t d, std::uint32_t& e, std::uint32_t w) {
  e += rotl(a, 5) + F(b, c, d) + K + w;
  b = rotl(b, 30);
}

// Twenty rounds sharing one round function; W lives in a 16-word ring.
template <std::uint32_t (*F)(std::uint32_t, std::uint32_t, std::uint32_t),
          std::uint32_t K, int First>
inline void twenty_rounds(std::uint32_t& a, std::uint32_t& b,
                          std::uint32_t& c, std::uint32_t& d,
                          std::uint32_t& e, std::uint32_t (&w)[16]) {
  const auto next = [&w](int t) {
    if (t < 16) return w[t];
    std::uint32_t& slot = w[t & 15];
    slot = rotl(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ slot,
                1);
    return slot;
  };
#pragma GCC unroll 4
  for (int t = First; t < First + 20; t += 5) {
    sha1_round<F, K>(a, b, c, d, e, next(t));
    sha1_round<F, K>(e, a, b, c, d, next(t + 1));
    sha1_round<F, K>(d, e, a, b, c, next(t + 2));
    sha1_round<F, K>(c, d, e, a, b, next(t + 3));
    sha1_round<F, K>(b, c, d, e, a, next(t + 4));
  }
}

Kernel resolve_sha1() {
  const Kernel accelerated = sha1_accelerated();
  return accelerated != nullptr ? accelerated : &sha1_portable;
}

// The kernel Sha1::compress runs, chosen on first use.
std::atomic<Kernel>& active_sha1() {
  static std::atomic<Kernel> kernel{resolve_sha1()};
  return kernel;
}

}  // namespace

void sha1_portable(std::uint32_t* state, const std::uint8_t* blocks,
                   std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += kBlockSize) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    twenty_rounds<f_ch, 0x5A827999u, 0>(a, b, c, d, e, w);
    twenty_rounds<f_parity, 0x6ED9EBA1u, 20>(a, b, c, d, e, w);
    twenty_rounds<f_maj, 0x8F1BBCDCu, 40>(a, b, c, d, e, w);
    twenty_rounds<f_parity, 0xCA62C1D6u, 60>(a, b, c, d, e, w);
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

Kernel exchange_sha1_kernel(Kernel kernel) {
  return active_sha1().exchange(kernel);
}

}  // namespace sha_kernels

void Sha1::compress(std::array<std::uint32_t, 5>& state,
                    const std::uint8_t* data, std::size_t nblocks) {
  sha_kernels::active_sha1().load(std::memory_order_relaxed)(
      state.data(), data, nblocks);
}

Sha1::Sha1()
    : h_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u} {}

Sha1& Sha1::update(BytesView data) {
  if (finalized_) throw std::logic_error("Sha1: update after digest");
  total_len_ += data.size();
  sha_kernels::absorb(buffer_.data(), buffer_len_, data.data(), data.size(),
                      [this](const std::uint8_t* blocks, std::size_t n) {
                        compress(h_, blocks, n);
                      });
  return *this;
}

Bytes Sha1::digest() {
  if (finalized_) throw std::logic_error("Sha1: digest called twice");
  finalized_ = true;
  sha_kernels::finish(buffer_.data(), buffer_len_, total_len_,
                      [this](const std::uint8_t* blocks, std::size_t n) {
                        compress(h_, blocks, n);
                      });
  Bytes out(kDigestSize);
  sha_kernels::store_be(out.data(), h_.data(), h_.size());
  return out;
}

Bytes Sha1::hash(BytesView data) { return Sha1().update(data).digest(); }

}  // namespace sintra::crypto
