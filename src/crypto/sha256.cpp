#include "crypto/sha256.hpp"

#include <atomic>
#include <stdexcept>

#include "crypto/sha1.hpp"
#include "crypto/sha_kernels.hpp"

namespace sintra::crypto {

namespace sha_kernels {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int k) {
  return (x >> k) | (x << (32 - k));
}

Kernel resolve_sha256() {
  const Kernel accelerated = sha256_accelerated();
  return accelerated != nullptr ? accelerated : &sha256_portable;
}

// The kernel Sha256::compress runs, chosen on first use.
std::atomic<Kernel>& active_sha256() {
  static std::atomic<Kernel> kernel{resolve_sha256()};
  return kernel;
}

}  // namespace

void sha256_portable(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Kernel exchange_sha256_kernel(Kernel kernel) {
  return active_sha256().exchange(kernel);
}

}  // namespace sha_kernels

void Sha256::compress(std::array<std::uint32_t, 8>& state,
                      const std::uint8_t* data, std::size_t nblocks) {
  sha_kernels::active_sha256().load(std::memory_order_relaxed)(
      state.data(), data, nblocks);
}

Sha256::Sha256()
    : h_{0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
         0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u} {}

Sha256& Sha256::update(BytesView data) {
  if (finalized_) throw std::logic_error("Sha256: update after digest");
  total_len_ += data.size();
  sha_kernels::absorb(buffer_.data(), buffer_len_, data.data(), data.size(),
                      [this](const std::uint8_t* blocks, std::size_t n) {
                        compress(h_, blocks, n);
                      });
  return *this;
}

Bytes Sha256::digest() {
  if (finalized_) throw std::logic_error("Sha256: digest called twice");
  finalized_ = true;
  sha_kernels::finish(buffer_.data(), buffer_len_, total_len_,
                      [this](const std::uint8_t* blocks, std::size_t n) {
                        compress(h_, blocks, n);
                      });
  Bytes out(kDigestSize);
  sha_kernels::store_be(out.data(), h_.data(), h_.size());
  return out;
}

Bytes Sha256::hash(BytesView data) { return Sha256().update(data).digest(); }

Bytes hash_bytes(HashKind kind, BytesView data) {
  return kind == HashKind::kSha1 ? Sha1::hash(data) : Sha256::hash(data);
}

std::size_t hash_digest_size(HashKind kind) {
  return kind == HashKind::kSha1 ? Sha1::kDigestSize : Sha256::kDigestSize;
}

}  // namespace sintra::crypto
