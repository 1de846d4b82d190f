// SHA-1 / SHA-256 compression kernels (internal; include only from the
// hash classes, their tests and the crypto micro-benchmarks).
//
// Each hash has a portable kernel and, on x86, one built on the SHA
// extensions (sha1rnds4/sha1nexte/sha1msg1/2, sha256rnds2/sha256msg1/2).
// Sha1::compress / Sha256::compress run the accelerated kernel when the
// CPU has the extensions and the portable one otherwise; the choice is
// made once per process.  Every kernel produces bit-identical state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sintra::crypto::sha_kernels {

/// Compresses `nblocks` consecutive 64-byte blocks into `state` (five
/// words for SHA-1, eight for SHA-256).
using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                        std::size_t nblocks);

void sha1_portable(std::uint32_t* state, const std::uint8_t* blocks,
                   std::size_t nblocks);
void sha256_portable(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks);

/// The SHA-extension kernels, or nullptr when this build or this CPU
/// lacks them.
Kernel sha1_accelerated();
Kernel sha256_accelerated();

/// Replaces the kernel Sha1::compress / Sha256::compress run and returns
/// the previous one, so tests and benchmarks can drive the whole hash
/// (update, padding, HMAC) through either kernel.  Not for use while
/// another thread is hashing.
Kernel exchange_sha1_kernel(Kernel kernel);
Kernel exchange_sha256_kernel(Kernel kernel);

inline constexpr std::size_t kBlockSize = 64;

/// SHA-256 round constants (FIPS 180-2 §4.2.2), aligned for vector loads.
alignas(16) inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};


/// Merkle–Damgård buffering shared by both hashes: whole blocks of `data`
/// go straight to `compress(blocks, nblocks)`; only a partial head and
/// tail are copied into the `buffer` of `buffer_len` pending bytes.
template <typename Compress>
void absorb(std::uint8_t* buffer, std::size_t& buffer_len,
            const std::uint8_t* data, std::size_t len, Compress compress) {
  if (len == 0) return;  // an empty span's data() may be null
  if (buffer_len > 0) {
    const std::size_t take = std::min(len, kBlockSize - buffer_len);
    std::memcpy(buffer + buffer_len, data, take);
    buffer_len += take;
    data += take;
    len -= take;
    if (buffer_len < kBlockSize) return;
    compress(buffer, 1);
    buffer_len = 0;
  }
  const std::size_t nblocks = len / kBlockSize;
  if (nblocks > 0) compress(data, nblocks);
  buffer_len = len % kBlockSize;
  if (buffer_len > 0) {
    std::memcpy(buffer, data + nblocks * kBlockSize, buffer_len);
  }
}

/// Pads the pending bytes (0x80, zeros, the 64-bit big-endian bit
/// length of the whole message) and compresses the last block or two.
template <typename Compress>
void finish(std::uint8_t* buffer, std::size_t buffer_len,
            std::uint64_t total_len, Compress compress) {
  buffer[buffer_len++] = 0x80;
  if (buffer_len > kBlockSize - 8) {
    std::memset(buffer + buffer_len, 0, kBlockSize - buffer_len);
    compress(buffer, 1);
    buffer_len = 0;
  }
  std::memset(buffer + buffer_len, 0, kBlockSize - 8 - buffer_len);
  const std::uint64_t bit_len = total_len * 8;
  for (int i = 0; i < 8; ++i) {
    buffer[kBlockSize - 8 + i] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(buffer, 1);
}

/// Serializes the state words big-endian into `out`.
inline void store_be(std::uint8_t* out, const std::uint32_t* state,
                     std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace sintra::crypto::sha_kernels
