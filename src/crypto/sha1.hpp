// SHA-1 (FIPS 180-1).
//
// The paper's prototype uses SHA-1 both for HMAC link authentication and
// as the hash inside the signature / coin-tossing schemes; we implement it
// from scratch.  (SHA-1 is cryptographically broken today — this module
// exists for protocol fidelity; the schemes also run with SHA-256.)
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sintra::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1();

  Sha1& update(BytesView data);
  /// Finalizes and returns the 20-byte digest; the object must not be
  /// updated afterwards.
  [[nodiscard]] Bytes digest();

  /// One-shot convenience.
  static Bytes hash(BytesView data);

 private:
  /// Compresses `nblocks` consecutive 64-byte blocks into `state` with
  /// the fastest kernel this CPU runs (crypto/sha_kernels.hpp).
  static void compress(std::array<std::uint32_t, 5>& state,
                       const std::uint8_t* data, std::size_t nblocks);

  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

}  // namespace sintra::crypto
