// Standard RSA signatures (full-domain-hash style), used for:
//  - each party's per-message signature in the atomic broadcast protocol
//    (paper §2.5: "every party first signs the next message to send
//    together with the current round number");
//  - the multi-signature implementation of threshold signatures
//    (paper §2.1);
//  - and as the base arithmetic of Shoup's threshold RSA scheme.
//
// Signing uses CRT (two half-size exponentiations), which is what makes
// multi-signatures cheap in Figure 6 of the paper.
#pragma once

#include "bignum/bigint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/prime.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace sintra::crypto {

using bignum::BigInt;

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  [[nodiscard]] std::size_t modulus_bytes() const {
    return static_cast<std::size_t>(n.bit_length() + 7) / 8;
  }

  void write(Writer& w) const;
  static RsaPublicKey read(Reader& r);

  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  BigInt d;
  // CRT components.
  BigInt p, q, dp, dq, qinv;
};

/// Generates an RSA key with modulus of exactly `bits` bits.
/// If `safe_primes`, p and q are safe primes (needed by Shoup threshold
/// signatures; slower to generate).
RsaKeyPair rsa_generate(Rng& rng, int bits, bool safe_primes = false,
                        const BigInt& e = BigInt{65537});

/// Deterministic full-domain-style encoding of a message into Z_n:
/// expands H(msg) with a counter and reduces mod n.
BigInt rsa_fdh(BytesView msg, const BigInt& n, HashKind hash);

/// FDH signature: rsa_fdh(msg)^d mod n via CRT; returned big-endian,
/// padded to the modulus size.
Bytes rsa_sign(const RsaKeyPair& key, BytesView msg,
               HashKind hash = HashKind::kSha256);

/// Verifies sig^e == rsa_fdh(msg) mod n.  False on malformed input.
/// Always does the full exponentiation (builds a Montgomery context per
/// call and never consults a VerifyMemo): the raw cost of one verify.
/// Same as RsaVerifier(key).verify_full(msg, sig, hash).
bool rsa_verify(const RsaPublicKey& key, BytesView msg, BytesView sig,
                HashKind hash = HashKind::kSha256);

/// One RSA public key prepared for repeated verification: the Montgomery
/// context for n is built once here instead of on every call, and the
/// key's length-prefixed (n, e) encoding is kept for VerifyMemo digests.
/// Immutable after construction, so one instance may serve any number of
/// threads (the arithmetic scratch is thread-local).
class RsaVerifier {
 public:
  /// n must be odd and > 1 (every RSA modulus is).
  explicit RsaVerifier(RsaPublicKey pub);

  /// Same result as rsa_verify(pub, msg, sig, hash).  A hit in the
  /// calling thread's VerifyMemo (crypto/verify_memo.hpp) skips the
  /// arithmetic and is counted as crypto.verify_memo_hits{op}; a full
  /// verification that succeeds is recorded there.  `op` must be a string
  /// literal.
  [[nodiscard]] bool verify(BytesView msg, BytesView sig, HashKind hash,
                            const char* op) const;

  /// The check itself: sig^e == rsa_fdh(msg) mod n, false on malformed
  /// input.  Never consults or fills a VerifyMemo.
  [[nodiscard]] bool verify_full(BytesView msg, BytesView sig,
                                 HashKind hash) const;

 private:
  RsaPublicKey pub_;
  bignum::Montgomery mont_;
  Bytes key_encoding_;  // length-prefixed n and e
};

}  // namespace sintra::crypto
