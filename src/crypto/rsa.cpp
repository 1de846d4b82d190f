#include "crypto/rsa.hpp"

#include <stdexcept>

#include "crypto/cost.hpp"
#include "crypto/verify_memo.hpp"

namespace sintra::crypto {

void RsaPublicKey::write(Writer& w) const {
  n.write(w);
  e.write(w);
}

RsaPublicKey RsaPublicKey::read(Reader& r) {
  RsaPublicKey out;
  out.n = BigInt::read(r);
  out.e = BigInt::read(r);
  return out;
}

RsaKeyPair rsa_generate(Rng& rng, int bits, bool safe_primes,
                        const BigInt& e) {
  if (bits < 32) throw std::domain_error("rsa_generate: modulus too small");
  const int half = bits / 2;
  for (;;) {
    const BigInt p = safe_primes ? bignum::random_safe_prime(rng, half)
                                 : bignum::random_prime(rng, half);
    const BigInt q = safe_primes ? bignum::random_safe_prime(rng, bits - half)
                                 : bignum::random_prime(rng, bits - half);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigInt phi = (p - BigInt{1}) * (q - BigInt{1});
    if (BigInt::gcd(e, phi) != BigInt{1}) continue;
    RsaKeyPair key;
    key.pub = {n, e};
    key.d = e.mod_inverse(phi);
    key.p = p;
    key.q = q;
    key.dp = key.d.mod(p - BigInt{1});
    key.dq = key.d.mod(q - BigInt{1});
    key.qinv = q.mod_inverse(p);
    return key;
  }
}

BigInt rsa_fdh(BytesView msg, const BigInt& n, HashKind hash) {
  const std::size_t nbytes = static_cast<std::size_t>(n.bit_length() + 7) / 8;
  Bytes material;
  std::uint32_t block = 0;
  while (material.size() < nbytes + 8) {
    Writer w;
    w.u32(block++);
    w.raw(msg);
    const Bytes d = hash_bytes(hash, w.data());
    material.insert(material.end(), d.begin(), d.end());
  }
  return BigInt::from_bytes(material).mod(n);
}

Bytes rsa_sign(const RsaKeyPair& key, BytesView msg, HashKind hash) {
  const BigInt x = rsa_fdh(msg, key.pub.n, hash);
  // CRT: two half-size exponentiations.
  const bignum::Montgomery mp(key.p);
  const bignum::Montgomery mq(key.q);
  const BigInt m1 = mp.pow(x.mod(key.p), key.dp);
  const BigInt m2 = mq.pow(x.mod(key.q), key.dq);
  const BigInt h = (key.qinv * (m1 - m2)).mod(key.p);
  const BigInt s = m2 + key.q * h;
  return s.to_bytes_padded(key.pub.modulus_bytes());
}

bool rsa_verify(const RsaPublicKey& key, BytesView msg, BytesView sig,
                HashKind hash) {
  return RsaVerifier(key).verify_full(msg, sig, hash);
}

RsaVerifier::RsaVerifier(RsaPublicKey pub)
    : pub_(std::move(pub)), mont_(pub_.n) {
  Writer w;
  pub_.write(w);  // length-prefixed n, then e
  key_encoding_ = std::move(w).take();
}

bool RsaVerifier::verify_full(BytesView msg, BytesView sig,
                              HashKind hash) const {
  if (sig.size() != pub_.modulus_bytes()) return false;
  const BigInt s = BigInt::from_bytes(sig);
  if (s >= pub_.n) return false;
  return mont_.pow(s, pub_.e) == rsa_fdh(msg, pub_.n, hash);
}

bool RsaVerifier::verify(BytesView msg, BytesView sig, HashKind hash,
                         const char* op) const {
  VerifyMemo* memo = VerifyMemo::current();
  if (memo == nullptr) return verify_full(msg, sig, hash);

  // Memo key: SHA-256 over everything the result depends on, each field
  // length-prefixed (the key encoding carries its own prefixes).
  Writer w;
  w.u8(hash == HashKind::kSha1 ? 1 : 2);
  w.raw(key_encoding_);
  w.bytes(msg);
  w.bytes(sig);
  const Bytes digest = Sha256::hash(w.data());
  VerifyMemo::Digest key{};
  std::copy(digest.begin(), digest.end(), key.begin());

  if (memo->contains(key)) {
    count_verify_memo_hit(op);
    return true;
  }
  if (!verify_full(msg, sig, hash)) return false;  // never memoized
  memo->insert(key);
  return true;
}

}  // namespace sintra::crypto
