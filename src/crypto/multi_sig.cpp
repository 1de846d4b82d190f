#include "crypto/multi_sig.hpp"

#include <set>
#include <stdexcept>

#include "crypto/cost.hpp"
#include "util/serde.hpp"

namespace sintra::crypto {

MultiSigPublic::MultiSigPublic(int n, int k,
                               const std::vector<RsaPublicKey>& keys,
                               HashKind hash)
    : n(n), k(k), hash(hash) {
  verifiers.reserve(keys.size());
  for (const RsaPublicKey& key : keys) verifiers.emplace_back(key);
}

MultiSigScheme::MultiSigScheme(std::shared_ptr<const MultiSigPublic> pub,
                               int index,
                               std::shared_ptr<const RsaKeyPair> own_key)
    : pub_(std::move(pub)), index_(index), own_key_(std::move(own_key)) {}

Bytes MultiSigScheme::sign_share(BytesView msg) {
  if (own_key_ == nullptr)
    throw std::logic_error("MultiSigScheme: verify-only handle");
  const OpScope ops("multi_sig.sign_share");
  return rsa_sign(*own_key_, msg, pub_->hash);
}

bool MultiSigScheme::verify_share(BytesView msg, int signer,
                                  BytesView share) const {
  if (signer < 0 || signer >= pub_->n) return false;
  const OpScope ops("multi_sig.verify_share");
  return pub_->verifiers[static_cast<std::size_t>(signer)].verify(
      msg, share, pub_->hash, "multi_sig.verify_share");
}

Bytes MultiSigScheme::combine(
    BytesView msg, const std::vector<std::pair<int, Bytes>>& shares) const {
  (void)msg;  // shares are self-contained signatures
  if (static_cast<int>(shares.size()) < pub_->k)
    throw std::invalid_argument("MultiSigScheme::combine: need k shares");
  Writer w;
  w.u32(static_cast<std::uint32_t>(pub_->k));
  std::set<int> seen;
  int written = 0;
  for (const auto& [idx, sig] : shares) {
    if (written == pub_->k) break;
    if (idx < 0 || idx >= pub_->n || !seen.insert(idx).second)
      throw std::invalid_argument(
          "MultiSigScheme::combine: bad or duplicate signer index");
    w.u32(static_cast<std::uint32_t>(idx));
    w.bytes(sig);
    ++written;
  }
  return std::move(w).take();
}

bool MultiSigScheme::verify(BytesView msg, BytesView sig) const {
  const OpScope ops("multi_sig.verify");
  try {
    Reader r(sig);
    const std::uint32_t count = r.u32();
    if (count != static_cast<std::uint32_t>(pub_->k)) return false;
    std::set<int> seen;
    for (std::uint32_t i = 0; i < count; ++i) {
      const int idx = static_cast<int>(r.u32());
      const Bytes s = r.bytes();
      if (idx < 0 || idx >= pub_->n || !seen.insert(idx).second) return false;
      // One memo entry per component signature.
      if (!pub_->verifiers[static_cast<std::size_t>(idx)].verify(
              msg, s, pub_->hash, "multi_sig.verify")) {
        return false;
      }
    }
    r.expect_end();
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

}  // namespace sintra::crypto
