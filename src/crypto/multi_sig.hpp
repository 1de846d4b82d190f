// Multi-signatures: the vector-of-ordinary-signatures implementation of
// the ThresholdSigScheme interface (paper §2.1).
//
// A "share" is party i's standard RSA-FDH signature; the assembled
// "threshold signature" is a list of k (signer, signature) pairs.  No
// change is needed in the protocols that use threshold signatures — this
// is exactly the drop-in property the paper exploits, and the
// configuration the experiments ran ("threshold signatures are
// implemented as multi-signatures if nothing else is mentioned", §4).
#pragma once

#include <memory>
#include <vector>

#include "crypto/threshold_sig.hpp"

namespace sintra::crypto {

/// Public data: every party's standard signature verification key.
struct MultiSigPublic {
  MultiSigPublic(int n, int k, const std::vector<RsaPublicKey>& keys,
                 HashKind hash);

  int n = 0;
  int k = 0;
  /// verifiers[i] checks party i's signatures; built once per key.
  std::vector<RsaVerifier> verifiers;
  HashKind hash = HashKind::kSha256;
};

class MultiSigScheme final : public ThresholdSigScheme {
 public:
  /// `own_key` is this party's standard RSA key pair (empty optional for a
  /// verify-only handle).
  MultiSigScheme(std::shared_ptr<const MultiSigPublic> pub, int index,
                 std::shared_ptr<const RsaKeyPair> own_key);

  [[nodiscard]] int n() const override { return pub_->n; }
  [[nodiscard]] int k() const override { return pub_->k; }
  [[nodiscard]] int index() const override { return index_; }

  [[nodiscard]] Bytes sign_share(BytesView msg) override;
  [[nodiscard]] bool verify_share(BytesView msg, int signer,
                                  BytesView share) const override;
  [[nodiscard]] Bytes combine(
      BytesView msg,
      const std::vector<std::pair<int, Bytes>>& shares) const override;
  [[nodiscard]] bool verify(BytesView msg, BytesView sig) const override;

 private:
  std::shared_ptr<const MultiSigPublic> pub_;
  int index_;
  std::shared_ptr<const RsaKeyPair> own_key_;
};

}  // namespace sintra::crypto
