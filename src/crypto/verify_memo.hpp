// Per-node memo of positive RSA verification results ("verify once").
//
// The atomic broadcast signs each bundle once, but its external-validity
// predicate, the consistent-broadcast closings and the agreement
// justifications re-check the same (key, message, signature) every time a
// proposal, vote or proof passes through a validator (paper §2.5, §3.2).
// A VerifyMemo remembers which of those checks already succeeded on this
// node, so a repeat costs one SHA-256 instead of a modular exponentiation.
//
// Soundness:
//   - the key is SHA-256 over a length-prefixed encoding of *everything*
//     the result depends on — modulus, public exponent, hash kind, message
//     and signature — so a hit implies the identical verification already
//     succeeded (a different key, hash kind, message or any changed
//     signature byte yields a different digest);
//   - only positive results are stored: a forged or corrupted signature is
//     re-verified in full every time it is presented;
//   - the memo belongs to one node: every core::Environment implementation
//     owns one and installs it (Scope) around the handlers it runs, so no
//     hits leak between parties, clusters or simulator runs, and a
//     restarted node starts empty.
//
// Verification entry points (crypto::RsaVerifier::verify) consult the
// memo installed on the calling thread; with none installed they verify in
// full, which is what direct library calls, tests and benchmarks of the
// raw operation get.
//
// Bounded by a constant: two generations of kGenerationCapacity digests.
// Inserts go to the young generation; when it fills it becomes the old
// one and the previous old generation is dropped.  A hit in the old
// generation is promoted, so statements still being re-checked survive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <unordered_set>

namespace sintra::crypto {

class VerifyMemo {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  /// Digests per generation; the memo never holds more than twice this.
  static constexpr std::size_t kGenerationCapacity = 4096;

  VerifyMemo() = default;
  VerifyMemo(const VerifyMemo&) = delete;
  VerifyMemo& operator=(const VerifyMemo&) = delete;

  /// True if `d` was recorded as a successful verification.
  [[nodiscard]] bool contains(const Digest& d);
  /// Records a successful verification.
  void insert(const Digest& d);
  [[nodiscard]] std::size_t size() const;

  /// The memo installed on the calling thread (nullptr if none).
  [[nodiscard]] static VerifyMemo* current() noexcept;

  /// Installs `memo` (may be nullptr) as the calling thread's memo for the
  /// scope's lifetime, restoring the previous one afterwards.
  class Scope {
   public:
    explicit Scope(VerifyMemo* memo) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    VerifyMemo* previous_;
  };

 private:
  struct DigestHash {
    std::size_t operator()(const Digest& d) const noexcept {
      std::size_t h = 0;
      std::memcpy(&h, d.data(), sizeof h);
      return h;
    }
  };
  using Generation = std::unordered_set<Digest, DigestHash>;

  void insert_locked(const Digest& d);

  // Worker threads of a node's crypto pool verify under the same memo as
  // the loop thread (crypto::WorkPool carries the submitter's memo).
  mutable std::mutex mu_;
  Generation young_;
  Generation old_;
};

}  // namespace sintra::crypto
