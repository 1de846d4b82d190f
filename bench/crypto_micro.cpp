// Crypto-substrate microbenchmarks (google-benchmark).
//
// Not a paper table — this validates the cost *model*: the relative costs
// measured here (CRT signing ~4x cheaper than full modexp, share
// generation dominated by one or two exponentiations, verification with
// e=65537 nearly free) are what drive the shapes of Table 1 and Figure 6
// through the simulator's work accounting.
// The *Fast benchmarks exercise the shipped simultaneous-multi-exp /
// comb-table paths (their pre-fast-path counterparts are recorded in
// BENCH_crypto.json and docs/CRYPTO.md).  Every benchmark also reports the
// Montgomery work counter per operation — the unit the simulator's
// virtual clock is driven by.
#include <benchmark/benchmark.h>

#include "bignum/montgomery.hpp"
#include "crypto/coin.hpp"
#include "crypto/dealer.hpp"
#include "crypto/group.hpp"
#include "crypto/tdh2.hpp"

namespace {

using namespace sintra;
using crypto::BigInt;

// Reports bignum work units per operation alongside wall-clock time.
class WorkTracker {
 public:
  explicit WorkTracker(benchmark::State& state)
      : state_(state), start_(bignum::work_counter()) {}
  ~WorkTracker() {
    const std::uint64_t total = bignum::work_counter() - start_;
    state_.counters["work_per_op"] = benchmark::Counter(
        static_cast<double>(total) /
        static_cast<double>(std::max<std::int64_t>(1, state_.iterations())));
  }
  WorkTracker(const WorkTracker&) = delete;
  WorkTracker& operator=(const WorkTracker&) = delete;

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

struct Fixture {
  crypto::Deal deal;
  Bytes msg = to_bytes("benchmark message under 32B");

  explicit Fixture(int rsa_bits,
                   crypto::SigImpl impl = crypto::SigImpl::kMultiSig) {
    crypto::DealerConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    cfg.rsa_bits = rsa_bits;
    cfg.dl_p_bits = 1024;
    cfg.dl_q_bits = 160;
    cfg.hash = crypto::HashKind::kSha1;
    cfg.sig_impl = impl;
    deal = crypto::run_dealer(cfg);
  }
};

Fixture& fixture(int rsa_bits, crypto::SigImpl impl) {
  static std::map<std::pair<int, int>, std::unique_ptr<Fixture>> cache;
  auto key = std::pair{rsa_bits, static_cast<int>(impl)};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<Fixture>(rsa_bits, impl)).first;
  }
  return *it->second;
}

void BM_Modexp(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(1);
  const BigInt m =
      (BigInt{1} << bits) - BigInt{static_cast<std::int64_t>(129)};
  const bignum::Montgomery mont(m);
  const BigInt base = BigInt::random_below(rng, m);
  const BigInt e = BigInt::random_bits(rng, bits);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.pow(base, e));
  }
}
BENCHMARK(BM_Modexp)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_RsaSignCrt(benchmark::State& state) {
  Fixture& fx =
      fixture(static_cast<int>(state.range(0)), crypto::SigImpl::kMultiSig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.deal.parties[0].sign(fx.msg));
  }
}
BENCHMARK(BM_RsaSignCrt)->Arg(512)->Arg(1024);

// The raw cost of one verification: the free function does the full
// exponentiation every call (no per-key context, no VerifyMemo), so a
// repeated (msg, sig) is never a memo hit here.
void BM_RsaVerify(benchmark::State& state) {
  Fixture& fx =
      fixture(static_cast<int>(state.range(0)), crypto::SigImpl::kMultiSig);
  const Bytes sig = fx.deal.parties[0].sign(fx.msg);
  const crypto::PartyKeys& signer = fx.deal.parties[0];
  if (!crypto::rsa_verify(signer.own_rsa->pub, fx.msg, sig, signer.hash)) {
    state.SkipWithError("signature does not verify");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::rsa_verify(signer.own_rsa->pub, fx.msg, sig, signer.hash));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

void BM_ThresholdSigShare(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[0].sig_broadcast->sign_share(fx.msg));
  }
}
BENCHMARK(BM_ThresholdSigShare)->Arg(512)->Arg(1024);

void BM_ThresholdSigVerifyShare(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  const Bytes share = fx.deal.parties[0].sig_broadcast->sign_share(fx.msg);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[1].sig_broadcast->verify_share(fx.msg, 0, share));
  }
}
BENCHMARK(BM_ThresholdSigVerifyShare)->Arg(512)->Arg(1024);

void BM_ThresholdSigCombine(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < fx.deal.parties[0].sig_broadcast->k(); ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].sig_broadcast
               ->sign_share(fx.msg));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[0].sig_broadcast->combine(fx.msg, shares));
  }
}
BENCHMARK(BM_ThresholdSigCombine)->Arg(512)->Arg(1024);

void BM_CoinRelease(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  std::uint64_t i = 0;
  WorkTracker wt(state);
  for (auto _ : state) {
    Writer w;
    w.u64(i++);
    benchmark::DoNotOptimize(fx.deal.parties[0].coin->release(w.data()));
  }
}
BENCHMARK(BM_CoinRelease);

void BM_CoinVerifyAndAssemble(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 2; ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].coin->release(name));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    bool ok = fx.deal.parties[2].coin->verify_share(name, 0, shares[0].second);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(
        fx.deal.parties[2].coin->assemble_bit(name, shares));
  }
}
BENCHMARK(BM_CoinVerifyAndAssemble);

void BM_Tdh2Encrypt(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  Rng rng(7);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.encryption_key->encrypt(fx.msg, to_bytes("L"), rng));
  }
}
BENCHMARK(BM_Tdh2Encrypt);

void BM_Tdh2DecryptShare(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  Rng rng(8);
  const Bytes ct = fx.deal.encryption_key->encrypt(fx.msg, to_bytes("L"), rng);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.deal.parties[0].cipher->decrypt_share(ct));
  }
}
BENCHMARK(BM_Tdh2DecryptShare);

void BM_Tdh2Combine(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  Rng rng(9);
  const Bytes ct = fx.deal.encryption_key->encrypt(fx.msg, to_bytes("L"), rng);
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 2; ++i) {
    shares.emplace_back(
        i,
        *fx.deal.parties[static_cast<std::size_t>(i)].cipher->decrypt_share(ct));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.deal.parties[3].cipher->combine(ct, shares));
  }
}
BENCHMARK(BM_Tdh2Combine);

// --- DLEQ fast paths -------------------------------------------------------

struct DleqBench {
  crypto::DlogGroup grp;  // private copy: its precomputation cache is ours
  BigInt vk;              // h1 = g^x, a long-lived verification key
  BigInt base;            // g2 = H2G(name), fresh per coin
  BigInt gi;              // h2 = base^x, fresh per share
  crypto::DleqProof proof;
  BigInt c;               // the proof's recomputed Fiat–Shamir challenge

  DleqBench()
      : grp(fixture(1024, crypto::SigImpl::kMultiSig)
                .deal.encryption_key->group) {
    Rng rng(0xd1e9);
    const BigInt x = grp.random_exponent(rng);
    vk = grp.exp(grp.g(), x);
    base = grp.hash_to_group(to_bytes("bench dleq base"));
    gi = grp.exp(base, x);
    proof = crypto::dleq_prove(grp, grp.g(), vk, base, gi, x, rng);
    Writer w;
    grp.g().write(w);
    vk.write(w);
    base.write(w);
    gi.write(w);
    proof.a1.write(w);
    proof.a2.write(w);
    c = grp.hash_to_exponent(w.data());
  }
};

DleqBench& dleq_bench() {
  static DleqBench b;
  return b;
}

void BM_SingleExp(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  Rng rng(11);
  const BigInt e = b.grp.random_exponent(rng);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.grp.exp(b.grp.g(), e));
  }
}
BENCHMARK(BM_SingleExp);

void BM_SingleExpFixedBase(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  Rng rng(12);
  const BigInt e = b.grp.random_exponent(rng);
  benchmark::DoNotOptimize(b.grp.exp_cached(b.grp.g(), e));  // warm the comb
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.grp.exp_cached(b.grp.g(), e));
  }
}
BENCHMARK(BM_SingleExpFixedBase);

void BM_DualExpFast(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  benchmark::DoNotOptimize(
      b.grp.dual_exp_neg(b.grp.g(), b.proof.z, true, b.vk, b.c, true));
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.grp.dual_exp_neg(b.grp.g(), b.proof.z, true, b.vk, b.c, true));
  }
}
BENCHMARK(BM_DualExpFast);

void BM_DleqVerifyFast(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  const crypto::DleqHints hints{.g1_long_lived = true,
                                .h1_long_lived = true,
                                .g2_long_lived = false,
                                .h2_long_lived = false};
  benchmark::DoNotOptimize(
      crypto::dleq_verify(b.grp, b.grp.g(), b.vk, b.base, b.gi, b.proof,
                          hints));  // warm the combs
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::dleq_verify(b.grp, b.grp.g(), b.vk, b.base, b.gi, b.proof,
                            hints));
  }
}
BENCHMARK(BM_DleqVerifyFast);

// --- Optimistic verification: eager per-share checks vs combine-first ----

void BM_ThresholdCombine_Eager(benchmark::State& state) {
  // Pre-optimistic operation sequence: every share in the chosen set is
  // verified individually before the combine (what the protocols did when
  // each arriving echo-share was checked on receipt).
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  const auto& sig = *fx.deal.parties[0].sig_broadcast;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < sig.k(); ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].sig_broadcast
               ->sign_share(fx.msg));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    for (const auto& [i, share] : shares) {
      benchmark::DoNotOptimize(sig.verify_share(fx.msg, i, share));
    }
    benchmark::DoNotOptimize(sig.combine(fx.msg, shares));
  }
}
BENCHMARK(BM_ThresholdCombine_Eager)->Arg(512)->Arg(1024);

void BM_ThresholdCombine_Optimistic(benchmark::State& state) {
  // Combine-first fast path on the fault-free trace: one unverified
  // combine plus one public-exponent verification of the result — the
  // k per-share proof checks disappear.
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  const auto& sig = *fx.deal.parties[0].sig_broadcast;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < sig.k(); ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].sig_broadcast
               ->sign_share(fx.msg));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.combine_checked(fx.msg, shares));
  }
}
BENCHMARK(BM_ThresholdCombine_Optimistic)->Arg(512)->Arg(1024);

void BM_CoinAssemble_Eager(benchmark::State& state) {
  // Pre-optimistic coin round at a node: all n released shares arrive and
  // each is verified on receipt (the node cannot know which k will land
  // first), then the first k assemble the bit.
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin assemble");
  const auto& coin = *fx.deal.parties[0].coin;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 4; ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].coin->release(name));
  }
  const std::vector<std::pair<int, Bytes>> first_k(
      shares.begin(), shares.begin() + coin.k());
  benchmark::DoNotOptimize(coin.verify_share(name, 0, shares[0].second));
  WorkTracker wt(state);
  for (auto _ : state) {
    for (const auto& [i, share] : shares) {
      benchmark::DoNotOptimize(coin.verify_share(name, i, share));
    }
    benchmark::DoNotOptimize(coin.assemble_bit(name, first_k));
  }
}
BENCHMARK(BM_CoinAssemble_Eager);

void BM_CoinAssemble_Optimistic(benchmark::State& state) {
  // Batch-first fast path: one RLC DLEQ check over the k chosen shares
  // plus one batched membership exponentiation, then the assemble; the
  // n-k surplus shares are never verified at all.
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin assemble");
  const auto& coin = *fx.deal.parties[0].coin;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 4; ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].coin->release(name));
  }
  benchmark::DoNotOptimize(coin.assemble_bit_checked(name, shares));
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coin.assemble_bit_checked(name, shares));
  }
}
BENCHMARK(BM_CoinAssemble_Optimistic);

void BM_BatchDleqVerify(benchmark::State& state) {
  // RLC batch verification of m proofs sharing both bases (the coin /
  // TDH2 shape), batched membership — the amortized cost per proof is
  // what falls as m grows.
  DleqBench& b = dleq_bench();
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(0xba7c);
  std::vector<crypto::DleqStatement> stmts;
  stmts.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    const BigInt x = b.grp.random_exponent(rng);
    crypto::DleqStatement s;
    s.g1 = b.grp.g();
    s.h1 = b.grp.exp(b.grp.g(), x);
    s.g2 = b.base;
    s.h2 = b.grp.exp(b.base, x);
    s.proof = crypto::dleq_prove(b.grp, s.g1, s.h1, s.g2, s.h2, x, rng);
    stmts.push_back(std::move(s));
  }
  benchmark::DoNotOptimize(crypto::dleq_batch_verify(
      b.grp, stmts, rng, {}, crypto::BatchMembership::kBatched));
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::dleq_batch_verify(
        b.grp, stmts, rng, {}, crypto::BatchMembership::kBatched));
  }
}
BENCHMARK(BM_BatchDleqVerify)->Arg(4)->Arg(16)->Arg(64);

void BM_CoinShareVerifyFast(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin fastpath");
  const Bytes share = fx.deal.parties[0].coin->release(name);
  benchmark::DoNotOptimize(
      fx.deal.parties[2].coin->verify_share(name, 0, share));  // warm caches
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[2].coin->verify_share(name, 0, share));
  }
}
BENCHMARK(BM_CoinShareVerifyFast);

}  // namespace

BENCHMARK_MAIN();
