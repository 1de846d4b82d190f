#include "crypto/dealer.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "crypto/cost.hpp"

namespace sintra::crypto {

namespace {

// Process-wide memoization of the expensive parameter generation.  Keyed
// by (bits, seed) so distinct configurations stay independent while
// repeated deals (tests, benchmark sweeps) are cheap.
std::mutex g_cache_mutex;

const RsaKeyPair& cached_safe_rsa(int bits, std::uint64_t seed) {
  static std::map<std::pair<int, std::uint64_t>, RsaKeyPair> cache;
  const std::lock_guard<std::mutex> lock(g_cache_mutex);
  auto it = cache.find({bits, seed});
  if (it == cache.end()) {
    Rng rng(seed ^ 0x5afeULL);
    it = cache.emplace(std::pair{bits, seed},
                       rsa_generate(rng, bits, /*safe_primes=*/true))
             .first;
  }
  return it->second;
}

const bignum::SchnorrGroup& cached_group(int p_bits, int q_bits,
                                         std::uint64_t seed) {
  static std::map<std::tuple<int, int, std::uint64_t>, bignum::SchnorrGroup>
      cache;
  const std::lock_guard<std::mutex> lock(g_cache_mutex);
  auto it = cache.find({p_bits, q_bits, seed});
  if (it == cache.end()) {
    Rng rng(seed ^ 0x96f0ULL);
    it = cache.emplace(std::tuple{p_bits, q_bits, seed},
                       bignum::generate_schnorr_group(rng, p_bits, q_bits))
             .first;
  }
  return it->second;
}

std::vector<RsaKeyPair> cached_party_rsa(int n, int bits, std::uint64_t seed) {
  static std::map<std::tuple<int, std::uint64_t>, std::vector<RsaKeyPair>>
      cache;
  const std::lock_guard<std::mutex> lock(g_cache_mutex);
  auto it = cache.find({bits, seed});
  if (it == cache.end()) {
    it = cache.emplace(std::tuple{bits, seed}, std::vector<RsaKeyPair>{})
             .first;
  }
  auto& keys = it->second;
  while (static_cast<int>(keys.size()) < n) {
    // Each additional key derives from a per-index seed so growing the
    // group preserves earlier parties' keys.
    Rng krng(seed ^ 0xba5eULL ^ (static_cast<std::uint64_t>(keys.size()) + 1));
    keys.push_back(rsa_generate(krng, bits, /*safe_primes=*/false));
  }
  return std::vector<RsaKeyPair>(keys.begin(), keys.begin() + n);
}

}  // namespace

bool PartyKeys::verify_party_sig(int j, BytesView msg, BytesView sig) const {
  if (j < 0 || j >= n) return false;
  const OpScope ops("party_sig.verify");
  return rsa_publics->verifiers[static_cast<std::size_t>(j)].verify(
      msg, sig, hash, "party_sig.verify");
}

Bytes PartyKeys::sign(BytesView msg) const {
  return rsa_sign(*own_rsa, msg, hash);
}

PartyKeys materialize(const RawPartyKeys& raw) {
  PartyKeys keys;
  keys.index = raw.index;
  keys.n = raw.n;
  keys.t = raw.t;
  keys.hash = raw.hash;
  keys.link_keys = raw.link_keys;
  keys.own_rsa = std::make_shared<const RsaKeyPair>(raw.own_rsa);
  keys.rsa_publics = std::make_shared<const MultiSigPublic>(
      MultiSigPublic{raw.n, raw.n, raw.all_rsa_publics, raw.hash});

  if (raw.sig_impl == SigImpl::kThresholdRsa) {
    if (!raw.threshold_broadcast || !raw.threshold_agreement)
      throw std::invalid_argument(
          "materialize: threshold-RSA key material missing");
    keys.sig_broadcast = std::make_shared<RsaThresholdScheme>(
        std::make_shared<const RsaThresholdPublic>(raw.threshold_broadcast->pub),
        raw.index, raw.threshold_broadcast->share,
        0x7e51 + static_cast<std::uint64_t>(raw.index));
    keys.sig_agreement = std::make_shared<RsaThresholdScheme>(
        std::make_shared<const RsaThresholdPublic>(raw.threshold_agreement->pub),
        raw.index, raw.threshold_agreement->share,
        0x7e52 + static_cast<std::uint64_t>(raw.index));
  } else {
    auto ms_broadcast = std::make_shared<const MultiSigPublic>(MultiSigPublic{
        raw.n, raw.k_broadcast, raw.all_rsa_publics, raw.hash});
    auto ms_agreement = std::make_shared<const MultiSigPublic>(MultiSigPublic{
        raw.n, raw.k_agreement, raw.all_rsa_publics, raw.hash});
    keys.sig_broadcast = std::make_shared<MultiSigScheme>(
        std::move(ms_broadcast), raw.index, keys.own_rsa);
    keys.sig_agreement = std::make_shared<MultiSigScheme>(
        std::move(ms_agreement), raw.index, keys.own_rsa);
  }

  const DlogGroup group(raw.coin_p, raw.coin_q, raw.coin_g, raw.hash);
  auto coin_pub = std::make_shared<const CoinPublic>(
      CoinPublic{raw.n, raw.coin_k, group, raw.coin_verification});
  keys.coin = std::make_shared<ThresholdCoin>(
      std::move(coin_pub), raw.index, raw.coin_share,
      0xc011 + static_cast<std::uint64_t>(raw.index));

  auto tdh2_pub = std::make_shared<const Tdh2Public>(
      Tdh2Public{raw.n, raw.tdh2_k, group, raw.tdh2_h, raw.tdh2_gbar,
                 raw.tdh2_verification});
  keys.cipher = std::make_shared<Tdh2Party>(
      std::move(tdh2_pub), raw.index, raw.tdh2_share,
      0x7d42 + static_cast<std::uint64_t>(raw.index));
  return keys;
}

Deal run_dealer(const DealerConfig& config) {
  const int n = config.n;
  const int t = config.t;
  if (n < 1 || t < 0 || n <= 3 * t)
    throw std::invalid_argument("run_dealer: need n > 3t and n >= 1");

  Rng rng(config.seed ^ 0xdea1e4ULL);

  // --- Per-party standard RSA keys ---
  const std::vector<RsaKeyPair> party_rsa =
      cached_party_rsa(n, config.rsa_bits, config.seed);
  const int k_broadcast = (n + t + 2) / 2;  // ceil((n+t+1)/2)
  const int k_agreement = n - t;
  std::vector<RsaPublicKey> pubs;
  pubs.reserve(static_cast<std::size_t>(n));
  for (const auto& kp : party_rsa) pubs.push_back(kp.pub);

  // --- Threshold RSA deals (only materialized when selected) ---
  RsaThresholdDeal rsa_bcast_deal, rsa_agree_deal;
  if (config.sig_impl == SigImpl::kThresholdRsa) {
    const RsaKeyPair& base = cached_safe_rsa(config.rsa_bits, config.seed);
    rsa_bcast_deal =
        deal_rsa_threshold_with_key(rng, n, k_broadcast, base, config.hash);
    rsa_agree_deal =
        deal_rsa_threshold_with_key(rng, n, k_agreement, base, config.hash);
  }

  // --- Discrete-log schemes ---
  const bignum::SchnorrGroup& sg =
      cached_group(config.dl_p_bits, config.dl_q_bits, config.seed);
  const DlogGroup group(sg.p, sg.q, sg.g, config.hash);
  const CoinDeal coin_deal = deal_coin(rng, n, t + 1, group);
  const Tdh2Deal tdh2_deal = deal_tdh2(rng, n, t + 1, group);

  // --- Pairwise link keys ---
  std::vector<std::vector<Bytes>> link(static_cast<std::size_t>(n));
  for (auto& row : link) row.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      Bytes key = rng.bytes(16);
      link[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = key;
      link[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
          std::move(key);
    }
  }

  Deal deal;
  deal.config = config;
  deal.encryption_key = tdh2_deal.pub;
  deal.raw.reserve(static_cast<std::size_t>(n));
  deal.parties.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    RawPartyKeys raw;
    raw.index = i;
    raw.n = n;
    raw.t = t;
    raw.hash = config.hash;
    raw.sig_impl = config.sig_impl;
    raw.k_broadcast = k_broadcast;
    raw.k_agreement = k_agreement;
    raw.link_keys = link[static_cast<std::size_t>(i)];
    raw.own_rsa = party_rsa[static_cast<std::size_t>(i)];
    raw.all_rsa_publics = pubs;
    if (config.sig_impl == SigImpl::kThresholdRsa) {
      raw.threshold_broadcast = RawRsaThreshold{
          *rsa_bcast_deal.pub,
          rsa_bcast_deal.shares[static_cast<std::size_t>(i)]};
      raw.threshold_agreement = RawRsaThreshold{
          *rsa_agree_deal.pub,
          rsa_agree_deal.shares[static_cast<std::size_t>(i)]};
    }
    raw.coin_p = sg.p;
    raw.coin_q = sg.q;
    raw.coin_g = sg.g;
    raw.coin_verification = coin_deal.pub->verification;
    raw.coin_share = coin_deal.shares[static_cast<std::size_t>(i)];
    raw.coin_k = t + 1;
    raw.tdh2_h = tdh2_deal.pub->h;
    raw.tdh2_gbar = tdh2_deal.pub->g_bar;
    raw.tdh2_verification = tdh2_deal.pub->verification;
    raw.tdh2_share = tdh2_deal.shares[static_cast<std::size_t>(i)];
    raw.tdh2_k = t + 1;

    deal.parties.push_back(materialize(raw));
    deal.raw.push_back(std::move(raw));
  }
  return deal;
}

}  // namespace sintra::crypto
