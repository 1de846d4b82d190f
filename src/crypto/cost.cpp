#include "crypto/cost.hpp"

#include <atomic>
#include <map>

#include "bignum/montgomery.hpp"
#include "obs/metrics.hpp"

namespace sintra::crypto {

namespace {
// Starts at 1 so a default-initialized stamp of 0 always reads as stale.
std::atomic<std::uint64_t> g_cache_epoch{1};

struct OpCounters {
  obs::Counter* ops;
  obs::Counter* work;
};

// Hot-path discipline (obs/metrics.hpp): resolve registry handles once,
// then update with relaxed atomics.  Op labels are string literals, so a
// per-thread pointer-keyed cache resolves each call site through the
// registry mutex exactly once; after that an OpScope destruction is a
// small map find plus two atomic adds — no lock, no Labels allocation.
// Registry handles stay valid for the process lifetime, so the cached
// pointers never dangle (reset() zeroes values but keeps instances).
const OpCounters& op_counters(const char* op) {
  thread_local std::map<const char*, OpCounters> cache;
  auto it = cache.find(op);
  if (it == cache.end()) {
    auto& reg = obs::registry();
    const obs::Labels labels{{"op", op}};
    it = cache
             .emplace(op, OpCounters{&reg.counter("crypto.ops", labels),
                                     &reg.counter("crypto.work", labels)})
             .first;
  }
  return it->second;
}
}  // namespace

std::uint64_t cache_epoch() noexcept {
  return g_cache_epoch.load(std::memory_order_relaxed);
}

void bump_cache_epoch() noexcept {
  g_cache_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t work_per_exp1024() {
  static const std::uint64_t calibrated = [] {
    // A fixed odd 1024-bit modulus and a full-size exponent; the value of
    // the result is irrelevant, only the work performed matters.
    using bignum::BigInt;
    const BigInt m = (BigInt{1} << 1024) - BigInt{129};  // odd
    const BigInt e = (BigInt{1} << 1023) + BigInt{12345};
    const BigInt base{0x0123456789abcdefLL};
    const std::uint64_t before = bignum::work_counter();
    const bignum::Montgomery mont(m);
    (void)mont.pow(base, e);
    return bignum::work_counter() - before;
  }();
  return calibrated;
}

double work_to_ms(std::uint64_t work, double exp_ms) {
  return static_cast<double>(work) /
         static_cast<double>(work_per_exp1024()) * exp_ms;
}

WorkMeter::WorkMeter() : start_(bignum::work_counter()) {}

std::uint64_t WorkMeter::elapsed() const {
  return bignum::work_counter() - start_;
}

void count_optimistic_hit(const char* op) {
  obs::registry().counter("crypto.optimistic_hits", {{"op", op}}).inc();
}

void count_fallback(const char* op) {
  obs::registry().counter("crypto.fallbacks", {{"op", op}}).inc();
}

void count_parallel_verify(const char* op, std::size_t shares) {
  obs::registry()
      .counter("crypto.parallel_verify_shares", {{"op", op}})
      .inc(shares);
}

void count_verify_memo_hit(const char* op) {
  // Same per-thread handle cache as op_counters: hits sit on the hot path.
  thread_local std::map<const char*, obs::Counter*> cache;
  auto it = cache.find(op);
  if (it == cache.end()) {
    it = cache
             .emplace(op, &obs::registry().counter("crypto.verify_memo_hits",
                                                   {{"op", op}}))
             .first;
  }
  it->second->inc();
}

OpScope::OpScope(const char* op)
    : op_(op), start_(bignum::work_counter()) {}

OpScope::~OpScope() {
  const std::uint64_t work = bignum::work_counter() - start_;
  const OpCounters& c = op_counters(op_);
  c.ops->inc();
  c.work->inc(work);
}

}  // namespace sintra::crypto
