// CPU cost model bridging real cryptographic work to simulated time.
//
// The paper characterizes each host by the measured wall-clock time of one
// 1024-bit modular exponentiation (the `exp` column of the tables in §4:
// 93 ms on P0/Zurich, 427 ms on the P-Pro in California, ...).  Our
// Montgomery arithmetic counts limb-multiplications in a thread-local
// work counter (bignum::work_counter); this module calibrates how much of
// that work one reference 1024-bit modexp performs, so the simulator can
// convert *actual* work done by a protocol handler into virtual
// milliseconds on any host:  ms = work / work_per_exp1024() * exp_ms.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sintra::crypto {

/// Work units of one 1024-bit modexp with full-size exponent (calibrated
/// once per process; deterministic).
std::uint64_t work_per_exp1024();

/// Converts accumulated bignum work into milliseconds on a host whose
/// measured 1024-bit modexp takes `exp_ms` milliseconds.
double work_to_ms(std::uint64_t work, double exp_ms);

/// Amortization epoch for the precomputation caches of the fast
/// exponentiation layer (fixed-base comb tables, memoized hash-to-group
/// bases and subgroup-membership checks).  The discrete-event simulator
/// bumps the epoch when a run starts, so every run rebuilds — and is
/// re-charged for — its precomputation from scratch: virtual timing stays
/// deterministic across repeated runs, and amortization is modeled as a
/// per-deployment startup cost rather than leaking between experiments.
std::uint64_t cache_epoch() noexcept;
void bump_cache_epoch() noexcept;

/// RAII helper: captures the work counter on construction; `elapsed()`
/// reports work performed since.
class WorkMeter {
 public:
  WorkMeter();
  [[nodiscard]] std::uint64_t elapsed() const;

 private:
  std::uint64_t start_;
};

/// Optimistic-verification accounting: one call increments
/// obs::registry()'s "crypto.optimistic_hits" / "crypto.fallbacks"
/// counter labeled {op}.  A *hit* is a combine-first attempt whose single
/// result check succeeded with no per-share verification at all; a
/// *fallback* is an attempt whose check failed and dropped into
/// individual share verification (so fallbacks > 0 is the observable
/// signature of a Byzantine share submitter).
void count_optimistic_hit(const char* op);
void count_fallback(const char* op);

/// Adds `shares` to the "crypto.parallel_verify_shares" counter labeled
/// {op}: how many per-share fallback verifications ran through
/// WorkPool::run_parallel instead of the serial loop.  Zero in the
/// simulator (inline pools verify serially), nonzero on a real node with
/// --crypto-threads facing a Byzantine share submitter.
void count_parallel_verify(const char* op, std::size_t shares);

/// Increments obs::registry()'s "crypto.verify_memo_hits" counter labeled
/// {op}: one RSA verification answered by the node's VerifyMemo
/// (crypto/verify_memo.hpp) instead of an exponentiation.  `op` must be a
/// string literal (the handle is cached per call site, like OpScope's).
void count_verify_memo_hit(const char* op);

/// RAII instrumentation for one threshold-crypto operation: on
/// destruction it increments obs::registry()'s "crypto.ops" counter for
/// `op` and adds the bignum work performed in the scope to "crypto.work".
/// Reads the work counter only — it never adds work, so simulator timing
/// and the BENCH_crypto work-unit numbers are unchanged by it.
class OpScope {
 public:
  explicit OpScope(const char* op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  const char* op_;
  std::uint64_t start_;
};

}  // namespace sintra::crypto
