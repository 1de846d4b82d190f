// Off-loop crypto worker pool.
//
// Threshold-crypto combines and verifications are the dominant CPU cost of
// a SINTRA node (paper §4.2); running them on the epoll thread stalls
// message intake for milliseconds at a time.  This pool lets the network
// transport push that work onto std::jthread workers and collect finished
// jobs back on the owner thread: `submit(work, complete)` runs `work` on a
// worker, then queues `complete` on an MPSC completion queue that the
// owner drains with drain_completions() — typically from an
// EventLoop::call_soon task installed via set_completion_notify().
//
// A pool with zero threads is fully inline: submit() runs both closures
// synchronously before returning.  That is the simulator's configuration —
// single-threaded, so simulated-time traces and work accounting stay
// byte-identical run to run — and the semantics every caller must be
// correct under, which keeps protocol logic oblivious to threading.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace sintra::crypto {

class VerifyMemo;

class WorkPool {
 public:
  /// Spawns `threads` workers; 0 = inline mode (no threads at all).
  explicit WorkPool(std::size_t threads);

  /// Stops accepting work, lets workers drain the queue, joins them.
  /// Completions queued but not yet drained are discarded.
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  [[nodiscard]] std::size_t threads() const { return workers_.size(); }
  [[nodiscard]] bool inline_mode() const { return workers_.empty(); }

  /// Runs `work` on a worker thread, then queues `complete` for the owner
  /// thread's next drain_completions().  Inline mode runs both here,
  /// synchronously.  `work` must be self-contained: it may run after the
  /// submitting protocol instance is gone, so it must capture shared
  /// ownership (scheme handles are shared_ptr) and values, never raw
  /// pointers into protocol state — touch protocol state only from
  /// `complete`, which the owner thread runs.  Both closures run under
  /// the VerifyMemo installed on the submitting thread (crypto/
  /// verify_memo.hpp), so offloaded verifications share the node's memo;
  /// that memo must outlive the pool.
  void submit(std::function<void()> work, std::function<void()> complete);

  /// Runs every job in `jobs` to completion before returning, with the
  /// CALLING thread participating: the caller claims jobs from a shared
  /// cursor while up to threads() idle workers help.  Because the caller
  /// never waits for a worker slot — it executes unclaimed jobs itself —
  /// this is safe to invoke from inside a pool job (the fallback
  /// verification of a combine attempt that is already running on a
  /// worker) with no deadlock.  Inline mode runs the jobs sequentially in
  /// vector order on the caller, which is the simulator's deterministic
  /// path.  Jobs must be independent and must not throw; they communicate
  /// results through captured slots.  Helpers run under the caller's
  /// VerifyMemo, like submit().
  void run_parallel(std::vector<std::function<void()>>& jobs);

  /// Runs every queued completion on the calling thread (the owner).
  /// Returns how many ran.
  std::size_t drain_completions();

  /// Installs a hook invoked (on a worker thread) each time a completion
  /// is queued; the owner uses it to schedule a drain on its own thread,
  /// e.g. `pool.set_completion_notify([&loop, wp] { loop.call_soon(...) })`.
  /// Install before the first submit(); the hook must be thread-safe and
  /// must not call back into the pool synchronously.
  void set_completion_notify(std::function<void()> notify);

 private:
  struct Job {
    std::function<void()> work;
    std::function<void()> complete;
    double enqueue_ms;
    // The submitter's memo, reinstalled around both closures.
    VerifyMemo* memo = nullptr;
  };
  struct Completion {
    std::function<void()> fn;
    VerifyMemo* memo = nullptr;
  };

  void worker(const std::stop_token& st);
  static double now_ms();
  void finish(Completion complete);

  std::mutex mu_;
  std::condition_variable_any cv_;
  std::deque<Job> queue_;

  std::mutex done_mu_;
  std::vector<Completion> done_;
  std::function<void()> notify_;

  // Resolved once; updates are relaxed atomics (see obs/metrics.hpp).
  obs::Counter* m_jobs_;
  obs::Gauge* m_depth_;
  obs::Histogram* m_wait_ms_;

  std::vector<std::jthread> workers_;  // last member: joins before the rest die
};

}  // namespace sintra::crypto
