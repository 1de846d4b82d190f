// Threaded in-process transport: one real thread per party, lock-free
// protocol code (each party's protocol objects are touched only by its
// own thread), HMAC-authenticated queues between parties.
//
// This is the deployment-shaped counterpart of the discrete-event
// simulator: the examples run on it with real concurrency and wall-clock
// time.  (The paper's prototype used TCP sockets; in-process queues give
// the same reliable FIFO authenticated-link abstraction — see DESIGN.md.)
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/env.hpp"
#include "crypto/verify_memo.hpp"

namespace sintra::facade {

class LocalGroup;

/// Environment implementation for one party, backed by a worker thread.
class LocalNode final : public core::Environment {
 public:
  LocalNode(LocalGroup& group, int id, crypto::PartyKeys keys);

  [[nodiscard]] core::PartyId self() const override { return id_; }
  [[nodiscard]] int n() const override { return keys_.n; }
  [[nodiscard]] int t() const override { return keys_.t; }
  void send(core::PartyId to, Bytes wire) override;
  void send_all(Bytes wire) override;
  [[nodiscard]] double now_ms() const override;
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] const crypto::PartyKeys& keys() const override {
    return keys_;
  }

  [[nodiscard]] core::Dispatcher& dispatcher() { return dispatcher_; }

  /// This party's memo of successful signature verifications, installed
  /// on its worker thread.
  [[nodiscard]] crypto::VerifyMemo& verify_memo() { return verify_memo_; }

 private:
  friend class LocalGroup;

  struct Incoming {
    int from;
    Bytes wire;
  };
  using Task = std::variant<Incoming, std::function<void()>>;

  void run_loop();
  void enqueue(Task task);

  LocalGroup& group_;
  int id_;
  crypto::PartyKeys keys_;
  core::Dispatcher dispatcher_;
  crypto::VerifyMemo verify_memo_;
  Rng rng_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::thread thread_;
};

/// A full group of parties with worker threads, built from a dealer run.
class LocalGroup {
 public:
  explicit LocalGroup(const crypto::Deal& deal);
  ~LocalGroup();

  LocalGroup(const LocalGroup&) = delete;
  LocalGroup& operator=(const LocalGroup&) = delete;

  [[nodiscard]] int n() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] LocalNode& node(int i) {
    return *nodes_.at(static_cast<std::size_t>(i));
  }

  /// Runs `fn` on party i's thread, asynchronously.
  void post(int i, std::function<void()> fn);

  /// Runs `fn` on party i's thread and waits for it to finish.
  void post_sync(int i, std::function<void()> fn);

  /// Crash-stops a party (its thread drains no further work).
  void crash(int i);

  /// Stops all threads (also done by the destructor).
  void stop();

 private:
  friend class LocalNode;

  std::vector<std::unique_ptr<LocalNode>> nodes_;
  std::vector<char> crashed_;  // not vector<bool>: written cross-thread under mutex
  std::mutex crash_mutex_;
};

}  // namespace sintra::facade
