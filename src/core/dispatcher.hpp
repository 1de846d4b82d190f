// Routes incoming wire messages to protocol instances by protocol id.
//
// Asynchrony means messages for a protocol instance can arrive before the
// local party has created that instance (e.g. a fast peer's round-r+1
// votes while we are still in round r).  Such early messages are buffered
// per pid and replayed when the instance registers.  A global cap bounds
// memory against Byzantine flooding of never-registered pids.
//
// The dispatcher is the receive-side choke point of the whole stack, so
// it is also the primary instrumentation site: once an environment calls
// attach_obs(), every routed frame counts messages/bytes per protocol
// layer and the handler's CPU time feeds a latency histogram.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "core/env.hpp"
#include "core/message.hpp"
#include "obs/metrics.hpp"

namespace sintra::core {

class Dispatcher {
 public:
  using Handler = std::function<void(PartyId from, BytesView payload)>;

  /// Maximum buffered early messages across all unregistered pids.
  static constexpr std::size_t kMaxBuffered = 100000;

  /// Registers a handler and synchronously replays any buffered messages
  /// for this pid.  Throws std::logic_error on duplicate registration.
  void register_pid(const std::string& pid, Handler handler);

  /// Removes the handler; later messages for this pid are dropped if the
  /// pid is also marked retired (finished protocols must not re-buffer).
  void unregister_pid(const std::string& pid);

  /// For a protocol that runs numbered rounds under pids `prefix + R`
  /// (sub-protocols `prefix + R + ".…"`): every round below `floor` is
  /// finished for good.  Forgets those rounds' retired pids and
  /// early-buffered frames, and from then on drops any unrouted frame for
  /// them, so memory stays bounded by the rounds still above the floor.
  /// Floors only rise.
  void retire_rounds_below(const std::string& prefix, int floor);

  /// Routes one wire message.  Malformed frames are dropped (Byzantine
  /// senders can always produce garbage; that must never throw past here).
  void on_message(PartyId from, BytesView wire);

  [[nodiscard]] std::size_t buffered_count() const { return buffered_total_; }
  [[nodiscard]] std::size_t retired_count() const { return retired_.size(); }

  /// Turns on instrumentation: per-layer message/byte counters and
  /// handler-latency histograms in obs::registry(), plus kRecv trace
  /// events stamped with `now_fn` (the owning environment's clock —
  /// virtual time in the simulator, wall-clock in the net stack).
  /// Frames whose pid has no registered handler are counted under the
  /// single fixed layer "unrouted" so Byzantine pids cannot grow the
  /// registry.  Idempotent; never influences routing behaviour.
  void attach_obs(int party, std::function<double()> now_fn);

 private:
  struct LayerMetrics {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* handle_ms = nullptr;
  };
  LayerMetrics& layer_metrics(const std::string& layer);
  [[nodiscard]] bool below_round_floor(const std::string& pid) const;

  std::map<std::string, Handler> handlers_;
  std::map<std::string, std::deque<std::pair<PartyId, Bytes>>> buffers_;
  std::set<std::string> retired_;
  std::map<std::string, int> round_floors_;  // prefix -> first live round
  std::size_t buffered_total_ = 0;

  bool obs_attached_ = false;
  int obs_party_ = -1;
  std::function<double()> obs_now_;
  obs::Counter* obs_malformed_ = nullptr;
  obs::Counter* obs_early_ = nullptr;
  obs::Counter* obs_bytes_moved_ = nullptr;
  std::map<std::string, LayerMetrics> layer_metrics_;
};

}  // namespace sintra::core
