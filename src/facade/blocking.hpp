// Blocking API mirroring the paper's Java interface: send / receive /
// canReceive / close / closeWait / isClosed for channels (§3.4),
// send / receive / canReceive for broadcasts (§3.2) and propose /
// negotiate / decide / canDecide for agreement (§3.3).
//
// Each wrapper binds one protocol object to one party of a
// sim::Simulator.  Inputs (send, close, propose) are scheduled with
// Simulator::at at the current virtual time, so they run in the party's
// CPU context like every other handler.  A blocking call runs the whole
// group's simulator until its value is there.  If the event queue drains
// first, the value can no longer arrive, so the call returns
// std::nullopt (false for wait_done) instead of hanging.  Everything runs
// on the caller's thread and is deterministic for a given seed; real
// threads and sockets are net::NetEnvironment's job.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/agreement/array_agreement.hpp"
#include "core/agreement/binary_agreement.hpp"
#include "core/broadcast/consistent_broadcast.hpp"
#include "core/broadcast/reliable_broadcast.hpp"
#include "core/channel/atomic_channel.hpp"
#include "core/channel/broadcast_channel.hpp"
#include "core/channel/secure_atomic_channel.hpp"
#include "sim/simulator.hpp"

namespace sintra::facade {

/// One protocol object of party `party`, built on that party's simulated
/// node: the part every blocking wrapper shares.
template <typename P>
class Blocking {
 public:
  template <typename... Args>
  Blocking(sim::Simulator& sim, int party, const std::string& pid,
           Args&&... args)
      : sim_(sim),
        party_(party),
        protocol_(std::make_shared<P>(sim.node(party),
                                      sim.node(party).dispatcher(), pid,
                                      std::forward<Args>(args)...)) {}

  Blocking(const Blocking&) = delete;
  Blocking& operator=(const Blocking&) = delete;

  /// Runs fn(protocol) in the party's context at the current virtual
  /// time (e.g. SecureAtomicChannel::send_ciphertext).  The event holds
  /// the protocol weakly: an input still queued when the wrapper is
  /// destroyed is dropped.
  template <typename F>
  void input(F fn) {
    sim_.at(sim_.now_ms(), party_,
            [weak = std::weak_ptr<P>(protocol_), fn = std::move(fn)] {
              if (auto p = weak.lock()) fn(*p);
            });
  }

 protected:
  /// Runs the simulator until done() holds; false if the queue drains
  /// first.
  bool run_until(const std::function<bool()>& done) {
    return sim_.run_until(done, sim::Simulator::kForever);
  }

  sim::Simulator& sim_;
  int party_;
  std::shared_ptr<P> protocol_;
};

/// Any SINTRA channel type (atomic, secure atomic, reliable, consistent).
template <typename C>
class BlockingChannel : public Blocking<C> {
 public:
  BlockingChannel(sim::Simulator& sim, int party, const std::string& pid)
      : Blocking<C>(sim, party, pid) {
    this->protocol_->set_closed_callback([this] { done_ = true; });
  }

  /// Non-blocking: queued as an input of the party.
  void send(Bytes payload) {
    this->input([payload = std::move(payload)](C& ch) { ch.send(payload); });
  }

  /// The next delivered payload.
  std::optional<Bytes> receive() {
    if (!this->run_until([this] { return can_receive(); })) {
      return std::nullopt;
    }
    return this->protocol_->receive();
  }

  [[nodiscard]] bool can_receive() const {
    return this->protocol_->can_receive();
  }

  void close() {
    this->input([](C& ch) { ch.close(); });
  }

  [[nodiscard]] bool is_closed() const { return this->protocol_->is_closed(); }

  /// Blocks until the channel has terminated (for the secure channel:
  /// also every payload ordered before the close is decrypted).
  bool wait_done() {
    return this->run_until([this] { return done_; });
  }

  /// The Java API's closeWait: close() then wait_done().
  bool close_wait() {
    close();
    return wait_done();
  }

 private:
  bool done_ = false;
};

using BlockingAtomicChannel = BlockingChannel<core::AtomicChannel>;
using BlockingSecureAtomicChannel = BlockingChannel<core::SecureAtomicChannel>;
using BlockingReliableChannel = BlockingChannel<core::ReliableChannel>;
using BlockingConsistentChannel = BlockingChannel<core::ConsistentChannel>;

/// ReliableBroadcast / ConsistentBroadcast / VerifiableConsistentBroadcast;
/// constructed as (sim, party, basepid, sender).
template <typename B>
class BlockingBroadcast : public Blocking<B> {
 public:
  using Blocking<B>::Blocking;

  /// Sender only, exactly once (§3.2).
  void send(Bytes payload) {
    this->input([payload = std::move(payload)](B& b) { b.send(payload); });
  }

  /// The delivered payload (later calls return the same payload).
  std::optional<Bytes> receive() {
    if (!this->run_until([this] { return can_receive(); })) {
      return std::nullopt;
    }
    return this->protocol_->delivered();
  }

  [[nodiscard]] bool can_receive() const {
    return this->protocol_->delivered().has_value();
  }
};

using BlockingReliableBroadcast = BlockingBroadcast<core::ReliableBroadcast>;
using BlockingConsistentBroadcast =
    BlockingBroadcast<core::ConsistentBroadcast>;

/// Binary or multi-valued ("array") agreement, over the protocol's
/// decision type: bool or Bytes.
template <typename A>
class BlockingAgreement : public Blocking<A> {
 public:
  using Value = std::remove_cvref_t<decltype(*std::declval<A>().decided())>;
  using Blocking<A>::Blocking;

  void propose(Value value) {
    this->input([value = std::move(value)](A& a) { a.propose(value); });
  }

  /// The decision.  Returns only once enough parties have proposed for
  /// the protocol to decide; std::nullopt if they never do.
  std::optional<Value> decide() {
    if (!this->run_until([this] { return can_decide(); })) {
      return std::nullopt;
    }
    return this->protocol_->decided();
  }

  /// propose() then decide() — the Java API's negotiate (§3.3).
  std::optional<Value> negotiate(Value value) {
    propose(std::move(value));
    return decide();
  }

  [[nodiscard]] bool can_decide() const {
    return this->protocol_->decided().has_value();
  }
};

using BlockingBinaryAgreement = BlockingAgreement<core::BinaryAgreement>;
using BlockingArrayAgreement = BlockingAgreement<core::ArrayAgreement>;

}  // namespace sintra::facade
