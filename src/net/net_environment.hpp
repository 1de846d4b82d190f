// core::Environment over real UDP sockets: the deployment transport.
//
// One NetEnvironment is one party of the group running inside one
// process (the sintra_node binary) or — for tests — several parties
// sharing one EventLoop in one process.  Layering per party:
//
//     Dispatcher  <-  SlidingWindowLink (per peer, HMAC link keys)
//                 <-  UdpDatagramChannel (per peer)
//                 <-  one bound UdpSocket + EventLoop timers
//
// Every outgoing datagram is prefixed with the sender's party id so the
// receiver can route it to the right link; the prefix is advisory only —
// the link's HMAC (which binds both endpoint ids) is what authenticates
// the claim, so a forged prefix is dropped by MAC verification exactly
// like any other forged frame.  The receiver never trusts source
// addresses, which also lets a mangling proxy sit between the parties.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/dispatcher.hpp"
#include "core/env.hpp"
#include "core/link/sliding_window.hpp"
#include "crypto/verify_memo.hpp"
#include "net/event_loop.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"

namespace sintra::net {

/// Coalesces the datagrams produced within one loop wake into sendmmsg
/// batches.  A broadcast fan-out writes n-1 per-peer frames back to back
/// (the frames differ — each link HMACs with its own key — so batching
/// can only happen at the syscall layer, below the links); push() just
/// buffers, and a flush scheduled via EventLoop::call_soon writes the
/// whole batch with one kernel round-trip before the loop sleeps again.
/// Datagram ORDER per peer is preserved (the batch is flushed in push
/// order), and a refused tail is dropped with plain UDP semantics.
/// Loop-thread only, like the channels that feed it.
class SendBatcher {
 public:
  SendBatcher(EventLoop& loop, UdpSocket& socket, int party);

  /// Queues one datagram and schedules a flush if none is pending.
  /// Called through a weak_ptr-guarded closure, so a flush posted just
  /// before environment teardown no-ops instead of touching a dead
  /// socket.
  static void push(const std::shared_ptr<SendBatcher>& self,
                   const SocketAddress& to, Bytes datagram);
  /// Writes everything queued via UdpSocket::send_batch.
  void flush();

  [[nodiscard]] std::uint64_t datagrams_flushed() const { return flushed_; }

 private:
  EventLoop& loop_;
  UdpSocket& socket_;
  std::vector<OutboundDatagram> pending_;
  bool flush_scheduled_ = false;
  std::uint64_t flushed_ = 0;
  obs::Histogram* m_batch_size_ = nullptr;
  obs::Counter* m_send_errors_ = nullptr;
};

/// core::DatagramChannel for one peer: prefixes the sender id, sends to
/// the peer's (possibly proxied) address, and exposes the loop's timers
/// and clock to the sliding-window link.  With a batcher, sends are
/// queued for a sendmmsg flush instead of issued one syscall each.
class UdpDatagramChannel final : public core::DatagramChannel {
 public:
  UdpDatagramChannel(EventLoop& loop, UdpSocket& socket,
                     SocketAddress peer_address, std::uint32_t self_id,
                     std::shared_ptr<SendBatcher> batcher = nullptr);

  void send_datagram(Bytes datagram) override;
  void call_later(double delay_ms, std::function<void()> fn) override {
    loop_.call_later(delay_ms, std::move(fn));
  }
  [[nodiscard]] double now_ms() const override { return loop_.now_ms(); }

  [[nodiscard]] std::uint64_t datagrams_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t send_errors() const { return send_errors_; }

 private:
  EventLoop& loop_;
  UdpSocket& socket_;
  SocketAddress peer_address_;
  std::uint32_t self_id_;
  std::shared_ptr<SendBatcher> batcher_;  // null = direct sendto path
  std::uint64_t sent_ = 0;
  std::uint64_t send_errors_ = 0;
  obs::Counter* m_sent_ = nullptr;        // party-wide (shared handle)
  obs::Counter* m_send_errors_ = nullptr;
};

struct NetOptions {
  /// Per-peer link options.  When link.epoch is 0 (the default), the
  /// environment draws one random nonzero per-boot epoch from
  /// std::random_device and uses it on every link — this is what lets
  /// peers detect a process restart (DESIGN.md §10); pass an explicit
  /// epoch only in tests that need reproducible epochs.
  core::SlidingWindowLink::Options link;
  /// Largest accepted incoming datagram; larger ones are dropped and
  /// counted (a sliding-window frame never legitimately exceeds this).
  std::size_t max_datagram = 65536;
  /// Datagrams drained from the socket per readiness callback before the
  /// loop gets to run timers again (bounded receive work per wake).
  std::size_t max_receive_batch = 256;
  /// Seed for the party's Rng; 0 derives one from the party id.
  std::uint64_t rng_seed = 0;
  /// If non-empty, outgoing datagrams for peer j go to send_to[j]
  /// instead of the configured endpoint (used to interpose the chaos
  /// proxy); parties still bind their own configured endpoints.
  std::vector<core::Endpoint> send_to;
  /// Worker threads for the crypto pool (see crypto/work_pool.hpp).
  /// 0 = inline: combines and verifications run on the loop thread,
  /// exactly like the simulator.  The sintra_node CLI defaults this to
  /// hardware_concurrency via --crypto-threads.
  int crypto_threads = 0;
  /// Batched syscalls: coalesce outgoing datagrams into sendmmsg(2)
  /// flushes and drain inbound ones with recvmmsg(2) into a reusable
  /// buffer pool — one kernel round-trip per loop wake instead of one
  /// per datagram, which is what keeps n=7..31 broadcast fan-outs off
  /// the syscall floor.  On by default; sintra_node --no-mmsg (and this
  /// flag) fall back to the one-sendto/one-recvfrom-per-datagram path.
  bool use_mmsg = true;
};

class NetEnvironment final : public core::Environment {
 public:
  /// Transport-level counters (the link layer keeps its own per-peer
  /// stats; see link_stats()).
  struct Stats {
    std::uint64_t datagrams_received = 0;
    std::uint64_t drop_no_sender = 0;   // too short for the id prefix
    std::uint64_t drop_bad_sender = 0;  // id out of range / self
    std::uint64_t drop_oversized = 0;
  };

  /// Binds endpoints[keys.index] and connects one link per peer.
  /// `endpoints` must have size keys.n.
  NetEnvironment(EventLoop& loop, std::vector<core::Endpoint> endpoints,
                 crypto::PartyKeys keys, NetOptions options = {});

  /// Same, with a pre-bound socket (tests bind port 0 first and exchange
  /// the real addresses).
  NetEnvironment(EventLoop& loop, UdpSocket socket,
                 std::vector<core::Endpoint> endpoints,
                 crypto::PartyKeys keys, NetOptions options = {});

  // --- core::Environment ---
  [[nodiscard]] core::PartyId self() const override { return keys_.index; }
  [[nodiscard]] int n() const override { return keys_.n; }
  [[nodiscard]] int t() const override { return keys_.t; }
  void send(core::PartyId to, Bytes wire) override;
  void send_all(Bytes wire) override;
  [[nodiscard]] double now_ms() const override { return loop_.now_ms(); }
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] const crypto::PartyKeys& keys() const override {
    return keys_;
  }
  /// The pool configured by NetOptions::crypto_threads.  Completions are
  /// drained on the loop thread: the constructor wires the pool's notify
  /// hook to loop.call_soon, so protocol callbacks observe results with
  /// the same single-threaded discipline as every other loop event.
  [[nodiscard]] crypto::WorkPool& crypto_pool() override { return *pool_; }

  [[nodiscard]] core::Dispatcher& dispatcher() { return dispatcher_; }
  /// This party's memo of successful signature verifications, installed
  /// around every frame it dispatches (and carried into crypto-pool jobs).
  [[nodiscard]] crypto::VerifyMemo& verify_memo() { return verify_memo_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const core::SlidingWindowLink::Stats& link_stats(
      int peer) const {
    return links_.at(peer)->stats();
  }

  /// Publishes the per-peer SlidingWindowLink stats (RTT estimate,
  /// retransmissions, drop buckets, backlog) into obs::registry() as
  /// "link.*" gauges labeled {party, peer}.  Transport drop counters are
  /// live registry counters already; the link layer keeps plain structs
  /// on its hot path, so its state is sampled here — call before taking
  /// a snapshot.
  void publish_link_metrics();
  /// Messages accepted by send() but not yet acknowledged by peers.
  [[nodiscard]] std::size_t send_backlog() const;
  [[nodiscard]] SocketAddress local_address() const {
    return socket_.local_address();
  }

  ~NetEnvironment() override;

 private:
  void init_crypto_pool();
  void wire_links(const std::vector<core::Endpoint>& endpoints);
  void on_socket_readable();
  /// Transport checks + routing for one inbound datagram (both the
  /// recvmmsg pool path and the legacy recvfrom path end up here; the
  /// view may point into the reusable pool, so links must not keep it).
  void process_datagram(BytesView datagram);
  /// Routes one frame to the dispatcher under this party's memo (several
  /// environments may share one loop thread).
  void dispatch(core::PartyId from, BytesView wire);
  void trace_send(core::PartyId to, BytesView wire);

  EventLoop& loop_;
  UdpSocket socket_;
  crypto::PartyKeys keys_;
  NetOptions options_;
  Rng rng_;
  core::Dispatcher dispatcher_;
  crypto::VerifyMemo verify_memo_;  // outlives pool_ (declared earlier)
  Stats stats_;

  std::map<int, std::unique_ptr<UdpDatagramChannel>> channels_;
  std::map<int, std::unique_ptr<core::SlidingWindowLink>> links_;

  // mmsg fast path (null when options_.use_mmsg is false).  shared_ptr
  // so the scheduled-flush closure can hold a weak_ptr across teardown.
  std::shared_ptr<SendBatcher> batcher_;
  std::unique_ptr<ReceivePool> rx_pool_;
  obs::Gauge* m_rx_pool_in_use_ = nullptr;

  // Instrumentation handles (obs/metrics.hpp); the drop counters mirror
  // Stats live so they are readable through the public metrics path.
  obs::Counter* m_datagrams_received_ = nullptr;
  obs::Counter* m_drop_no_sender_ = nullptr;
  obs::Counter* m_drop_bad_sender_ = nullptr;
  obs::Counter* m_drop_oversized_ = nullptr;
  obs::Counter* m_messages_sent_ = nullptr;
  obs::Counter* m_bytes_sent_ = nullptr;

  // Declared last: destroyed first, so in-flight work() closures finish
  // (and are joined) while the members they might reference still exist.
  // shared_ptr so the notify hook can hold a weak_ptr — a call_soon task
  // left in the loop after this environment dies locks null and no-ops.
  std::shared_ptr<crypto::WorkPool> pool_;
};

}  // namespace sintra::net
