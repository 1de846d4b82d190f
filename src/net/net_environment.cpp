#include "net/net_environment.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "core/message.hpp"
#include "obs/trace.hpp"
#include "util/serde.hpp"

namespace sintra::net {

SendBatcher::SendBatcher(EventLoop& loop, UdpSocket& socket, int party)
    : loop_(loop), socket_(socket) {
  auto& reg = obs::registry();
  const obs::Labels labels = obs::party_labels(party);
  m_batch_size_ = &reg.histogram("net.sendmmsg_batch_size", labels);
  m_send_errors_ = &reg.counter("net.send_errors", labels);
}

void SendBatcher::push(const std::shared_ptr<SendBatcher>& self,
                       const SocketAddress& to, Bytes datagram) {
  self->pending_.push_back({to, std::move(datagram)});
  if (self->flush_scheduled_) return;
  self->flush_scheduled_ = true;
  // call_soon runs before the loop sleeps again, so batching never adds
  // latency: everything a single wake produced (broadcast fan-out, acks,
  // retransmissions) leaves in one flush at the end of that wake.
  self->loop_.call_soon([weak = std::weak_ptr<SendBatcher>(self)] {
    if (const std::shared_ptr<SendBatcher> b = weak.lock()) b->flush();
  });
}

void SendBatcher::flush() {
  flush_scheduled_ = false;
  if (pending_.empty()) return;
  std::vector<OutboundDatagram> batch;
  batch.swap(pending_);
  m_batch_size_->observe(static_cast<double>(batch.size()));
  const std::size_t sent = socket_.send_batch(batch);
  flushed_ += sent;
  if (sent < batch.size()) {
    m_send_errors_->inc(batch.size() - sent);  // links retransmit
  }
}

UdpDatagramChannel::UdpDatagramChannel(EventLoop& loop, UdpSocket& socket,
                                       SocketAddress peer_address,
                                       std::uint32_t self_id,
                                       std::shared_ptr<SendBatcher> batcher)
    : loop_(loop),
      socket_(socket),
      peer_address_(peer_address),
      self_id_(self_id),
      batcher_(std::move(batcher)) {
  // Party-wide counters: every channel of the party resolves the same
  // registry instances.
  auto& reg = obs::registry();
  const obs::Labels labels =
      obs::party_labels(static_cast<int>(self_id));
  m_sent_ = &reg.counter("net.datagrams_sent", labels);
  m_send_errors_ = &reg.counter("net.send_errors", labels);
}

void UdpDatagramChannel::send_datagram(Bytes datagram) {
  Writer w;
  w.u32(self_id_);
  w.raw(datagram);
  if (batcher_ != nullptr) {
    // Counted when queued; a kernel refusal at flush time surfaces in
    // net.send_errors (batcher-side), and the link retransmits.
    ++sent_;
    m_sent_->inc();
    SendBatcher::push(batcher_, peer_address_, std::move(w).take());
    return;
  }
  if (socket_.send_to(peer_address_, w.data())) {
    ++sent_;
    m_sent_->inc();
  } else {
    ++send_errors_;  // dropped by the kernel: the link retransmits
    m_send_errors_->inc();
  }
}

NetEnvironment::NetEnvironment(EventLoop& loop,
                               std::vector<core::Endpoint> endpoints,
                               crypto::PartyKeys keys, NetOptions options)
    // socket_ is declared before keys_, so `keys` (the parameter) is
    // still intact when the bind address is resolved here.
    : loop_(loop),
      socket_(SocketAddress::resolve(
          endpoints.at(static_cast<std::size_t>(keys.index)).host,
          endpoints.at(static_cast<std::size_t>(keys.index)).port)),
      keys_(std::move(keys)),
      options_(std::move(options)),
      rng_(options_.rng_seed != 0
               ? options_.rng_seed
               : 0x51e7a0de ^ (static_cast<std::uint64_t>(keys_.index) << 20)) {
  init_crypto_pool();
  wire_links(endpoints);
}

NetEnvironment::NetEnvironment(EventLoop& loop, UdpSocket socket,
                               std::vector<core::Endpoint> endpoints,
                               crypto::PartyKeys keys, NetOptions options)
    : loop_(loop),
      socket_(std::move(socket)),
      keys_(std::move(keys)),
      options_(std::move(options)),
      rng_(options_.rng_seed != 0
               ? options_.rng_seed
               : 0x51e7a0de ^ (static_cast<std::uint64_t>(keys_.index) << 20)) {
  init_crypto_pool();
  wire_links(endpoints);
}

void NetEnvironment::init_crypto_pool() {
  pool_ = std::make_shared<crypto::WorkPool>(
      options_.crypto_threads > 0
          ? static_cast<std::size_t>(options_.crypto_threads)
          : 0);
  // Hop completions onto the loop thread.  The hook runs on a worker, so
  // it only posts; the weak_ptr keeps a stale call_soon task (queued
  // after this environment was destroyed) from touching a dead pool.
  pool_->set_completion_notify(
      [&loop = loop_, wp = std::weak_ptr<crypto::WorkPool>(pool_)] {
        loop.call_soon([wp] {
          if (const std::shared_ptr<crypto::WorkPool> p = wp.lock()) {
            p->drain_completions();
          }
        });
      });
}

void NetEnvironment::wire_links(const std::vector<core::Endpoint>& endpoints) {
  if (static_cast<int>(endpoints.size()) != keys_.n) {
    throw std::invalid_argument(
        "NetEnvironment: endpoint count does not match n");
  }
  const std::vector<core::Endpoint>& targets =
      options_.send_to.empty() ? endpoints : options_.send_to;
  if (static_cast<int>(targets.size()) != keys_.n) {
    throw std::invalid_argument(
        "NetEnvironment: send_to count does not match n");
  }
  core::SlidingWindowLink::Options link_options = options_.link;
  if (link_options.epoch == 0) {
    // Fresh random per-boot epoch, shared by all of this party's links
    // (the MAC binds the peer pair, so sharing is safe).  Deliberately
    // NOT the party rng: its seed derives from the party id, so a
    // restarted process would reuse the dead session's epoch and defeat
    // restart detection.
    std::random_device rd;
    link_options.epoch = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    if (link_options.epoch == 0) link_options.epoch = 1;
  }
  if (options_.use_mmsg) {
    batcher_ = std::make_shared<SendBatcher>(loop_, socket_, keys_.index);
    // A handful of slots per syscall batches deeply enough (a full
    // n=31 fan-out is 30 datagrams) without the pool ballooning when
    // tests run several parties in one process.
    rx_pool_ = std::make_unique<ReceivePool>(
        std::min<std::size_t>(options_.max_receive_batch, 32),
        options_.max_datagram + 1);
  }
  for (int peer = 0; peer < keys_.n; ++peer) {
    if (peer == keys_.index) continue;
    const auto& ep = targets[static_cast<std::size_t>(peer)];
    auto channel = std::make_unique<UdpDatagramChannel>(
        loop_, socket_, SocketAddress::resolve(ep.host, ep.port),
        static_cast<std::uint32_t>(keys_.index), batcher_);
    auto link = std::make_unique<core::SlidingWindowLink>(
        *channel, keys_.index, peer,
        keys_.link_keys[static_cast<std::size_t>(peer)], link_options);
    link->set_deliver_callback(
        [this, peer](const Bytes& wire) { dispatch(peer, wire); });
    channels_.emplace(peer, std::move(channel));
    links_.emplace(peer, std::move(link));
  }
  loop_.add_fd(socket_.fd(), [this] { on_socket_readable(); });

  auto& reg = obs::registry();
  const obs::Labels labels = obs::party_labels(keys_.index);
  m_datagrams_received_ = &reg.counter("net.datagrams_received", labels);
  m_drop_no_sender_ = &reg.counter("net.drop_no_sender", labels);
  m_drop_bad_sender_ = &reg.counter("net.drop_bad_sender", labels);
  m_drop_oversized_ = &reg.counter("net.drop_oversized", labels);
  m_messages_sent_ = &reg.counter("net.messages_sent", labels);
  m_bytes_sent_ = &reg.counter("net.bytes_sent", labels);
  m_rx_pool_in_use_ = &reg.gauge("net.rx_pool_in_use", labels);
  dispatcher_.attach_obs(keys_.index, [this] { return loop_.now_ms(); });

  // Announce our epoch so peers detect a restart (and reset their window
  // state toward us) before any data traffic; UDP may drop these, in
  // which case the first data frame teaches the epoch instead.
  for (const auto& [peer, link] : links_) link->announce();
}

NetEnvironment::~NetEnvironment() {
  // A flush scheduled for later would find the batcher dead (weak_ptr);
  // write out what's pending while the socket is still open.
  if (batcher_ != nullptr) batcher_->flush();
  loop_.remove_fd(socket_.fd());
}

void NetEnvironment::send(core::PartyId to, Bytes wire) {
  if (to < 0 || to >= keys_.n) {
    throw std::out_of_range("NetEnvironment::send");
  }
  m_messages_sent_->inc();
  m_bytes_sent_->inc(wire.size());
  trace_send(to, wire);
  if (to == keys_.index) {
    // Self-delivery stays asynchronous (no reentrancy into protocol
    // handlers), via a zero-delay loop timer.
    loop_.call_later(0.0, [this, wire = std::move(wire)] {
      dispatch(keys_.index, wire);
    });
    return;
  }
  links_.at(to)->send(std::move(wire));
}

void NetEnvironment::dispatch(core::PartyId from, BytesView wire) {
  const crypto::VerifyMemo::Scope memo(&verify_memo_);
  dispatcher_.on_message(from, wire);
}

void NetEnvironment::trace_send(core::PartyId to, BytesView wire) {
  if (obs::trace_sink() == nullptr) return;
  try {
    obs::emit(obs::EventType::kSend, loop_.now_ms(), keys_.index, to,
              core::parse_frame_view(wire).pid, wire.size());
  } catch (const SerdeError&) {
    obs::emit(obs::EventType::kSend, loop_.now_ms(), keys_.index, to,
              "<malformed>", wire.size());
  }
}

void NetEnvironment::send_all(Bytes wire) {
  // Broadcast fan-out shares one immutable buffer across every per-peer
  // link (and the self-delivery closure) instead of copying the frame
  // n times.
  auto shared = std::make_shared<const Bytes>(std::move(wire));
  for (int j = 0; j < keys_.n; ++j) {
    m_messages_sent_->inc();
    m_bytes_sent_->inc(shared->size());
    trace_send(j, *shared);
    if (j == keys_.index) {
      loop_.call_later(0.0,
                       [this, shared] { dispatch(keys_.index, *shared); });
      continue;
    }
    links_.at(j)->send(shared);
  }
}

void NetEnvironment::publish_link_metrics() {
  auto& reg = obs::registry();
  std::uint64_t epoch_resets_total = 0;
  for (const auto& [peer, link] : links_) {
    epoch_resets_total += link->stats().epoch_resets;
    const core::SlidingWindowLink::Stats& s = link->stats();
    const obs::Labels labels{{"party", std::to_string(keys_.index)},
                             {"peer", std::to_string(peer)}};
    reg.gauge("link.data_received", labels)
        .set(static_cast<double>(s.data_received));
    reg.gauge("link.acks_received", labels)
        .set(static_cast<double>(s.acks_received));
    reg.gauge("link.delivered", labels).set(static_cast<double>(s.delivered));
    reg.gauge("link.retransmissions", labels)
        .set(static_cast<double>(s.retransmissions));
    reg.gauge("link.backoffs", labels).set(static_cast<double>(s.backoffs));
    reg.gauge("link.rtt_samples", labels)
        .set(static_cast<double>(s.rtt_samples));
    reg.gauge("link.srtt_ms", labels).set(s.srtt_ms);
    reg.gauge("link.rttvar_ms", labels).set(s.rttvar_ms);
    reg.gauge("link.rto_ms", labels).set(s.rto_ms);
    reg.gauge("link.drop_auth", labels).set(static_cast<double>(s.drop_auth));
    reg.gauge("link.drop_malformed", labels)
        .set(static_cast<double>(s.drop_malformed));
    reg.gauge("link.drop_overflow", labels)
        .set(static_cast<double>(s.drop_overflow));
    reg.gauge("link.drop_duplicate", labels)
        .set(static_cast<double>(s.drop_duplicate));
    reg.gauge("link.drop_epoch", labels)
        .set(static_cast<double>(s.drop_epoch));
    reg.gauge("link.epoch_resets", labels)
        .set(static_cast<double>(s.epoch_resets));
    reg.gauge("link.backlog", labels).set(static_cast<double>(link->backlog()));
  }
  // Party-level restart-detection total, under the recovery.* family the
  // cluster runner asserts on.
  reg.gauge("recovery.epoch_resets", obs::party_labels(keys_.index))
      .set(static_cast<double>(epoch_resets_total));
  // Kernel round-trips made by this party's socket, split by direction —
  // divided by deliveries this yields the syscalls-per-delivery figure of
  // BENCH_scale.json (sendmmsg/recvmmsg batching is what moves it).
  reg.gauge("net.tx_syscalls", obs::party_labels(keys_.index))
      .set(static_cast<double>(socket_.tx_syscalls()));
  reg.gauge("net.rx_syscalls", obs::party_labels(keys_.index))
      .set(static_cast<double>(socket_.rx_syscalls()));
}

std::size_t NetEnvironment::send_backlog() const {
  std::size_t total = 0;
  for (const auto& [peer, link] : links_) total += link->backlog();
  return total;
}

void NetEnvironment::on_socket_readable() {
  // Bounded drain: at most max_receive_batch datagrams per wake so timers
  // and other parties on the loop stay responsive under flood; the
  // level-triggered epoll registration re-fires if more are queued.
  if (rx_pool_ != nullptr) {
    // recvmmsg path: one kernel round-trip fills up to slots() reusable
    // buffers — no per-datagram recvfrom, no per-datagram allocation.
    std::size_t drained = 0;
    while (drained < options_.max_receive_batch) {
      const std::size_t got = socket_.receive_batch(*rx_pool_);
      if (got == 0) break;
      m_rx_pool_in_use_->set(static_cast<double>(got));
      for (std::size_t i = 0; i < got; ++i) {
        process_datagram(rx_pool_->payload(i));
      }
      drained += got;
      if (got < rx_pool_->slots()) break;  // socket drained
    }
    return;
  }
  for (std::size_t i = 0; i < options_.max_receive_batch; ++i) {
    auto received = socket_.receive(options_.max_datagram + 1);
    if (!received) return;
    process_datagram(received->first);
  }
}

void NetEnvironment::process_datagram(BytesView datagram) {
  ++stats_.datagrams_received;
  m_datagrams_received_->inc();
  if (datagram.size() > options_.max_datagram) {
    ++stats_.drop_oversized;
    m_drop_oversized_->inc();
    return;
  }
  if (datagram.size() < 4) {
    ++stats_.drop_no_sender;
    m_drop_no_sender_->inc();
    return;
  }
  Reader r(datagram);
  const auto sender = static_cast<int>(r.u32());
  if (sender < 0 || sender >= keys_.n || sender == keys_.index) {
    ++stats_.drop_bad_sender;
    m_drop_bad_sender_->inc();
    return;
  }
  // The id prefix is only a routing hint; the link's HMAC decides
  // whether the frame really came from `sender`.
  links_.at(sender)->on_datagram(datagram.subspan(4));
}

}  // namespace sintra::net
