#include "core/channel/atomic_channel.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace sintra::core {

namespace {
constexpr std::uint8_t kSignedTag = 1;
// Payload marker bytes (first byte of every queued payload).
constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kCloseRequest = 1;
}  // namespace

AtomicChannel::AtomicChannel(Environment& env, Dispatcher& dispatcher,
                             const std::string& pid, Config config)
    : Protocol(env, dispatcher, pid), config_(config) {
  if (config_.batch_size < 0 || config_.batch_size > env.n())
    throw std::invalid_argument("AtomicChannel: bad batch size");
  if (config_.max_batch_count > 1 << 20)
    throw std::invalid_argument("AtomicChannel: bad max batch count");
  if (config_.pipeline_depth > 1 << 20)
    throw std::invalid_argument("AtomicChannel: bad pipeline depth");
  auto& reg = obs::registry();
  const obs::Labels labels =
      obs::party_layer_labels(env.self(), obs::layer_of(pid));
  m_rounds_ = &reg.counter("channel.rounds", labels);
  m_deliveries_ = &reg.counter("channel.deliveries", labels);
  m_parked_ = &reg.counter("channel.parked_batches", labels);
  m_rounds_in_flight_ = &reg.gauge("channel.rounds_in_flight", labels);
  m_round_ms_ = &reg.histogram("channel.round_ms", labels);
  m_batch_entries_ = &reg.histogram("channel.batch_entries", labels);
  m_batch_size_ = &reg.histogram("channel.batch_size", labels);
  m_mvba_iterations_ = &reg.histogram("channel.mvba_iterations", labels);
  activate();
}

AtomicChannel::~AtomicChannel() = default;

int AtomicChannel::batch_size() const {
  return config_.batch_size > 0 ? config_.batch_size : env_.t() + 1;
}

int AtomicChannel::max_bundle_entries() const {
  return std::max(1, config_.max_batch_count);
}

int AtomicChannel::depth() const {
  return std::max(1, config_.pipeline_depth);
}

Bytes AtomicChannel::sign_statement(
    int round, const std::vector<Entry>& entries) const {
  Writer w;
  w.str("ac-sign");
  w.str(pid());
  w.u32(static_cast<std::uint32_t>(round));
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.u32(static_cast<std::uint32_t>(e.origin));
    w.u64(e.seq);
    w.bytes(e.payload);
  }
  return std::move(w).take();
}

std::string AtomicChannel::mvba_pid(int round) const {
  return pid() + ".r" + std::to_string(round);
}

void AtomicChannel::write_bundle(Writer& w, const SignedBundle& b) {
  w.u32(static_cast<std::uint32_t>(b.signer));
  w.u32(static_cast<std::uint32_t>(b.entries.size()));
  for (const Entry& e : b.entries) {
    w.u32(static_cast<std::uint32_t>(e.origin));
    w.u64(e.seq);
    w.bytes(e.payload);
  }
  w.bytes(b.sig);
}

AtomicChannel::SignedBundle AtomicChannel::read_bundle(Reader& r) {
  SignedBundle b;
  b.signer = static_cast<PartyId>(r.u32());
  const std::uint32_t count = r.u32();
  if (count > (1u << 20)) throw SerdeError("bundle too large");
  b.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.origin = static_cast<PartyId>(r.u32());
    e.seq = r.u64();
    e.payload = r.bytes();
    b.entries.push_back(std::move(e));
  }
  b.sig = r.bytes();
  return b;
}

void AtomicChannel::send(BytesView payload) {
  if (closed_) throw std::logic_error("AtomicChannel::send: channel closed");
  enqueue_marker(kData, payload);
}

void AtomicChannel::close() {
  if (closed_) return;
  enqueue_marker(kCloseRequest, {});
}

void AtomicChannel::enqueue_marker(std::uint8_t marker, BytesView payload) {
  Writer w;
  w.u8(marker);
  w.raw(payload);
  own_queue_.emplace_back(own_seq_++, std::move(w).take());
  maybe_start_rounds();
}

std::optional<Bytes> AtomicChannel::receive() {
  if (inbox_.empty()) return std::nullopt;
  Bytes out = std::move(inbox_.front());
  inbox_.pop_front();
  return out;
}

bool AtomicChannel::have_signable_work() const {
  for (const auto& [seq, payload] : own_queue_) {
    if (!inflight_keys_.contains({env_.self(), seq})) return true;
  }
  for (const auto& [key, payload] : foreign_pool_) {
    if (!inflight_keys_.contains(key)) return true;
  }
  return false;
}

void AtomicChannel::maybe_start_rounds() {
  // Watermark window: open rounds strictly in order while fewer than
  // `depth()` rounds separate the start cursor from the delivery cursor
  // and there is something to sign (or another party already opened the
  // round, in which case we must participate for its MVBA to gather a
  // quorum of proposals).
  while (!closed_ && next_start_round_ < next_deliver_round_ + depth()) {
    const int r = next_start_round_;
    const auto it = signed_.find(r);
    const bool externally_started = it != signed_.end() && !it->second.empty();
    if (!externally_started && !have_signable_work()) break;
    start_round(r);
  }
}

void AtomicChannel::start_round(int round) {
  RoundState& rs = rounds_[round];
  rs.start_ms = env_.now_ms();
  obs::emit(obs::EventType::kRoundStart, rs.start_ms, env_.self(), -1, pid(),
            0, round);
  ArrayValidator validator = [this, round](BytesView batch) {
    return batch_valid(round, batch);
  };
  rs.mvba = std::make_unique<ArrayAgreement>(
      env_, dispatcher_, mvba_pid(round), std::move(validator), config_.order);
  rs.mvba->set_decide_callback([this, round](const Bytes& batch) {
    on_batch_decided(round, batch);
  });
  next_start_round_ = round + 1;
  m_rounds_in_flight_->set(static_cast<double>(rounds_.size()));

  // Sign our own queued payloads (greedy drain), or adopt pending foreign
  // payloads; with neither, stay unsigned until another party's bundle
  // arrives and maybe_adopt_and_propose adopts it.
  std::vector<Entry> bundle = collect_bundle();
  if (!bundle.empty()) sign_and_broadcast(round, std::move(bundle));
  maybe_adopt_and_propose(round);
}

std::vector<AtomicChannel::Entry> AtomicChannel::collect_bundle() const {
  // Greedy drain of own_queue_, skipping keys already signed into an open
  // round; the count/byte caps bound one bundle (a bundle always carries
  // at least one payload, so an oversized single payload still ships).
  std::vector<Entry> out;
  std::size_t bytes = 0;
  for (const auto& [seq, payload] : own_queue_) {
    if (static_cast<int>(out.size()) >= max_bundle_entries()) break;
    if (!out.empty() && config_.max_batch_bytes != 0 &&
        bytes + payload.size() > config_.max_batch_bytes) {
      break;
    }
    if (inflight_keys_.contains({env_.self(), seq})) continue;
    out.push_back(Entry{env_.self(), seq, payload});
    bytes += payload.size();
  }
  if (!out.empty()) return out;
  for (const auto& [key, payload] : foreign_pool_) {
    if (static_cast<int>(out.size()) >= max_bundle_entries()) break;
    if (!out.empty() && config_.max_batch_bytes != 0 &&
        bytes + payload.size() > config_.max_batch_bytes) {
      break;
    }
    if (inflight_keys_.contains(key)) continue;
    out.push_back(Entry{key.first, key.second, payload});
    bytes += payload.size();
  }
  return out;
}

void AtomicChannel::sign_and_broadcast(int round, std::vector<Entry> entries) {
  RoundState& rs = rounds_.at(round);
  rs.signed_bundle = true;
  for (const Entry& e : entries) {
    const MessageKey key{e.origin, e.seq};
    if (inflight_keys_.insert(key).second) rs.own_keys.push_back(key);
  }
  m_batch_size_->observe(static_cast<double>(entries.size()));
  SignedBundle b;
  b.signer = env_.self();
  b.sig = env_.keys().sign(sign_statement(round, entries));
  b.entries = std::move(entries);
  Writer w;
  w.u8(kSignedTag);
  w.u32(static_cast<std::uint32_t>(round));
  write_bundle(w, b);
  send_all(w.data());
}

void AtomicChannel::on_message(PartyId from, BytesView payload) {
  try {
    Reader r(payload);
    if (r.u8() != kSignedTag) return;
    handle_signed(from, r);
  } catch (const SerdeError&) {
    // drop
  }
}

bool AtomicChannel::bundle_shape_valid(const SignedBundle& b) const {
  if (b.signer < 0 || b.signer >= env_.n()) return false;
  if (b.entries.empty()) return false;
  if (static_cast<int>(b.entries.size()) > max_bundle_entries()) return false;
  std::set<MessageKey> keys;
  for (const Entry& e : b.entries) {
    if (e.origin < 0 || e.origin >= env_.n()) return false;
    if (e.payload.empty()) return false;  // marker byte is mandatory
    // A Byzantine proposer stuffing the same (origin, seq) twice into one
    // bundle is rejected outright.
    if (!keys.insert({e.origin, e.seq}).second) return false;
  }
  return true;
}

bool AtomicChannel::bundle_valid(int round, const SignedBundle& b,
                                 bool check_delivered) const {
  if (!bundle_shape_valid(b)) return false;
  if (check_delivered) {
    for (const Entry& e : b.entries) {
      if (delivered_keys_.contains({e.origin, e.seq})) return false;
    }
  }
  return env_.keys().verify_party_sig(b.signer,
                                      sign_statement(round, b.entries), b.sig);
}

void AtomicChannel::handle_signed(PartyId from, Reader& rd) {
  const int round = static_cast<int>(rd.u32());
  SignedBundle b = read_bundle(rd);
  rd.expect_end();
  if (closed_) return;
  if (b.signer != from) return;  // a signer relays only its own signature
  if (round < next_deliver_round_ || round > next_deliver_round_ + 10000)
    return;
  auto& per_round = signed_[round];
  if (per_round.contains(b.signer)) return;
  if (!bundle_valid(round, b, /*check_delivered=*/false)) return;
  for (const Entry& e : b.entries) {
    const MessageKey key{e.origin, e.seq};
    if (!delivered_keys_.contains(key)) {
      foreign_pool_.try_emplace(key, e.payload);
    }
  }
  per_round.emplace(b.signer, std::move(b));
  maybe_start_rounds();  // a signed bundle can wake an idle channel
  maybe_adopt_and_propose(round);
}

void AtomicChannel::maybe_adopt_and_propose(int round) {
  if (closed_) return;
  auto rit = rounds_.find(round);
  if (rit == rounds_.end()) return;
  RoundState& rs = rit->second;
  if (rs.decided) return;
  auto& per_round = signed_[round];

  if (!rs.signed_bundle && !per_round.empty()) {
    // Adopt messages first signed by another party (paper §2.5).  Prefer
    // fresh local work that may have arrived since the round opened, then
    // the first signer's undelivered entries, then — to keep the round
    // signable at all — its bundle as-is.
    std::vector<Entry> adopt = collect_bundle();
    if (adopt.empty()) {
      const SignedBundle& other = per_round.begin()->second;
      for (const Entry& e : other.entries) {
        const MessageKey key{e.origin, e.seq};
        if (delivered_keys_.contains(key)) continue;
        if (inflight_keys_.contains(key)) continue;
        adopt.push_back(e);
      }
      if (adopt.empty()) {
        for (const Entry& e : other.entries) {
          if (delivered_keys_.contains({e.origin, e.seq})) continue;
          adopt.push_back(e);
        }
      }
      if (adopt.empty()) adopt = other.entries;
    }
    sign_and_broadcast(round, std::move(adopt));
  }
  if (rs.proposed || !rs.signed_bundle) return;

  // Only bundles our own validator accepts may enter a proposal
  // (ArrayAgreement::propose rejects externally-invalid values).
  std::vector<const SignedBundle*> eligible;
  for (const auto& [signer, bundle] : per_round) {
    if (bundle_valid(round, bundle, strict_validity())) {
      eligible.push_back(&bundle);
    }
  }
  if (static_cast<int>(eligible.size()) < batch_size()) return;

  // Build a batch of batch_size() bundles from distinct signers,
  // preferring bundles that contribute new payload keys so full batches
  // deliver more.
  std::vector<const SignedBundle*> picked;
  std::set<MessageKey> keys;
  for (const SignedBundle* b : eligible) {
    if (static_cast<int>(picked.size()) == batch_size()) break;
    bool fresh = false;
    for (const Entry& e : b->entries) {
      if (!keys.contains({e.origin, e.seq})) {
        fresh = true;
        break;
      }
    }
    if (!fresh) continue;
    for (const Entry& e : b->entries) keys.insert({e.origin, e.seq});
    picked.push_back(b);
  }
  if (static_cast<int>(picked.size()) < batch_size()) {
    // Not enough distinct messages yet.  Wait for more signers before
    // padding the batch with duplicates — with concurrent senders this is
    // what fills rounds with distinct messages (the paper's batch-of-two
    // deliveries, Fig. 4); with a single sender the n-t quorum arrives
    // with only one message in flight and the batch legitimately repeats
    // it ("one multi-valued agreement for every delivered message", §4.2).
    if (static_cast<int>(per_round.size()) < env_.n() - env_.t()) return;
    for (const SignedBundle* b : eligible) {
      if (static_cast<int>(picked.size()) == batch_size()) break;
      if (std::find(picked.begin(), picked.end(), b) == picked.end()) {
        picked.push_back(b);
      }
    }
  }
  if (static_cast<int>(picked.size()) < batch_size()) return;

  Writer w;
  w.u32(static_cast<std::uint32_t>(picked.size()));
  for (const SignedBundle* b : picked) write_bundle(w, *b);
  rs.proposed = true;
  rs.mvba->propose(w.data());
}

bool AtomicChannel::batch_valid(int round, BytesView batch) const {
  try {
    Reader r(batch);
    const std::uint32_t count = r.u32();
    if (count != static_cast<std::uint32_t>(batch_size())) return false;
    std::set<PartyId> signers;
    for (std::uint32_t i = 0; i < count; ++i) {
      SignedBundle b = read_bundle(r);
      if (!signers.insert(b.signer).second) return false;
      // With serial rounds (depth 1) the validator also rejects
      // already-delivered entries, exactly like the seed; with a deeper
      // pipeline the validator must be a pure function of the batch bytes
      // (delivered_keys_ advances concurrently at different parties), so
      // the at-most-once guarantee moves to the delivery-time skip.
      if (!bundle_valid(round, b, strict_validity())) return false;
    }
    r.expect_end();
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

void AtomicChannel::on_batch_decided(int round, const Bytes& batch) {
  if (closed_) return;
  auto it = rounds_.find(round);
  if (it == rounds_.end() || it->second.decided) return;
  RoundState& rs = it->second;
  rs.decided = batch;
  rs.iterations = rs.mvba->iterations_used();
  if (round != next_deliver_round_) {
    // Decided ahead of the watermark: park until predecessors deliver.
    m_parked_->inc();
    obs::emit(obs::EventType::kPark, env_.now_ms(), env_.self(), -1, pid(),
              batch.size(), round);
    return;
  }
  // Deliveries nest: a round this flush opens can decide at once from
  // buffered traffic (the dispatcher replays it on registration), and the
  // deliver callback may send().  The agreement of every round whose
  // decide callback is on the stack must outlive it (deliver_round()).
  struct Restore {
    int& slot;
    int saved;
    ~Restore() { slot = saved; }
  } restore{lowest_running_round_, lowest_running_round_};
  lowest_running_round_ = std::min(lowest_running_round_, round);
  flush_decided();
}

void AtomicChannel::flush_decided() {
  while (!closed_) {
    auto it = rounds_.find(next_deliver_round_);
    if (it == rounds_.end() || !it->second.decided) break;
    deliver_round(next_deliver_round_);
  }
  if (!closed_) maybe_start_rounds();
}

void AtomicChannel::deliver_round(int round) {
  auto it = rounds_.find(round);
  const Bytes batch = std::move(*it->second.decided);
  const int iterations = it->second.iterations;
  const double start_ms = it->second.start_ms;
  // The MVBA may still be executing: this runs from a decide callback.
  finished_mvbas_.emplace(round, std::move(it->second.mvba));
  for (const MessageKey& key : it->second.own_keys) {
    inflight_keys_.erase(key);
  }
  rounds_.erase(it);
  signed_.erase(round);
  m_rounds_in_flight_->set(static_cast<double>(rounds_.size()));

  // Deliver the batch in the fixed order (origin index, then sequence).
  std::vector<Entry> entries;
  try {
    Reader r(batch);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      SignedBundle b = read_bundle(r);
      for (Entry& e : b.entries) entries.push_back(std::move(e));
    }
  } catch (const SerdeError&) {
    return;  // cannot happen: the batch passed external validity
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.origin, a.seq) < std::tie(b.origin, b.seq);
            });

  round_ = round;
  next_deliver_round_ = round + 1;
  // Free the agreements of rounds the cursor is now depth() rounds past,
  // with their broadcasts and binary agreements, but none from the lowest
  // round whose decide callback is still running.  Their pids stay
  // retired in the dispatcher, so late messages are dropped; nothing they
  // still owed a slower peer is lost (DESIGN.md §15).
  finished_mvbas_.erase(
      finished_mvbas_.begin(),
      finished_mvbas_.lower_bound(
          std::min(next_deliver_round_ - depth(), lowest_running_round_)));

  m_rounds_->inc();
  m_round_ms_->observe(env_.now_ms() - start_ms);
  m_batch_entries_->observe(static_cast<double>(entries.size()));
  m_mvba_iterations_->observe(static_cast<double>(iterations));

  for (Entry& e : entries) {
    const MessageKey key{e.origin, e.seq};
    if (!delivered_keys_.insert(key).second) continue;  // duplicate in batch
    if (e.origin == env_.self()) {
      own_queue_.erase(
          std::remove_if(own_queue_.begin(), own_queue_.end(),
                         [&](const auto& item) { return item.first == e.seq; }),
          own_queue_.end());
    }
    foreign_pool_.erase(key);
    inflight_keys_.erase(key);
    deliver(std::move(e), round, iterations);
    if (closed_) return;  // the close quorum was reached mid-batch
  }
}

void AtomicChannel::deliver(Entry entry, int round, int iterations) {
  Reader r(entry.payload);
  const std::uint8_t marker = r.u8();
  Bytes user = r.raw(r.remaining());

  if (marker == kCloseRequest) {
    close_origins_.insert(entry.origin);
    if (static_cast<int>(close_origins_.size()) >= env_.t() + 1) {
      closed_ = true;
      deactivate();
      if (closed_cb_) closed_cb_();
    }
    return;
  }
  if (marker != kData) return;  // unknown marker from a Byzantine origin

  m_deliveries_->inc();
  obs::emit(obs::EventType::kDeliver, env_.now_ms(), entry.origin,
            env_.self(), pid(), user.size(), round);
  deliveries_.push_back(Delivery{user, entry.origin, entry.seq, round,
                                 env_.now_ms(), iterations});
  if (delivery_log_limit_ != 0 &&
      deliveries_.size() >= 2 * delivery_log_limit_) {
    deliveries_.erase(deliveries_.begin(),
                      deliveries_.end() -
                          static_cast<std::ptrdiff_t>(delivery_log_limit_));
  }
  inbox_.push_back(std::move(user));
  if (deliver_cb_) deliver_cb_(inbox_.back(), entry.origin);
}

void AtomicChannel::abort() {
  for (auto& [round, rs] : rounds_) {
    if (rs.mvba) rs.mvba->abort();
  }
  closed_ = true;
  Protocol::abort();
}

}  // namespace sintra::core
