#include "core/dispatcher.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "obs/trace.hpp"

namespace sintra::core {

namespace {

// The round R of a pid `prefix + R` or `prefix + R + ".…"`; nullopt for
// any other pid.
std::optional<int> round_under(std::string_view pid, std::string_view prefix) {
  if (!pid.starts_with(prefix)) return std::nullopt;
  pid.remove_prefix(prefix.size());
  int round = 0;
  const auto [end, ec] =
      std::from_chars(pid.data(), pid.data() + pid.size(), round);
  if (ec != std::errc{} || end == pid.data()) return std::nullopt;
  if (end != pid.data() + pid.size() && *end != '.') return std::nullopt;
  return round;
}

}  // namespace

void Dispatcher::register_pid(const std::string& pid, Handler handler) {
  if (handlers_.contains(pid))
    throw std::logic_error("Dispatcher: pid already registered: " + pid);
  retired_.erase(pid);
  auto [it, inserted] = handlers_.emplace(pid, std::move(handler));
  (void)inserted;
  // Replay buffered early messages.
  auto buf = buffers_.find(pid);
  if (buf != buffers_.end()) {
    auto pending = std::move(buf->second);
    buffered_total_ -= pending.size();
    buffers_.erase(buf);
    for (auto& [from, payload] : pending) {
      // The handler may unregister mid-replay (e.g. a one-shot protocol
      // that terminates); stop replaying then.  Invoke through a copy so
      // self-unregistration cannot destroy the function mid-call.
      auto h = handlers_.find(pid);
      if (h == handlers_.end()) break;
      Handler current = h->second;
      current(from, payload);
    }
  }
}

void Dispatcher::unregister_pid(const std::string& pid) {
  handlers_.erase(pid);
  retired_.insert(pid);
}

void Dispatcher::retire_rounds_below(const std::string& prefix, int floor) {
  int& current = round_floors_[prefix];
  current = std::max(current, floor);
  const auto below = [&](const std::string& pid) {
    const std::optional<int> round = round_under(pid, prefix);
    return round && *round < current;
  };
  // Every pid under the prefix sorts at or after it, contiguously.
  for (auto it = retired_.lower_bound(prefix);
       it != retired_.end() && it->starts_with(prefix);) {
    it = below(*it) ? retired_.erase(it) : std::next(it);
  }
  for (auto it = buffers_.lower_bound(prefix);
       it != buffers_.end() && it->first.starts_with(prefix);) {
    if (below(it->first)) {
      buffered_total_ -= it->second.size();
      it = buffers_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Dispatcher::below_round_floor(const std::string& pid) const {
  for (const auto& [prefix, floor] : round_floors_) {
    const std::optional<int> round = round_under(pid, prefix);
    if (round && *round < floor) return true;
  }
  return false;
}

void Dispatcher::attach_obs(int party, std::function<double()> now_fn) {
  obs_party_ = party;
  obs_now_ = std::move(now_fn);
  auto& reg = obs::registry();
  obs_malformed_ =
      &reg.counter("dispatcher.malformed", obs::party_labels(party));
  obs_early_ =
      &reg.counter("dispatcher.early_buffered", obs::party_labels(party));
  obs_bytes_moved_ =
      &reg.counter("dispatcher.bytes_moved", obs::party_labels(party));
  obs_attached_ = true;
}

Dispatcher::LayerMetrics& Dispatcher::layer_metrics(const std::string& layer) {
  auto it = layer_metrics_.find(layer);
  if (it != layer_metrics_.end()) return it->second;
  auto& reg = obs::registry();
  LayerMetrics m;
  const obs::Labels labels = obs::party_layer_labels(obs_party_, layer);
  m.messages = &reg.counter("dispatcher.messages", labels);
  m.bytes = &reg.counter("dispatcher.bytes", labels);
  m.handle_ms = &reg.histogram("dispatcher.handle_ms", labels);
  return layer_metrics_.emplace(layer, m).first->second;
}

void Dispatcher::on_message(PartyId from, BytesView wire) {
  // The payload stays a view into `wire` on the routed fast path; only
  // early-buffered messages are materialized into owned bytes.
  WireMessageView msg;
  try {
    msg = parse_frame_view(wire);
  } catch (const SerdeError&) {
    if (obs_attached_) obs_malformed_->inc();
    return;  // malformed frame from a Byzantine sender: drop
  }
  auto h = handlers_.find(msg.pid);
  LayerMetrics* m = nullptr;
  if (obs_attached_) {
    // The layer label derives from the (attacker-controlled) pid, so
    // per-layer registry entries are created only for pids with a
    // registered handler; everything else — early-buffered, retired or
    // junk pids — shares the one fixed "unrouted" layer.  Otherwise a
    // Byzantine peer could grow the registry without bound by flooding
    // distinct non-numeric pids, defeating the kMaxBuffered guard.
    static const std::string kUnrouted = "unrouted";
    m = &layer_metrics(h != handlers_.end() ? obs::layer_of(msg.pid)
                                            : kUnrouted);
    m->messages->inc();
    m->bytes->inc(wire.size());
    obs::emit(obs::EventType::kRecv, obs_now_(), from, obs_party_, msg.pid,
              wire.size());
  }
  if (h != handlers_.end()) {
    // Copy: the handler may unregister itself (protocol termination)
    // while running, which would otherwise destroy it mid-call.
    Handler handler = h->second;
    if (obs_attached_) obs_bytes_moved_->inc(msg.payload.size());
    if (m != nullptr) {
      // Real CPU time, not environment time: the simulator's virtual
      // clock is frozen inside a handler, and the actual crypto cost is
      // exactly what the paper's §4.2 attribution wants.
      const auto t0 = std::chrono::steady_clock::now();
      handler(from, msg.payload);
      m->handle_ms->observe(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count());
    } else {
      handler(from, msg.payload);
    }
    return;
  }
  // Finished protocol, or a round of one freed for good: drop.
  if (retired_.contains(msg.pid) || below_round_floor(msg.pid)) return;
  if (buffered_total_ >= kMaxBuffered) return;  // flooding guard
  if (obs_attached_) obs_early_->inc();
  buffers_[msg.pid].emplace_back(from,
                                 Bytes(msg.payload.begin(), msg.payload.end()));
  ++buffered_total_;
}

}  // namespace sintra::core
