// Structured event tracing: typed records for message send/recv, protocol
// round starts and state transitions, coin releases, decisions and
// deliveries.
//
// One trace type serves the simulator — where experiments attach it
// per-run (Simulator::trace) and aggregate offline, as the paper's §4.2
// does for "protocol overhead and network delays" — and the real-network
// node, where `sintra_node --trace-out` streams events as JSON lines.
//
// Cost discipline: instrumentation sites call obs::emit(), which is one
// relaxed pointer load plus a branch when no sink is attached — no string
// construction, no allocation.  Attaching a sink is what opts in to the
// cost.
#pragma once

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sintra::obs {

enum class EventType : std::uint8_t {
  kSend,        // frame handed to the transport
  kRecv,        // frame dispatched to a protocol instance
  kRoundStart,  // a channel/agreement round began (value = round)
  kTransition,  // protocol state transition (detail = state name)
  kCoinRelease, // threshold-coin share released (value = round)
  kDecide,      // agreement decided (value = bit, detail = "r<round>")
  kDeliver,     // atomic broadcast delivered a payload
  kPark,        // a decided batch parked awaiting earlier rounds (pipelining)
  kShed,        // client gateway refused a request (value = client id)
};

/// Stable lower-case name used in the JSON-lines output.
const char* event_type_name(EventType type);

struct Event {
  double time_ms = 0;
  int from = -1;
  int to = -1;  // -1 = broadcast / not applicable
  std::string pid;
  std::size_t bytes = 0;
  EventType type = EventType::kSend;
  double value = 0;    // round number, decided bit, batch size, ...
  std::string detail;  // free-form: state name, marker kind, ...
};

/// Recorder for Events.  Not thread-safe by itself — each environment
/// owns its sink on one thread (the simulator loop or the epoll loop).
class EventTrace {
 public:
  void record(Event e);

  [[nodiscard]] const std::vector<Event>& entries() const { return entries_; }

  struct Totals {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  /// Aggregates *send* events by a caller-supplied classifier (e.g.
  /// obs::layer_of to group instance pids by protocol layer).
  template <typename Classify>
  [[nodiscard]] std::map<std::string, Totals> by_class(
      Classify classify) const {
    std::map<std::string, Totals> out;
    for (const Event& e : entries_) {
      if (e.type != EventType::kSend) continue;
      Totals& t = out[classify(e.pid)];
      ++t.messages;
      t.bytes += e.bytes;
    }
    return out;
  }

  void clear() { entries_.clear(); }

  /// Write-through sink: every record() is appended to `stream` as one
  /// JSON object per line (schema in docs/OBSERVABILITY.md).  Not owned.
  void set_stream(std::FILE* stream) { stream_ = stream; }

  /// When false, events are streamed (or dropped) without being retained
  /// in memory — the right mode for long-lived nodes.  Default true.
  void set_retain(bool retain) { retain_ = retain; }

 private:
  std::vector<Event> entries_;
  std::FILE* stream_ = nullptr;
  bool retain_ = true;
};

/// Process-default trace sink.  Null (the default) means tracing is off
/// and emit() is a pointer load + branch.
EventTrace* trace_sink();
void set_trace_sink(EventTrace* sink);

namespace detail {
extern std::atomic<EventTrace*> g_trace_sink;
}

/// Emits an event to the process sink, if one is attached.  The pid and
/// detail are only materialized into strings past the null check.
inline void emit(EventType type, double time_ms, int from, int to,
                 std::string_view pid, std::size_t bytes = 0,
                 double value = 0.0, std::string_view detail = {}) {
  EventTrace* sink = detail::g_trace_sink.load(std::memory_order_relaxed);
  if (!sink) return;
  Event e;
  e.time_ms = time_ms;
  e.from = from;
  e.to = to;
  e.pid = std::string(pid);
  e.bytes = bytes;
  e.type = type;
  e.value = value;
  e.detail = std::string(detail);
  sink->record(std::move(e));
}

/// Collapses digit runs in a pid to '*', mapping unbounded per-instance
/// pids onto a bounded set of protocol-layer labels:
///   "cluster.atomic.r3.cb.2" -> "cluster.atomic.r*.cb.*"
std::string layer_of(std::string_view pid);

}  // namespace sintra::obs
