// sintra_perf — the benchmark's own load and simulator programs (see
// README.md here).
//
//   sintra_perf gen   ...   signed-request load generator for a real
//                           sintra_node cluster (open or closed loop)
//   sintra_perf sim   ...   the n=7 simulator workload (sim-n7)
//   sintra_perf micro ...   timed public crypto/bignum calls on a key file
//
// Every mode writes its figures as one JSON object to --result; run.py
// turns them into the benchmark's metrics.  Nothing here instruments the
// library: it only calls public APIs and reads the process-wide
// obs::registry().
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bignum/montgomery.hpp"
#include "client/keys.hpp"
#include "client/service_client.hpp"
#include "client/wire.hpp"
#include "core/channel/atomic_channel.hpp"
#include "crypto/cost.hpp"
#include "crypto/dealer.hpp"
#include "crypto/keyfile.hpp"
#include "net/event_loop.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/topologies.hpp"

using namespace sintra;
using bignum::BigInt;

namespace {

// ---------------------------------------------------------------- helpers

/// CLOCK_MONOTONIC in ms — the same clock as Python's time.monotonic(),
/// so run.py can line these stamps up with its own.
double mono_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Nearest-rank percentile (p in [0,1]); +inf entries sort last.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

/// Minimal JSON object writer: numbers keep full precision.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
    return raw(key, buf);
  }
  Json& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + value);
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
class ChromeTrace {
 public:
  void complete(const std::string& name, double ts_us, double dur_us, int pid,
                std::uint64_t tid, const std::string& args_json) {
    add("{\"name\":\"" + name + "\",\"ph\":\"X\",\"ts\":" + fmt(ts_us) +
        ",\"dur\":" + fmt(std::max(dur_us, 0.0)) + ",\"pid\":" +
        std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
        ",\"args\":" + args_json + "}");
  }
  void instant(const std::string& name, double ts_us, int pid,
               std::uint64_t tid, const std::string& args_json) {
    add("{\"name\":\"" + name + "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
        fmt(ts_us) + ",\"pid\":" + std::to_string(pid) + ",\"tid\":" +
        std::to_string(tid) + ",\"args\":" + args_json + "}");
  }
  void process_name(int pid, const std::string& name) {
    add("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
        std::to_string(pid) + ",\"args\":{\"name\":\"" + name + "\"}}");
  }
  void write(const std::string& path) const {
    write_file(path, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" +
                         body_ + "\n]}\n");
  }

 private:
  static std::string fmt(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  }
  void add(const std::string& ev) {
    if (events_++ > 0) body_ += ",\n";
    body_ += ev;
  }
  std::string body_;
  std::size_t events_ = 0;
};

using ArgMap = std::map<std::string, std::string>;

ArgMap parse_flags(int argc, char** argv, int first) {
  ArgMap m;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + key);
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      m[key] = argv[++i];
    } else {
      m[key] = "1";
    }
  }
  return m;
}

std::string need(const ArgMap& m, const std::string& key) {
  const auto it = m.find(key);
  if (it == m.end()) throw std::runtime_error("--" + key + " is required");
  return it->second;
}

std::string opt(const ArgMap& m, const std::string& key,
                const std::string& fallback) {
  const auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

crypto::PartyKeys load_party_keys(const std::string& path) {
  const std::string blob = read_file(path);
  return crypto::materialize(crypto::read_party_keys(
      BytesView(reinterpret_cast<const std::uint8_t*>(blob.data()),
                blob.size())));
}

std::uint64_t counter_value(const obs::Snapshot& snap,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

// ------------------------------------------------------------------ micro

/// Times public crypto/bignum calls on one party's own keys: the
/// standard-signature verify the atomic broadcast runs per bundle, an
/// agreement signature share, and a 1024-bit Montgomery modexp.  Each
/// figure is the median of several timed batches.
std::string micro_json(const crypto::PartyKeys& keys) {
  const Bytes msg = to_bytes("perfbench micro statement");
  const Bytes sig = keys.sign(msg);
  const int peer = keys.index;
  const Bytes share = keys.sig_agreement->sign_share(msg);
  if (!keys.verify_party_sig(peer, msg, sig) ||
      !keys.sig_agreement->verify_share(msg, keys.index, share)) {
    throw std::runtime_error("micro: own signature does not verify");
  }
  std::mt19937_64 rng(7);
  auto random_below = [&](const BigInt& bound) {
    Bytes raw(static_cast<std::size_t>((bound.bit_length() + 7) / 8));
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng());
    return BigInt::from_bytes(raw) % bound;
  };
  const BigInt& modulus = keys.own_rsa->pub.n;
  const bignum::Montgomery mont(modulus);
  const BigInt base = random_below(modulus);
  const BigInt exponent = random_below(modulus);

  // Each op returns whether its result checks out; a wrong result fails
  // the run (and keeps the call from being optimized away).
  constexpr double kBudgetMs = 300.0;
  auto time_us = [&](const char* what, const std::function<bool()>& op) {
    bool ok = op();  // warm caches and any lazily built tables
    std::vector<double> batches;
    const double stop = mono_ms() + kBudgetMs;
    while (batches.size() < 5 || (mono_ms() < stop && batches.size() < 200)) {
      const double t0 = mono_ms();
      for (int i = 0; i < 8; ++i) ok = op() && ok;
      batches.push_back((mono_ms() - t0) * 1000.0 / 8.0);
    }
    if (!ok) throw std::runtime_error(std::string("micro: bad ") + what);
    return median(batches);
  };
  const BigInt expected = mont.pow(base, exponent);
  const double verify_us = time_us(
      "verify", [&] { return keys.verify_party_sig(peer, msg, sig); });
  const double share_us = time_us("share", [&] {
    return keys.sig_agreement->sign_share(msg) == share;
  });
  const double modexp_us = time_us(
      "modexp", [&] { return mont.pow(base, exponent) == expected; });
  Json j;
  j.num("rsa_verify_us", verify_us)
      .num("sign_share_us", share_us)
      .num("modexp1024_us", modexp_us)
      .integer("modulus_bits",
               static_cast<std::uint64_t>(modulus.bit_length()));
  return j.str();
}

int run_micro(const ArgMap& args) {
  const crypto::PartyKeys keys = load_party_keys(need(args, "keys"));
  write_file(need(args, "result"), micro_json(keys) + "\n");
  return 0;
}

// -------------------------------------------------------------------- gen

/// One request of the generated load.
struct Request {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;      // the client's request number (1-based)
  double due_ms = 0;          // scheduled arrival, relative to load start
  double submit_ms = -1;      // when the generator actually submitted
  double first_send_ms = -1;  // traced runs: first multicast
  double done_ms = -1;
  bool ok = false;
  bool failed = false;
  bool measured = false;      // inside the measured window
  std::uint64_t global_seq = 0;
  std::vector<double> reply_ms;  // traced runs: first reply per replica
  std::string payload;
};

class Generator {
 public:
  // Load-shaping constants shared by both cluster workloads.
  static constexpr double kRtoMs = 400.0;        // client retransmit timeout
  static constexpr std::size_t kPayloadBytes = 32;
  static constexpr double kWarmupMs = 2000.0;     // excluded from metrics


  Generator(const ArgMap& args, net::EventLoop& loop)
      : loop_(loop),
        socket_(net::SocketAddress::resolve("127.0.0.1", 0)),
        table_(client::read_key_file(need(args, "keys"))) {
    closed_ = need(args, "mode") == "closed";
    clients_n_ = std::stoi(need(args, "clients"));
    rate_ = std::stod(opt(args, "rate", "0"));
    window_ms_ = std::stod(need(args, "seconds")) * 1000.0;
    per_client_ = std::stoi(opt(args, "requests-per-client", "0"));
    seed_ = std::stoull(need(args, "seed"));
    warmup_only_ = args.contains("warmup-only");
    traced_ = args.contains("spans");
    spans_path_ = opt(args, "spans", "");
    result_path_ = need(args, "result");

    std::istringstream ss(need(args, "targets"));
    for (std::string part; std::getline(ss, part, ',');) {
      const auto colon = part.rfind(':');
      targets_.push_back(net::SocketAddress::resolve(
          part.substr(0, colon), std::stoi(part.substr(colon + 1))));
    }
    const int n = static_cast<int>(targets_.size());
    if (table_.count < static_cast<std::uint32_t>(clients_n_ + 1)) {
      throw std::runtime_error("key file covers too few clients");
    }
    // Clients [0, clients) carry the load; the last one only sends the
    // warm-up request, with a short fixed RTO so set-up time is not
    // rounded up to a backoff step while the nodes are still starting.
    for (int c = 0; c <= clients_n_; ++c) {
      const bool warm = c == clients_n_;
      client::ReplicatedServiceClient::Options o;
      o.client_id = static_cast<std::uint32_t>(c);
      o.key = table_.key(o.client_id);
      o.n = n;
      o.t = (n - 1) / 3;
      o.rto_ms = warm ? 50.0 : kRtoMs;
      o.rto_backoff = warm ? 1.0 : 2.0;
      o.max_attempts = warm ? 600 : 10;
      client::ReplicatedServiceClient::Hooks h;
      h.now_ms = [this] { return loop_.now_ms(); };
      h.send = [this, c](int replica, const Bytes& dgram) {
        if (traced_ && replica == 0) on_first_replica_send(c, dgram);
        socket_.send_to(targets_[static_cast<std::size_t>(replica)], dgram);
      };
      h.call_later = [this](double delay_ms, std::function<void()> fn) {
        loop_.call_later(delay_ms, std::move(fn));
      };
      clients_.push_back(std::make_unique<client::ReplicatedServiceClient>(
          std::move(o), std::move(h)));
      by_client_.emplace_back();
    }
    loop_.add_fd(socket_.fd(), [this] { on_readable(); });
  }

  ~Generator() { loop_.remove_fd(socket_.fd()); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void start() {
    submit(clients_n_, 0.0, loop_.now_ms());
    loop_.call_later(120000.0, [this] {
      std::fprintf(stderr, "# gen: wall-clock cap reached\n");
      aborted_ = true;
      loop_.stop();
    });
  }

  int finish_and_report() {
    const bool complete = !aborted_ && warm_done_ &&
                          (warmup_only_ || ended_);
    std::uint64_t failed = 0, completed = 0;
    std::vector<double> late;
    std::vector<const Request*> measured;
    std::vector<std::uint64_t> gseqs;
    std::vector<double> spread;
    std::ostringstream log;
    for (const Request& r : requests_) {
      if (r.failed || (r.done_ms < 0 && !warmup_only_)) ++failed;
      if (r.ok) {
        ++completed;
        gseqs.push_back(r.global_seq);
        log << r.global_seq << ' ' << r.payload << ' ' << r.due_ms << ' '
            << r.done_ms << ' ' << (r.measured ? 1 : 0) << '\n';
      }
      if (r.client == static_cast<std::uint32_t>(clients_n_)) continue;
      late.push_back(r.submit_ms - r.due_ms);
      if (r.measured) measured.push_back(&r);
      if (r.ok && r.reply_ms.size() == targets_.size() &&
          std::all_of(r.reply_ms.begin(), r.reply_ms.end(),
                      [](double v) { return v >= 0; })) {
        std::vector<double> rs = r.reply_ms;
        std::sort(rs.begin(), rs.end());
        // t+1-th to n-th reply.
        spread.push_back(rs.back() - rs[(rs.size() - 1) / 3]);
      }
    }
    std::sort(gseqs.begin(), gseqs.end());
    const bool distinct =
        std::adjacent_find(gseqs.begin(), gseqs.end()) == gseqs.end();

    // Latency runs from due time; a failed request counts as over any
    // limit.
    std::vector<double> lat;
    std::uint64_t measured_ok = 0;
    for (const Request* r : measured) {
      lat.push_back(r->ok ? r->done_ms - r->due_ms
                          : std::numeric_limits<double>::infinity());
      measured_ok += r->ok ? 1 : 0;
    }
    // Open loop: the fixed window.  Closed loop: START until the last
    // measured request settled.
    const double measured_ms = closed_ ? end_ms_ - kWarmupMs : window_ms_;

    Json j;
    j.boolean("complete", complete)
        .boolean("global_seq_distinct", distinct)
        .integer("requests", requests_.size())
        .integer("completed", completed)
        .integer("failed", failed)
        .integer("measured", measured.size())
        .num("measured_s", measured_ms / 1000.0)
        .num("p50_ms", percentile(lat, 0.50))
        .num("p99_ms", percentile(lat, 0.99))
        .num("req_per_s",
             static_cast<double>(measured_ok) / (measured_ms / 1000.0))
        .num("gen_late_p99_ms", percentile(late, 0.99))
        .integer("registry_requests", reg_end_.requests - reg_start_.requests)
        .integer("registry_retransmits",
                 reg_end_.retransmits - reg_start_.retransmits)
        .integer("spread_samples", spread.size())
        .num("reply_spread_p50_ms", percentile(spread, 0.5));
    write_file(result_path_, j.str() + "\n");
    write_file(result_path_ + ".log", log.str());
    if (traced_) write_spans();
    return complete ? 0 : 3;
  }

 private:
  struct RegistryCounts {
    std::uint64_t requests = 0, retransmits = 0;
  };

  static RegistryCounts read_registry() {
    const obs::Snapshot snap = obs::registry().snapshot();
    return {counter_value(snap, "client.requests"),
            counter_value(snap, "client.retransmits")};
  }

  std::string payload_of(std::uint32_t client, std::uint64_t seq) const {
    std::string s = "c" + std::to_string(client) + ":" + std::to_string(seq) +
                    ":" + std::to_string(seed_);
    if (s.size() < kPayloadBytes) s.resize(kPayloadBytes, '.');
    return s;
  }

  /// Submits client c's next request, due at `due_ms` (load-relative).
  void submit(int c, double due_ms, double now) {
    Request r;
    r.client = static_cast<std::uint32_t>(c);
    r.seq = by_client_[static_cast<std::size_t>(c)].size() + 1;
    r.due_ms = due_ms;
    r.submit_ms = now - load_start_ms_;
    r.measured = c < clients_n_ && due_ms >= kWarmupMs &&
                 (closed_ || due_ms < kWarmupMs + window_ms_);
    r.payload = payload_of(r.client, r.seq);
    if (traced_) r.reply_ms.assign(targets_.size(), -1.0);
    const std::size_t idx = requests_.size();
    requests_.push_back(std::move(r));
    by_client_[static_cast<std::size_t>(c)].push_back(idx);
    ++outstanding_;
    clients_[static_cast<std::size_t>(c)]->submit(
        to_bytes(requests_[idx].payload),
        [this, idx](client::ReplicatedServiceClient::Outcome o) {
          on_done(idx, std::move(o));
        });
  }

  void on_done(std::size_t idx, client::ReplicatedServiceClient::Outcome o) {
    const double now = loop_.now_ms();
    --outstanding_;
    {
      Request& r = requests_[idx];
      r.done_ms = now - load_start_ms_;
      r.ok = o.ok;
      r.failed = !o.ok;
      r.global_seq = o.global_seq;
    }
    const int c = static_cast<int>(requests_[idx].client);
    if (c == clients_n_) {
      on_warm(o.ok);
      return;
    }
    // Closed loop: zero think time, time-bounded warm-up, then a fixed
    // number of measured requests per client.
    if (closed_) {
      const double rel = now - load_start_ms_;
      int& issued = measured_issued_[static_cast<std::size_t>(c)];
      if (rel < kWarmupMs) {
        submit(c, rel, now);
      } else if (issued < per_client_) {
        ++issued;
        submit(c, rel, now);
      }
    }
    maybe_end();
  }

  void on_warm(bool ok) {
    if (!ok) {
      std::fprintf(stderr, "# gen: warm-up request failed\n");
      aborted_ = true;
      loop_.stop();
      return;
    }
    warm_done_ = true;
    std::printf("READY %.3f\n", mono_ms());
    std::fflush(stdout);
    if (warmup_only_) {
      loop_.stop();
      return;
    }
    start_load();
  }

  void start_load() {
    load_start_ms_ = loop_.now_ms();
    const double span = kWarmupMs + window_ms_;
    if (closed_) {
      measured_issued_.assign(static_cast<std::size_t>(clients_n_), 0);
      for (int c = 0; c < clients_n_; ++c) submit(c, 0.0, load_start_ms_);
    } else {
      // Poisson arrivals conditioned on their count: rate*span arrival
      // times drawn uniformly over the span, then sorted.  Clients take
      // arrivals round-robin, so each independent user is mostly idle.
      std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ULL + 1);
      std::uniform_real_distribution<double> u(0.0, span);
      const auto count = static_cast<std::size_t>(rate_ * span / 1000.0);
      arrivals_.resize(count);
      for (double& a : arrivals_) a = u(rng);
      std::sort(arrivals_.begin(), arrivals_.end());
      schedule_arrival();
    }
    loop_.call_later(kWarmupMs, [this] {
      reg_start_ = read_registry();
      std::printf("START %.3f\n", mono_ms());
      std::fflush(stdout);
    });
    loop_.call_later(closed_ ? kWarmupMs : span, [this] {
      window_over_ = true;
      maybe_end();
    });
  }

  void schedule_arrival() {
    if (next_arrival_ >= arrivals_.size()) return;
    const double due = arrivals_[next_arrival_];
    loop_.call_later(due - (loop_.now_ms() - load_start_ms_), [this, due] {
      const int c = static_cast<int>(next_arrival_ % clients_n_);
      ++next_arrival_;
      submit(c, due, loop_.now_ms());
      schedule_arrival();
    });
  }

  void maybe_end() {
    if (!window_over_ || ended_) return;
    if (!closed_ && next_arrival_ < arrivals_.size()) return;
    if (outstanding_ > 0) return;
    ended_ = true;
    end_ms_ = loop_.now_ms() - load_start_ms_;
    reg_end_ = read_registry();
    std::printf("END %.3f\n", mono_ms());
    std::fflush(stdout);
    loop_.stop();
  }

  void on_first_replica_send(int c, const Bytes& dgram) {
    const auto req = client::decode_request(
        dgram, table_.key(static_cast<std::uint32_t>(c)));
    if (!req) return;
    const auto& mine = by_client_[static_cast<std::size_t>(c)];
    if (req->seq == 0 || req->seq > mine.size()) return;
    Request& r = requests_[mine[req->seq - 1]];
    if (r.first_send_ms < 0) r.first_send_ms = loop_.now_ms() - load_start_ms_;
  }

  void on_readable() {
    for (int i = 0; i < 1024; ++i) {
      auto received = socket_.receive();
      if (!received) return;
      const auto id = client::peek_client_id(received->first);
      if (!id || *id >= clients_.size()) continue;
      if (traced_) note_reply(*id, received->first);
      clients_[*id]->on_datagram(received->first);
    }
  }

  void note_reply(std::uint32_t c, const Bytes& dgram) {
    const auto rep = client::decode_reply(dgram, table_.key(c));
    if (!rep || rep->status != client::Status::kOk) return;
    const auto& mine = by_client_[c];
    if (rep->seq == 0 || rep->seq > mine.size() ||
        rep->replica >= targets_.size()) {
      return;
    }
    double& slot = requests_[mine[rep->seq - 1]].reply_ms[rep->replica];
    if (slot < 0) slot = loop_.now_ms() - load_start_ms_;
  }

  /// Per-request spans sharing the request id: due -> first send ->
  /// each replica's reply -> t+1 quorum.
  void write_spans() const {
    ChromeTrace tr;
    tr.process_name(1, "load generator");
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const Request& r = requests_[i];
      if (r.done_ms < 0 || r.client == static_cast<std::uint32_t>(clients_n_)) {
        continue;
      }
      const std::string args = "{\"req\":" + std::to_string(i) +
                               ",\"client\":" + std::to_string(r.client) +
                               ",\"seq\":" + std::to_string(r.seq) +
                               ",\"global_seq\":" +
                               std::to_string(r.global_seq) + "}";
      const double send = r.first_send_ms >= 0 ? r.first_send_ms : r.submit_ms;
      tr.complete("request", r.due_ms * 1e3, (r.done_ms - r.due_ms) * 1e3, 1,
                  r.client, args);
      tr.complete("queued", r.due_ms * 1e3, (send - r.due_ms) * 1e3, 1,
                  r.client, args);
      tr.complete("quorum_wait", send * 1e3, (r.done_ms - send) * 1e3, 1,
                  r.client, args);
      for (std::size_t k = 0; k < r.reply_ms.size(); ++k) {
        if (r.reply_ms[k] < 0) continue;
        tr.instant("reply.r" + std::to_string(k), r.reply_ms[k] * 1e3, 1,
                   r.client, args);
      }
    }
    tr.write(spans_path_);
  }

  net::EventLoop& loop_;
  net::UdpSocket socket_;
  client::KeyTable table_;
  std::vector<net::SocketAddress> targets_;
  std::vector<std::unique_ptr<client::ReplicatedServiceClient>> clients_;
  std::vector<std::vector<std::size_t>> by_client_;  // request indices
  std::vector<Request> requests_;
  std::vector<double> arrivals_;
  std::size_t next_arrival_ = 0;
  bool closed_ = false;
  int clients_n_ = 0;
  int per_client_ = 0;                // closed loop: measured requests each
  std::vector<int> measured_issued_;  // closed loop: per client
  double rate_ = 100;
  double window_ms_ = 0;
  std::uint64_t seed_ = 1;
  bool warmup_only_ = false;
  bool traced_ = false;
  std::string spans_path_;
  std::string result_path_;
  double load_start_ms_ = 0;
  double end_ms_ = 0;
  std::uint64_t outstanding_ = 0;
  bool warm_done_ = false;
  bool window_over_ = false;
  bool ended_ = false;
  bool aborted_ = false;
  RegistryCounts reg_start_, reg_end_;
};

int run_gen(const ArgMap& args) {
  net::EventLoop loop;
  Generator gen(args, loop);
  loop.stop_on_signals({SIGINT, SIGTERM});
  gen.start();
  loop.run();
  return gen.finish_and_report();
}

// -------------------------------------------------------------------- sim

/// sim-n7: the paper's 7-host combined setup, n=7, t=2, paper key sizes,
/// atomic channel with batching and pipelining, party 1 crash-stopped
/// from the start.  Each live party keeps `queue` payloads of its own
/// outstanding (submitting a new one whenever one of its own is
/// delivered back to it), so the channel runs at capacity and every
/// payload has a well-defined submit -> delivery latency in virtual time
/// at each live party.
class SimRun {
 public:
  static constexpr int kN = 7;
  static constexpr int kT = 2;
  static constexpr int kCrashed = 1;
  static constexpr int kQueue = 32;     // own payloads each live party keeps queued
  static constexpr int kPerParty = 48;  // payloads each live party sends per run

  SimRun(const crypto::Deal& deal, std::uint64_t seed)
      : sim_(sim::combined_setup(), deal, seed) {
    core::AtomicChannel::Config cfg;
    cfg.max_batch_count = 16;
    cfg.pipeline_depth = 4;
    sim_.per_message_cpu_ms = 12.0;  // bench/common.hpp's calibration
    sim_.node(kCrashed).crash();
    seqs_.resize(kN);
    sent_.assign(kN, 0);
    for (int i = 0; i < kN; ++i) {
      auto& node = sim_.node(i);
      channels_.push_back(std::make_unique<core::AtomicChannel>(
          node, node.dispatcher(), "perf", cfg));
      channels_.back()->set_deliver_callback(
          [this, i](const Bytes& payload, core::PartyId origin) {
            on_deliver(i, payload, origin);
          });
    }
    for (int p = 0; p < kN; ++p) {
      if (p == kCrashed) continue;
      sim_.at(0.0, p, [this, p] {
        for (int k = 0; k < kQueue; ++k) send_one(p);
      });
    }
  }

  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  /// Runs until every live party delivered every payload.
  bool run() {
    const std::size_t total =
        static_cast<std::size_t>(kN - 1) * static_cast<std::size_t>(kPerParty);
    return sim_.run_until(
        [&] {
          for (int i = 0; i < kN; ++i) {
            if (i != kCrashed && seqs_[static_cast<std::size_t>(i)].size() < total) {
              return false;
            }
          }
          return true;
        },
        1e12);
  }

  /// Output check: all live parties delivered the identical sequence,
  /// holding each submitted payload exactly once.
  [[nodiscard]] bool check() const {
    const auto& ref = seqs_[0];
    std::vector<std::string> sorted = ref;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::string> want(submit_ms_.size());
    std::transform(submit_ms_.begin(), submit_ms_.end(), want.begin(),
                   [](const auto& kv) { return kv.first; });
    if (sorted != want) return false;
    for (int i = 0; i < kN; ++i) {
      if (i != kCrashed && seqs_[static_cast<std::size_t>(i)] != ref) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::size_t p0_deliveries() const { return seqs_[0].size(); }
  [[nodiscard]] const std::vector<double>& latencies() const { return lat_; }
  [[nodiscard]] double last_p0_ms() const { return last_p0_ms_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }

  void add_spans(ChromeTrace& tr) const {
    for (int i = 0; i < kN; ++i) {
      tr.process_name(i, "P" + std::to_string(i));
    }
    for (const auto& [payload, deliveries] : party_times_) {
      const double sent = submit_ms_.at(payload);
      const std::string args = "{\"payload\":\"" + payload + "\"}";
      tr.instant("send", sent * 1e3, origin_of(payload), 0, args);
      for (const auto& [party, at] : deliveries) {
        tr.complete("deliver", sent * 1e3, (at - sent) * 1e3, party,
                    static_cast<std::uint64_t>(origin_of(payload)), args);
      }
    }
  }

 private:
  static int origin_of(const std::string& payload) {
    return std::stoi(payload.substr(1, payload.find('.') - 1));
  }

  void send_one(int p) {
    auto& sent = sent_[static_cast<std::size_t>(p)];
    if (sent >= kPerParty) return;
    const std::string payload =
        "p" + std::to_string(p) + "." + std::to_string(sent++);
    submit_ms_[payload] = sim_.now_ms();
    channels_[static_cast<std::size_t>(p)]->send(to_bytes(payload));
  }

  void on_deliver(int party, const Bytes& payload, core::PartyId origin) {
    const std::string s = to_string(payload);
    seqs_[static_cast<std::size_t>(party)].push_back(s);
    party_times_[s].emplace_back(party, sim_.now_ms());
    // Latency is taken at every live party, whose deliveries spread with
    // their distance from the quorum; P0's alone come in round-sized
    // bursts of equal latencies.
    lat_.push_back(sim_.now_ms() - submit_ms_.at(s));
    if (party == 0) last_p0_ms_ = sim_.now_ms();
    // Closed loop per origin: its own delivery frees a queue slot.
    if (party == origin) send_one(origin);
  }

  sim::Simulator sim_;
  std::vector<std::unique_ptr<core::AtomicChannel>> channels_;
  std::vector<int> sent_;
  std::vector<std::vector<std::string>> seqs_;
  std::map<std::string, double> submit_ms_;
  std::map<std::string, std::vector<std::pair<int, double>>> party_times_;
  std::vector<double> lat_;
  double last_p0_ms_ = 0;
};

/// Paper key sizes; one fixed dealer seed, like the cluster workloads, so
/// set-up time does not depend on how long a seed's prime search takes.
/// Streams the library's event trace to a file while alive.
class TraceFile {
 public:
  explicit TraceFile(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")) {
    if (file_ == nullptr) throw std::runtime_error("cannot open " + path);
    trace_.set_stream(file_);
    trace_.set_retain(false);
    obs::set_trace_sink(&trace_);
  }
  ~TraceFile() {
    obs::set_trace_sink(nullptr);
    std::fclose(file_);
  }
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

 private:
  std::FILE* file_;
  obs::EventTrace trace_;
};

crypto::DealerConfig sim_dealer_config() {
  crypto::DealerConfig cfg;
  cfg.n = SimRun::kN;
  cfg.t = SimRun::kT;
  cfg.rsa_bits = 1024;
  cfg.dl_p_bits = 1024;
  cfg.dl_q_bits = 160;
  cfg.hash = crypto::HashKind::kSha1;
  cfg.sig_impl = crypto::SigImpl::kMultiSig;
  cfg.seed = 1;
  return cfg;
}

int run_sim(const ArgMap& args) {
  const std::uint64_t seed = std::stoull(need(args, "seed"));
  const double seconds = std::stod(need(args, "seconds"));
  // Virtual-time figures come from this many runs, so they repeat
  // exactly per seed however fast the host is.
  constexpr std::uint64_t kVirtualReps = 4;

  // Set-up: dealer + simulator + channels, until the first simulated
  // event has run.  The dealer memoizes keys per process, so run.py
  // times repeated set-ups as separate --setup-only processes.
  const crypto::Deal deal = crypto::run_dealer(sim_dealer_config());
  {
    SimRun probe(deal, seed);
    probe.sim().run(0.0);
  }
  std::printf("READY %.3f\n", mono_ms());
  std::fflush(stdout);
  if (args.contains("setup-only")) return 0;

  // Traced runs stream the library's typed protocol events, as
  // sintra_node --trace-out does for the cluster workloads.
  std::optional<TraceFile> trace;
  if (args.contains("trace-out")) trace.emplace(need(args, "trace-out"));

  const obs::Snapshot before = obs::registry().snapshot();
  const std::uint64_t work0 = bignum::work_counter();
  const double cpu0 = process_cpu_ms();
  bool correct = true;
  std::uint64_t p0 = 0, msgs = 0, bytes = 0, reps = 0;
  double wall_ms = 0, virt_ms_first = 0;
  std::uint64_t p0_first = 0;
  std::vector<double> lat_first;
  std::string rep_walls;
  ChromeTrace spans;
  const double stop = mono_ms() + seconds * 1000.0;
  while (reps < kVirtualReps || mono_ms() < stop) {
    SimRun run(deal, seed * 1000 + reps);
    const double t0 = mono_ms();
    const bool done = run.run();
    const double rep_ms = mono_ms() - t0;
    wall_ms += rep_ms;
    rep_walls += (rep_walls.empty() ? "" : ",") + std::to_string(rep_ms);
    correct = correct && done && run.check();
    p0 += run.p0_deliveries();
    msgs += run.sim().messages_sent();
    bytes += run.sim().bytes_sent();
    if (reps < kVirtualReps) {
      virt_ms_first += run.last_p0_ms();
      p0_first += run.p0_deliveries();
      lat_first.insert(lat_first.end(), run.latencies().begin(),
                       run.latencies().end());
    }
    if (reps == 0 && args.contains("spans")) run.add_spans(spans);
    ++reps;
  }
  const double cpu_ms = process_cpu_ms() - cpu0;
  trace.reset();
  const std::uint64_t work = bignum::work_counter() - work0;
  if (args.contains("snapshot")) {
    write_file(need(args, "snapshot"),
               obs::registry().snapshot().to_json() + "\n");
    write_file(need(args, "snapshot") + ".before", before.to_json() + "\n");
  }
  if (args.contains("spans")) spans.write(need(args, "spans"));

  Json j;
  j.boolean("correct", correct)
      .integer("reps", reps)
      .raw("rep_wall_ms", "[" + rep_walls + "]")
      .integer("p0_deliveries", p0)
      .num("wall_ms", wall_ms)
      .num("cpu_ms", cpu_ms)
      .num("del_per_s", static_cast<double>(p0) / (wall_ms / 1000.0))
      .integer("virt_deliveries", p0_first)
      .num("virt_ms", virt_ms_first)
      .num("virt_del_per_s",
           static_cast<double>(p0_first) / (virt_ms_first / 1000.0))
      .num("virt_p50_ms", percentile(lat_first, 0.50))
      .num("virt_p99_ms", percentile(lat_first, 0.99))
      .integer("messages", msgs)
      .integer("bytes", bytes)
      .integer("work_units", work)
      .num("rss_mb", peak_rss_mb());
  if (args.contains("micro")) {
    j.raw("micro", micro_json(deal.parties[0]));
  }
  write_file(need(args, "result"), j.str() + "\n");
  return correct ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("missing mode");
    const std::string mode = argv[1];
    const ArgMap args = parse_flags(argc, argv, 2);
    if (mode == "gen") return run_gen(args);
    if (mode == "sim") return run_sim(args);
    if (mode == "micro") return run_micro(args);
    throw std::runtime_error("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: sintra_perf gen|sim|micro --flag value "
                 "... (see perfbench/README.md)\n",
                 e.what());
    return 2;
  }
}
