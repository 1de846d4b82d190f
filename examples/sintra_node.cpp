// One SINTRA party as a standalone OS process over real UDP sockets —
// the deployment shape of the paper's prototype (§3: n servers,
// hostname:port endpoints from the configuration file, per-server
// "initialization data" from the trusted dealer).
//
//   $ ./sintra_node group.conf keys/party-2.keys --channel atomic
//         --send 5 --close --out /tmp/out.2 --stats
//
// The node loads its key file, binds its configured endpoint, runs the
// chosen channel (atomic / secure-atomic / optimistic), contributes
// `--send` payloads, and writes one "DELIVER <payload>" line per
// delivered message in delivery order — so total order across nodes can
// be checked by comparing output files (scripts/run_local_cluster.sh).
//
// Termination: with --close the node closes the channel after its last
// send and completes when the close protocol terminates; with --expect N
// it completes after N deliveries (the optimistic channel has no close
// protocol).  On completion it writes <out>.done (when --out is given),
// lingers so its links and protocol instances keep serving slower peers,
// then exits 0.  --linger -1 means serve until signaled — used by the
// cluster runner, which SIGTERMs the group only once every node's .done
// marker exists, so no peer ever disappears while another still needs
// its responses.  SIGINT/SIGTERM shut down cleanly: flush output, print
// stats, exit 0 if completed and 3 otherwise.
//
// Observability (docs/OBSERVABILITY.md): --metrics-out FILE writes a JSON
// metrics snapshot on exit and on SIGUSR1 (overwritten each time);
// --trace-out FILE streams typed protocol events as JSON lines.
// scripts/aggregate_metrics.py merges the per-node snapshot files.
//
// Crash recovery (DESIGN.md §10): --state-dir DIR makes every delivery
// durable (fsync'd replica log) and exchanges threshold-signed
// checkpoints every --checkpoint-interval deliveries.  A node restarted
// with the same --state-dir detects the restart via its boot counter,
// replays its log, catches up from its peers, and completes when it
// reaches the close-time `final` checkpoint certificate — it does not
// rejoin the in-progress rounds; the recovery layer delivers the stream:
//
//   $ kill -9 <pid of node 3>
//   $ ./sintra_node group.conf keys/party-3.keys --channel atomic
//         --state-dir /tmp/state.3 --out /tmp/out.3 --linger -1
//
// and /tmp/out.3 converges to the same delivery sequence as its peers
// (scripts/run_local_cluster.sh --scenario recover automates this).
// --crash-after K makes the node SIGKILL itself right after its K-th
// record is fsync'd, so a test can crash it mid-run at a fixed point
// however fast the run goes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include <csignal>

#include "client/gateway.hpp"
#include "client/keys.hpp"
#include "client/udp_front.hpp"
#include "core/channel/atomic_channel.hpp"
#include "core/channel/optimistic_channel.hpp"
#include "core/channel/secure_atomic_channel.hpp"
#include "bignum/montgomery.hpp"
#include "core/config.hpp"
#include "crypto/cost.hpp"
#include "crypto/keyfile.hpp"
#include "net/net_environment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/recovery_manager.hpp"
#include "recovery/state_store.hpp"
#include "util/atomic_file.hpp"

using namespace sintra;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Args {
  std::string config_path;
  std::string keyfile_path;
  std::string channel = "atomic";
  int send_count = 4;
  std::uint64_t expect = 0;  // 0 = not used
  bool close_after_send = false;
  double linger_ms = 1500.0;
  std::string out_path;  // empty = stdout
  bool print_stats = false;
  std::string metrics_out;  // JSON snapshot on exit / SIGUSR1
  std::string trace_out;    // JSON-lines event stream
  std::string via_host;  // chaos proxy: host part of --via
  int via_base_port = 0;
  int crypto_threads = -1;      // -1 = hardware_concurrency; 0 = inline
  bool use_mmsg = true;         // --no-mmsg: one syscall per datagram
  bool corrupt_shares = false;  // Byzantine chaos: emit garbage sig shares
  std::string state_dir;        // durable log + checkpoints (recovery)
  std::uint64_t checkpoint_interval = 8;
  std::uint64_t crash_after = 0;  // SIGKILL self after this many records
  // Throughput mode (DESIGN.md §11): 0 = keep the channel defaults.
  int batch_count = 0;        // payloads per signed bundle
  std::size_t batch_bytes = 0;  // byte cap per bundle
  int pipeline_depth = 0;     // concurrent rounds in flight
  int bench_payload_bytes = 0;  // --bench-load: pad payloads to this size
  // Client service layer (DESIGN.md §12): 0 = no client lane.
  int client_port = 0;          // UDP port for signed client requests
  std::string client_keys;      // client key table (client/keys.hpp format)
  std::size_t max_clients = 0;  // distinct clients tracked; 0 = unlimited
  double client_rate = 100.0;   // per-client admission rate (req/s)
  double client_global_rate = 0.0;  // global shed threshold; 0 = off
  std::size_t client_pending = 1024;  // proposed-not-yet-executed window
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 3) throw std::runtime_error("missing config/keyfile arguments");
  a.config_path = argv[1];
  a.keyfile_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--channel") {
      a.channel = value();
    } else if (arg == "--send") {
      a.send_count = std::stoi(value());
    } else if (arg == "--expect") {
      a.expect = std::stoull(value());
    } else if (arg == "--close") {
      a.close_after_send = true;
    } else if (arg == "--linger") {
      a.linger_ms = std::stod(value());
    } else if (arg == "--out") {
      a.out_path = value();
    } else if (arg == "--stats") {
      a.print_stats = true;
    } else if (arg == "--metrics-out") {
      a.metrics_out = value();
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--crypto-threads") {
      a.crypto_threads = std::stoi(value());
      if (a.crypto_threads < 0) {
        throw std::runtime_error("--crypto-threads wants >= 0");
      }
    } else if (arg == "--no-mmsg") {
      a.use_mmsg = false;
    } else if (arg == "--corrupt-shares") {
      a.corrupt_shares = true;
    } else if (arg == "--state-dir") {
      a.state_dir = value();
    } else if (arg == "--checkpoint-interval") {
      a.checkpoint_interval = std::stoull(value());
      if (a.checkpoint_interval == 0) {
        throw std::runtime_error("--checkpoint-interval wants >= 1");
      }
    } else if (arg == "--crash-after") {
      a.crash_after = std::stoull(value());
      if (a.crash_after == 0) {
        throw std::runtime_error("--crash-after wants >= 1");
      }
    } else if (arg == "--batch-count") {
      a.batch_count = std::stoi(value());
      if (a.batch_count < 1) throw std::runtime_error("--batch-count wants >= 1");
    } else if (arg == "--batch-bytes") {
      a.batch_bytes = std::stoull(value());
    } else if (arg == "--pipeline-depth") {
      a.pipeline_depth = std::stoi(value());
      if (a.pipeline_depth < 1) {
        throw std::runtime_error("--pipeline-depth wants >= 1");
      }
    } else if (arg == "--bench-load") {
      // <msgs>x<bytes>: sustained load without a client layer, e.g.
      // --bench-load 2000x256 sends 2000 padded 256-byte payloads.
      const std::string v = value();
      const auto x = v.find('x');
      if (x == std::string::npos) {
        throw std::runtime_error("--bench-load wants <msgs>x<bytes>");
      }
      a.send_count = std::stoi(v.substr(0, x));
      a.bench_payload_bytes = std::stoi(v.substr(x + 1));
      if (a.send_count < 0 || a.bench_payload_bytes < 0) {
        throw std::runtime_error("--bench-load wants non-negative values");
      }
    } else if (arg == "--client-port") {
      a.client_port = std::stoi(value());
      if (a.client_port <= 0) throw std::runtime_error("--client-port wants > 0");
    } else if (arg == "--client-keys") {
      a.client_keys = value();
    } else if (arg == "--max-clients") {
      a.max_clients = std::stoull(value());
    } else if (arg == "--client-rate") {
      a.client_rate = std::stod(value());
      if (a.client_rate <= 0.0) throw std::runtime_error("--client-rate wants > 0");
    } else if (arg == "--client-global-rate") {
      a.client_global_rate = std::stod(value());
    } else if (arg == "--client-pending") {
      a.client_pending = std::stoull(value());
      if (a.client_pending == 0) {
        throw std::runtime_error("--client-pending wants >= 1");
      }
    } else if (arg == "--via") {
      const std::string v = value();
      const auto colon = v.rfind(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("--via wants host:base_port");
      }
      a.via_host = v.substr(0, colon);
      a.via_base_port = std::stoi(v.substr(colon + 1));
    } else {
      throw std::runtime_error("unknown option " + arg);
    }
  }
  if (a.crash_after != 0 && a.state_dir.empty()) {
    throw std::runtime_error("--crash-after needs --state-dir");
  }
  return a;
}

/// Byzantine chaos helper (--corrupt-shares): a threshold-signature
/// handle whose *own* shares are garbage while every verify/combine stays
/// honest.  Receivers' optimistic combine-first paths must fall back,
/// blacklist this node, and finish with the honest quorum — observable as
/// crypto.fallbacks > 0 in their metrics snapshots.
class CorruptingSigScheme final : public crypto::ThresholdSigScheme {
 public:
  explicit CorruptingSigScheme(
      std::shared_ptr<crypto::ThresholdSigScheme> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] int n() const override { return inner_->n(); }
  [[nodiscard]] int k() const override { return inner_->k(); }
  [[nodiscard]] int index() const override { return inner_->index(); }

  [[nodiscard]] Bytes sign_share(BytesView msg) override {
    Bytes share = inner_->sign_share(msg);
    if (!share.empty()) share[share.size() / 2] ^= 0x5a;
    return share;
  }
  [[nodiscard]] bool verify_share(BytesView msg, int signer,
                                  BytesView share) const override {
    return inner_->verify_share(msg, signer, share);
  }
  [[nodiscard]] Bytes combine(
      BytesView msg,
      const std::vector<std::pair<int, Bytes>>& shares) const override {
    return inner_->combine(msg, shares);
  }
  [[nodiscard]] bool verify(BytesView msg, BytesView sig) const override {
    return inner_->verify(msg, sig);
  }

 private:
  std::shared_ptr<crypto::ThresholdSigScheme> inner_;
};

/// The running node: one environment, one channel, one workload.
class NodeApp {
 public:
  NodeApp(const Args& args, net::EventLoop& loop)
      : args_(args), loop_(loop) {
    const core::GroupConfig cfg =
        core::GroupConfig::parse(read_file(args.config_path));
    const std::string blob = read_file(args.keyfile_path);
    const crypto::RawPartyKeys raw = crypto::read_party_keys(
        BytesView(reinterpret_cast<const std::uint8_t*>(blob.data()),
                  blob.size()));
    crypto::PartyKeys keys = crypto::materialize(raw);
    if (args.corrupt_shares) {
      keys.sig_broadcast =
          std::make_shared<CorruptingSigScheme>(std::move(keys.sig_broadcast));
      keys.sig_agreement =
          std::make_shared<CorruptingSigScheme>(std::move(keys.sig_agreement));
    }

    net::NetOptions opts;
    opts.crypto_threads =
        args.crypto_threads >= 0
            ? args.crypto_threads
            : static_cast<int>(std::thread::hardware_concurrency());
    opts.use_mmsg = args.use_mmsg;
    if (!args.via_host.empty()) {
      for (int j = 0; j < keys.n; ++j) {
        opts.send_to.push_back({args.via_host, args.via_base_port + j});
      }
    }
    env_ = std::make_unique<net::NetEnvironment>(loop_, cfg.parties,
                                                 std::move(keys), opts);

    if (!args.out_path.empty()) {
      out_ = std::fopen(args.out_path.c_str(), "w");
      if (out_ == nullptr) {
        throw std::runtime_error("cannot open " + args.out_path);
      }
    } else {
      out_ = stdout;
    }

    if (!args.trace_out.empty()) {
      trace_file_ = std::fopen(args.trace_out.c_str(), "w");
      if (trace_file_ == nullptr) {
        throw std::runtime_error("cannot open " + args.trace_out);
      }
      trace_ = std::make_unique<obs::EventTrace>();
      trace_->set_stream(trace_file_);
      trace_->set_retain(false);  // stream only: bounded memory
      obs::set_trace_sink(trace_.get());
    }

    if (!args.state_dir.empty()) {
      store_ = std::make_unique<recovery::StateStore>(args.state_dir);
      // The boot counter is bumped before anything else: boot > 1 means
      // this directory already hosted a run, so this process is a
      // restart and must recover instead of joining the rounds.
      recovering_ = store_->bump_boot() > 1;
      recovery::RecoveryManager::Options ropts;
      ropts.checkpoint_interval = args.checkpoint_interval;
      rec_ = std::make_unique<recovery::RecoveryManager>(
          *env_, env_->dispatcher(), "cluster." + args.channel, store_.get(),
          ropts);
    }

    if (recovering_) {
      start_recovery();
    } else {
      start_channel();
    }
  }

  ~NodeApp() {
    if (trace_) obs::set_trace_sink(nullptr);
    if (trace_file_ != nullptr) std::fclose(trace_file_);
    if (out_ != nullptr && out_ != stdout) std::fclose(out_);
  }

  /// Writes a JSON metrics snapshot to --metrics-out (no-op without the
  /// flag).  Called on exit and on SIGUSR1; each call overwrites the file
  /// with the freshest totals.
  void write_metrics() {
    if (args_.metrics_out.empty()) return;
    env_->publish_link_metrics();  // sample the link layer's plain structs
    auto& reg = obs::registry();
    const obs::Labels labels = obs::party_labels(env_->self());
    reg.gauge("node.delivered", labels)
        .set(static_cast<double>(delivered_));
    reg.gauge("crypto.work_units", labels)
        .set(static_cast<double>(bignum::work_counter()));
    reg.gauge("crypto.work_per_exp1024", labels)
        .set(static_cast<double>(crypto::work_per_exp1024()));
    // Atomic replacement: a reader (aggregate_metrics.py, the cluster
    // runner) racing a SIGUSR1 snapshot never sees a torn file.
    std::string json = reg.snapshot().to_json();
    json.push_back('\n');
    std::string error;
    if (!util::atomic_write_file(args_.metrics_out, json, &error)) {
      std::fprintf(stderr, "# node %d: metrics snapshot failed: %s\n",
                   env_->self(), error.c_str());
    }
  }

  void flush_trace() {
    if (trace_file_ != nullptr) std::fflush(trace_file_);
  }

  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] int party() const { return env_->self(); }

  void flush() { std::fflush(out_); }

  void print_stats(const char* reason) {
    std::fprintf(stderr, "# node %d: %s, delivered=%llu\n", env_->self(),
                 reason, static_cast<unsigned long long>(delivered_));
    const auto& es = env_->stats();
    std::fprintf(stderr,
                 "STATS env received=%llu drop_no_sender=%llu "
                 "drop_bad_sender=%llu drop_oversized=%llu\n",
                 static_cast<unsigned long long>(es.datagrams_received),
                 static_cast<unsigned long long>(es.drop_no_sender),
                 static_cast<unsigned long long>(es.drop_bad_sender),
                 static_cast<unsigned long long>(es.drop_oversized));
    for (int j = 0; j < env_->n(); ++j) {
      if (j == env_->self()) continue;
      const auto& ls = env_->link_stats(j);
      std::fprintf(stderr,
                   "STATS link peer=%d retrans=%llu backoffs=%llu "
                   "rtt_samples=%llu srtt_ms=%.3f rto_ms=%.3f "
                   "drop_auth=%llu drop_malformed=%llu drop_overflow=%llu "
                   "drop_duplicate=%llu\n",
                   j, static_cast<unsigned long long>(ls.retransmissions),
                   static_cast<unsigned long long>(ls.backoffs),
                   static_cast<unsigned long long>(ls.rtt_samples),
                   ls.srtt_ms, ls.rto_ms,
                   static_cast<unsigned long long>(ls.drop_auth),
                   static_cast<unsigned long long>(ls.drop_malformed),
                   static_cast<unsigned long long>(ls.drop_overflow),
                   static_cast<unsigned long long>(ls.drop_duplicate));
    }
  }

 private:
  /// Throughput-mode channel configuration from the CLI flags (0 keeps
  /// the seed defaults: one payload per bundle, one round in flight).
  [[nodiscard]] core::AtomicChannel::Config channel_config() const {
    core::AtomicChannel::Config cfg;
    if (args_.batch_count > 0) cfg.max_batch_count = args_.batch_count;
    if (args_.batch_bytes > 0) cfg.max_batch_bytes = args_.batch_bytes;
    if (args_.pipeline_depth > 0) cfg.pipeline_depth = args_.pipeline_depth;
    return cfg;
  }

  /// Builds the client gateway (DESIGN.md §12).  Created for every
  /// gateway-backed channel even without --client-port: replica --send
  /// payloads route through the same submit_local / wrap / delivery-time
  /// dedup machinery as client requests, so there is exactly one
  /// at-most-once policy in the node.
  void setup_gateway() {
    client::ClientGateway::Options gopts;
    gopts.replica = static_cast<std::uint32_t>(env_->self());
    gopts.n = env_->n();
    gopts.t = env_->t();
    gopts.rate_per_sec = args_.client_rate;
    gopts.burst = std::max(2.0, args_.client_rate / 5.0);
    gopts.global_rate_per_sec = args_.client_global_rate;
    gopts.global_burst = std::max(2.0, args_.client_global_rate / 4.0);
    gopts.max_clients = args_.max_clients;
    gopts.max_pending = args_.client_pending;
    gateway_ = std::make_unique<client::ClientGateway>(
        gopts, [this] { return loop_.now_ms(); });
    if (!args_.client_keys.empty()) {
      gateway_->set_key_table(client::read_key_file(args_.client_keys));
    }
    gateway_->set_submit([this](Bytes wrapped) {
      if (atomic_ != nullptr && atomic_->can_send()) {
        atomic_->send(wrapped);
        return true;
      }
      if (secure_ != nullptr && secure_->can_send()) {
        secure_->send(wrapped);
        return true;
      }
      return false;
    });
    if (args_.client_port > 0) {
      if (args_.client_keys.empty()) {
        throw std::runtime_error("--client-port needs --client-keys");
      }
      front_ = std::make_unique<client::UdpClientFront>(
          loop_, net::SocketAddress::resolve("0.0.0.0", args_.client_port),
          *gateway_);
      std::fprintf(stderr, "# node %d: client lane on %s\n", env_->self(),
                   front_->local_address().to_string().c_str());
    }
  }

  /// Every channel delivery funnels here: durable-log it raw, then let
  /// the gateway unwrap, dedup, reply, and decide whether it executes.
  void execute(const Bytes& payload, core::PartyId origin) {
    record(payload, origin);
    if (auto ex = gateway_->on_delivered(payload)) deliver(ex->payload);
    maybe_close();
  }

  /// --close waits for queued local submissions to reach the proposer;
  /// closing under a full pipeline window would strand them.
  void maybe_close() {
    if (!close_wanted_ || close_issued_ || !gateway_->local_queue_empty()) {
      return;
    }
    close_issued_ = true;
    if (atomic_ != nullptr) atomic_->close();
    if (secure_ != nullptr) secure_->close();
  }

  void start_channel() {
    auto& disp = env_->dispatcher();
    const std::string pid = "cluster." + args_.channel;
    // A node is a long-running process: cap the in-memory delivery log
    // (the durable record, when wanted, lives in the recovery log).
    constexpr std::size_t kDeliveryLogCap = 4096;
    if (args_.channel == "atomic") {
      atomic_ = std::make_unique<core::AtomicChannel>(*env_, disp, pid,
                                                      channel_config());
      atomic_->set_delivery_log_limit(kDeliveryLogCap);
      atomic_->set_deliver_callback(
          [this](const Bytes& payload, core::PartyId origin) {
            execute(payload, origin);
            // The node consumes deliveries via this callback; drain the
            // pull-style inbox so it cannot grow without bound.
            while (atomic_->receive()) {
            }
          });
      atomic_->set_closed_callback([this] { on_closed(); });
    } else if (args_.channel == "secure-atomic") {
      secure_ = std::make_unique<core::SecureAtomicChannel>(
          *env_, disp, pid, channel_config());
      secure_->set_delivery_log_limit(kDeliveryLogCap);
      secure_->set_deliver_callback([this](const Bytes& payload) {
        execute(payload, -1);
        while (secure_->receive()) {
        }
      });
      secure_->set_closed_callback([this] { on_closed(); });
    } else if (args_.channel == "optimistic") {
      if (args_.expect == 0) {
        throw std::runtime_error(
            "--channel optimistic needs --expect (it has no close protocol)");
      }
      if (args_.client_port > 0) {
        throw std::runtime_error(
            "--client-port needs a gateway-backed channel "
            "(atomic or secure-atomic)");
      }
      optimistic_ =
          std::make_unique<core::OptimisticChannel>(*env_, disp, pid);
      optimistic_->set_deliver_callback(
          [this](const Bytes& payload, core::PartyId origin) {
            record(payload, origin);
            deliver(payload);
          });
      for (int k = 0; k < args_.send_count; ++k) {
        optimistic_->send(payload_of(k));
      }
      return;
    } else {
      throw std::runtime_error("unknown channel type " + args_.channel);
    }
    setup_gateway();
    for (int k = 0; k < args_.send_count; ++k) {
      gateway_->submit_local(payload_of(k));
    }
    close_wanted_ = args_.close_after_send;
    maybe_close();
  }

  /// Restart path: no channel — replay the durable log, then fetch the
  /// remainder (plus the authenticating certificates) from the peers.
  /// Completion is reaching the close-time `final` certificate, not
  /// --expect: a restarted node cannot know the final count in advance.
  void start_recovery() {
    // The gateway runs in recovery too — replayed records are wrapped,
    // and the dedup/unwrap decisions must match what this node printed
    // before it crashed and what its live peers print now.  No client
    // lane and no submit hook: a recovering node cannot propose.
    setup_gateway();
    rec_->set_apply_callback(
        [this](const recovery::RecoveryManager::Record& r) {
          if (auto ex = gateway_->on_delivered(r.payload)) {
            deliver(ex->payload);
          }
        });
    rec_->set_caught_up_callback([this] {
      std::fprintf(stderr,
                   "# node %d: caught up at seq %llu (final certificate)\n",
                   env_->self(),
                   static_cast<unsigned long long>(rec_->delivered_seq()));
      finish();
    });
    const std::size_t replayed = rec_->replay_local();
    std::fprintf(stderr, "# node %d: recovery: replayed %zu from log\n",
                 env_->self(), replayed);
    rec_->start_catchup();
  }

  [[nodiscard]] Bytes payload_of(int k) const {
    std::string s =
        "p" + std::to_string(env_->self()) + ":" + std::to_string(k);
    // --bench-load pads every payload to a fixed size; the unique header
    // stays, so total-order comparison across nodes still works.
    if (static_cast<int>(s.size()) < args_.bench_payload_bytes) {
      s.resize(static_cast<std::size_t>(args_.bench_payload_bytes), '.');
    }
    return to_bytes(s);
  }

  /// Normal path only: feeds a live channel delivery to the recovery
  /// layer (durable log + digest chain) before it is printed.
  void record(const Bytes& payload, core::PartyId origin) {
    if (!rec_) return;
    rec_->on_delivered(payload, origin);
    if (args_.crash_after != 0 && rec_->delivered_seq() == args_.crash_after) {
      std::raise(SIGKILL);  // exactly what a kill -9 here would leave
    }
  }

  void deliver(const Bytes& payload) {
    ++delivered_;
    std::fprintf(out_, "DELIVER %s\n", to_string(payload).c_str());
    if (!recovering_ && args_.expect != 0 && delivered_ >= args_.expect) {
      finish();
    }
  }

  void on_closed() {
    // The close-time checkpoint covers the whole sequence; its `final`
    // certificate is what tells restarted/lagging replicas they have
    // everything.
    if (rec_) rec_->force_checkpoint(/*final=*/true);
    finish();
  }

  void finish() {
    if (completed_) return;
    completed_ = true;
    flush();
    if (!args_.out_path.empty()) {
      // Completion marker for external orchestration (the cluster runner
      // waits for every node's marker before signaling).  Atomic: the
      // runner never observes a half-created marker.
      util::atomic_write_file(args_.out_path + ".done", std::string_view{});
    }
    if (args_.linger_ms < 0.0) return;  // serve until signaled
    finish_ms_ = loop_.now_ms();
    wait_for_quiescence();
  }

  // Linger before exiting: our links keep retransmitting unacked frames
  // and our (closed but live) channel keeps answering protocol messages,
  // so slower peers can finish their own close/delivery.  Leave only once
  // every peer has acked everything we sent (backlog drained), with a
  // hard cap so a crashed peer cannot hold us hostage.
  void wait_for_quiescence() {
    const double elapsed = loop_.now_ms() - finish_ms_;
    const bool drained = env_->send_backlog() == 0;
    if ((elapsed >= args_.linger_ms && drained) ||
        elapsed >= 10.0 * args_.linger_ms) {
      loop_.stop();
      return;
    }
    loop_.call_later(100.0, [this] { wait_for_quiescence(); });
  }

  Args args_;
  net::EventLoop& loop_;
  std::unique_ptr<net::NetEnvironment> env_;
  std::unique_ptr<recovery::StateStore> store_;
  std::unique_ptr<recovery::RecoveryManager> rec_;
  bool recovering_ = false;
  std::unique_ptr<core::AtomicChannel> atomic_;
  std::unique_ptr<core::SecureAtomicChannel> secure_;
  std::unique_ptr<core::OptimisticChannel> optimistic_;
  std::unique_ptr<client::ClientGateway> gateway_;
  std::unique_ptr<client::UdpClientFront> front_;
  bool close_wanted_ = false;
  bool close_issued_ = false;
  std::FILE* out_ = nullptr;
  std::FILE* trace_file_ = nullptr;
  std::unique_ptr<obs::EventTrace> trace_;
  std::uint64_t delivered_ = 0;
  bool completed_ = false;
  double finish_ms_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    net::EventLoop loop;
    NodeApp app(args, loop);
    loop.stop_on_signals({SIGINT, SIGTERM}, [&](int signo) {
      std::fprintf(stderr, "# node %d: signal %d, shutting down\n",
                   app.party(), signo);
    });
    if (!args.metrics_out.empty()) {
      // Live snapshot without stopping: kill -USR1 <pid>.
      loop.on_signal(SIGUSR1, [&] { app.write_metrics(); });
    }
    loop.run();
    app.flush();
    app.flush_trace();
    app.write_metrics();
    if (args.print_stats) {
      app.print_stats(app.completed() ? "completed" : "interrupted");
    }
    return app.completed() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: sintra_node <group.conf> <party.keys> "
                 "[--channel atomic|secure-atomic|optimistic] [--send N] "
                 "[--close] [--expect N] [--linger MS] [--out FILE] "
                 "[--stats] [--metrics-out FILE] [--trace-out FILE] "
                 "[--via host:base_port] [--crypto-threads N] "
                 "[--no-mmsg] [--corrupt-shares] [--state-dir DIR] "
                 "[--checkpoint-interval K] [--crash-after K] "
                 "[--batch-count N] "
                 "[--batch-bytes N] [--pipeline-depth W] "
                 "[--bench-load MxB] [--client-port P] "
                 "[--client-keys FILE] [--max-clients N] "
                 "[--client-rate R] [--client-global-rate R] "
                 "[--client-pending N]\n",
                 e.what());
    return 2;
  }
}
