// Group-size scaling benchmark (BENCH_scale.json; DESIGN.md §14).
//
// Two modes, both printing one JSON object on stdout:
//
//   --sweep --n N      Runs the paper's §4 workload on the discrete-event
//                      simulator at group size N (t = ⌊(N-1)/3⌋) and
//                      reports deliveries/sec in virtual AND wall-clock
//                      time, crypto work units per delivery, and the
//                      datagrams-per-delivery figure that bounds what an
//                      unbatched transport pays in syscalls (2 kernel
//                      round-trips per datagram: one sendto, one
//                      recvfrom).  The measured mmsg syscall figure comes
//                      from the real-cluster datapoint in
//                      scripts/bench_scale.sh, via the net.tx_syscalls /
//                      net.rx_syscalls gauges.
//
//   --fallback-gate    The CI gate for this PR's crypto-layer tentpole:
//                      at n=16 (k = n - t = 11, Shoup threshold RSA), one
//                      Byzantine share forces the per-share verification
//                      fallback, and the SAME workload is timed twice in
//                      one process — serial (pool = nullptr, the pre-PR
//                      path) and parallel (WorkPool::run_parallel across
//                      hardware threads).  The blacklist and returned
//                      signature are identical either way (see
//                      threshold_sig.hpp), so the ratio isolates
//                      wall-clock; scripts/bench_scale.sh enforces
//                      speedup >= 2 when enough cores exist.
//
// Virtual deliveries/sec is deterministic per seed and deliberately does
// NOT move with this PR: the optimizations cut wall-clock and syscalls,
// not the simulated work model — which is exactly why the sweep reports
// both clocks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "crypto/cost.hpp"
#include "crypto/threshold_sig.hpp"
#include "crypto/work_pool.hpp"
#include "sim/topologies.hpp"

using namespace sintra;

namespace {

struct Options {
  bool sweep = false;
  bool fallback_gate = false;
  int n = 16;
  int messages = 40;
  int senders = 3;
  int reps = 3;
  std::uint64_t seed = 1;
  int rsa_bits = 512;
  double deadline_ms = 1e9;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--sweep") o.sweep = true;
    else if (arg == "--fallback-gate") o.fallback_gate = true;
    else if (arg == "--n") o.n = std::stoi(value());
    else if (arg == "--messages") o.messages = std::stoi(value());
    else if (arg == "--senders") o.senders = std::stoi(value());
    else if (arg == "--reps") o.reps = std::stoi(value());
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--rsa-bits") o.rsa_bits = std::stoi(value());
    else if (arg == "--deadline-ms") o.deadline_ms = std::stod(value());
    else throw std::runtime_error("unknown option " + arg);
  }
  if (o.sweep == o.fallback_gate) {
    throw std::runtime_error("pass exactly one of --sweep / --fallback-gate");
  }
  if (o.reps < 1) throw std::runtime_error("--reps must be at least 1");
  return o;
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int run_sweep(const Options& o) {
  const int t = (o.n - 1) / 3;
  const sim::Topology topology = sim::uniform_setup(o.n);

  crypto::DealerConfig dealer_cfg =
      bench::paper_dealer_config(o.n, t, o.rsa_bits);
  if (o.rsa_bits < 1024) {
    // Fast mode for CI: smaller discrete-log group to match.
    dealer_cfg.dl_p_bits = 256;
    dealer_cfg.dl_q_bits = 96;
  }
  const crypto::Deal deal = crypto::run_dealer(dealer_cfg);

  bench::WorkloadOptions wl;
  wl.kind = bench::ChannelKind::kAtomic;
  wl.senders.clear();
  for (int s = 0; s < std::min(o.senders, o.n); ++s) wl.senders.push_back(s);
  wl.total_messages = o.messages;
  wl.seed = o.seed;
  wl.deadline_virtual_ms = o.deadline_ms;

  // run_workload owns its Simulator, but the sweep needs the simulator's
  // message counters — inline the same shape with the counters exposed.
  sim::Simulator sim(topology, deal, o.seed);
  sim.per_message_cpu_ms = wl.per_message_cpu_ms;

  std::vector<std::unique_ptr<core::AtomicChannel>> channels;
  std::size_t delivered_at_measure = 0;
  std::vector<double> delivery_times;
  for (int i = 0; i < o.n; ++i) {
    auto& env = sim.node(i);
    auto ch = std::make_unique<core::AtomicChannel>(env, env.dispatcher(),
                                                    "bench");
    if (i == 0) {
      ch->set_deliver_callback([&](const Bytes&, core::PartyId) {
        ++delivered_at_measure;
        delivery_times.push_back(sim.now_ms());
      });
    }
    channels.push_back(std::move(ch));
  }
  for (int m = 0; m < o.messages; ++m) {
    const int sender =
        wl.senders[static_cast<std::size_t>(m) % wl.senders.size()];
    const std::string payload = "m" + std::to_string(m);
    sim.at(0.0, sender, [&, sender, payload] {
      channels[static_cast<std::size_t>(sender)]->send(to_bytes(payload));
    });
  }

  const crypto::WorkMeter meter;
  const auto t0 = std::chrono::steady_clock::now();
  const bool completed = sim.run_until(
      [&] {
        return delivered_at_measure >= static_cast<std::size_t>(o.messages);
      },
      o.deadline_ms);
  const double wall_ms = wall_ms_since(t0);
  const std::uint64_t work = meter.elapsed();

  const double span_ms = delivery_times.size() > 1
                             ? delivery_times.back() - delivery_times.front()
                             : 0.0;
  const double deliveries =
      static_cast<double>(delivery_times.empty() ? 0 : delivery_times.size());
  const double virtual_dps =
      span_ms > 0.0 ? (deliveries - 1.0) / span_ms * 1000.0 : 0.0;
  const double wall_dps = wall_ms > 0.0 ? deliveries / wall_ms * 1000.0 : 0.0;
  const double msgs = static_cast<double>(sim.messages_sent());
  const double datagrams_per_delivery =
      deliveries > 0.0 ? msgs / deliveries : 0.0;

  std::printf(
      "{\"mode\":\"sweep\",\"n\":%d,\"t\":%d,\"messages\":%d,\"senders\":%zu,"
      "\"seed\":%llu,\"rsa_bits\":%d,\"completed\":%s,\"deliveries\":%zu,"
      "\"elapsed_virtual_ms\":%.3f,\"virtual_del_per_sec\":%.3f,"
      "\"wall_ms\":%.1f,\"wall_del_per_sec\":%.3f,"
      "\"work_units\":%llu,\"work_units_per_delivery\":%.0f,"
      "\"messages_sent\":%llu,\"datagrams_per_delivery\":%.1f,"
      "\"syscalls_per_delivery_unbatched\":%.1f}\n",
      o.n, t, o.messages, wl.senders.size(),
      static_cast<unsigned long long>(o.seed), o.rsa_bits,
      completed ? "true" : "false", delivery_times.size(), sim.now_ms(),
      virtual_dps, wall_ms, wall_dps,
      static_cast<unsigned long long>(work),
      deliveries > 0.0 ? static_cast<double>(work) / deliveries : 0.0,
      static_cast<unsigned long long>(sim.messages_sent()),
      datagrams_per_delivery,
      // One sendto + one recvfrom per datagram on the unbatched path.
      2.0 * datagrams_per_delivery);
  return completed ? 0 : 1;
}

/// Times one checked combine facing one Byzantine share: a fresh combiner
/// handle (the fallback blacklists, so handles are single-use here),
/// warmed so comb-table builds happen outside the timed region, then the
/// combine → failed check → per-share fallback → retry sequence.
double time_fallback_ms(const crypto::RsaThresholdDeal& deal, BytesView msg,
                        const std::vector<std::pair<int, Bytes>>& shares,
                        crypto::WorkPool* pool) {
  const std::unique_ptr<crypto::RsaThresholdScheme> combiner =
      deal.make_party(0);
  // Warm: verifying each signer's genuine share builds the per-signer comb
  // tables so the timed region measures verification, not table builds.
  for (const auto& [signer, share] : shares) {
    if (!combiner->verify_share(msg, signer, share)) {
      throw std::runtime_error("genuine share failed warm-up verification");
    }
  }
  // Shares as combined: signer 0 presents signer k's share bytes — parses
  // fine, verifies false — so the combine-first check fails and the
  // fallback individually verifies the k chosen shares.
  std::vector<std::pair<int, Bytes>> byzantine = shares;
  byzantine[0].second = shares[static_cast<std::size_t>(combiner->k())].second;

  const auto t0 = std::chrono::steady_clock::now();
  const auto sig = combiner->combine_checked(msg, byzantine, pool);
  const double ms = wall_ms_since(t0);
  if (!sig.has_value() || !combiner->verify(msg, sig->sig)) {
    throw std::runtime_error("checked combine failed to recover");
  }
  if (!combiner->is_blacklisted(0)) {
    throw std::runtime_error("Byzantine submitter was not blacklisted");
  }
  return ms;
}

int run_fallback_gate(const Options& o) {
  const int t = (o.n - 1) / 3;
  const int k = o.n - t;  // the agreement threshold, the paper's k_AB
  Rng rng(o.seed);
  const crypto::RsaThresholdDeal deal =
      crypto::deal_rsa_threshold(rng, o.n, k, o.rsa_bits);

  const Bytes msg = to_bytes(std::string("scale-sweep fallback gate"));
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < o.n; ++i) {
    shares.emplace_back(i, deal.make_party(i)->sign_share(msg));
  }

  const std::size_t threads = std::thread::hardware_concurrency();
  crypto::WorkPool pool(threads);

  // The gate compares the fastest rep of each path; every rep is printed
  // too, so a run that misses the bar shows whether one path was slowed
  // by the host rather than by the code.
  std::vector<double> serial_reps;
  std::vector<double> parallel_reps;
  for (int r = 0; r < o.reps; ++r) {
    serial_reps.push_back(time_fallback_ms(deal, msg, shares,
                                           /*pool=*/nullptr));
    parallel_reps.push_back(time_fallback_ms(deal, msg, shares, &pool));
  }
  const double serial_ms =
      *std::min_element(serial_reps.begin(), serial_reps.end());
  const double parallel_ms =
      *std::min_element(parallel_reps.begin(), parallel_reps.end());
  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;

  const auto json_list = [](const std::vector<double>& xs) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.3f", i == 0 ? "" : ",", xs[i]);
      out += buf;
    }
    return out + "]";
  };
  std::printf(
      "{\"mode\":\"fallback_gate\",\"n\":%d,\"t\":%d,\"k\":%d,"
      "\"rsa_bits\":%d,\"reps\":%d,\"threads\":%zu,"
      "\"serial_ms\":%.3f,\"parallel_ms\":%.3f,\"speedup\":%.2f,"
      "\"serial_ms_reps\":%s,\"parallel_ms_reps\":%s}\n",
      o.n, t, k, o.rsa_bits, o.reps, threads, serial_ms, parallel_ms,
      speedup, json_list(serial_reps).c_str(),
      json_list(parallel_reps).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    return o.sweep ? run_sweep(o) : run_fallback_gate(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
