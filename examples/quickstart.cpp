// Quickstart: secure state-machine replication in ~60 lines.
//
// Four replicas tolerate one Byzantine fault (n = 4, t = 1).  The trusted
// dealer hands out all key material, an atomic broadcast channel totally
// orders client commands, and every replica observes the same sequence —
// the paper's core claim, end to end.
//
//   $ ./quickstart
//
#include <deque>
#include <iostream>

#include "facade/blocking.hpp"

int main() {
  using namespace sintra;

  // 1. The trusted dealer (run once, §2): group of 4, one may be corrupt.
  crypto::DealerConfig config;
  config.n = 4;
  config.t = 1;
  config.rsa_bits = 512;   // demo-sized keys; the paper used 1024
  config.dl_p_bits = 256;
  config.dl_q_bits = 96;
  const crypto::Deal deal = crypto::run_dealer(config);

  // 2. Boot the replicas on the simulated paper LAN (authenticated
  //    links, virtual time, deterministic).
  sim::Simulator sim(sim::lan_setup(), deal);

  // 3. Open the atomic broadcast channel on every replica.
  std::deque<facade::BlockingAtomicChannel> channel;
  for (int i = 0; i < sim.n(); ++i) channel.emplace_back(sim, i, "quickstart");

  // 4. Two replicas broadcast commands concurrently.
  channel[0].send(to_bytes("credit alice 100"));
  channel[1].send(to_bytes("debit bob 40"));
  channel[0].send(to_bytes("credit carol 7"));

  // 5. Every replica receives the SAME totally-ordered command stream.
  std::vector<std::string> first_log;
  for (int i = 0; i < sim.n(); ++i) {
    std::vector<std::string> log;
    std::cout << "replica " << i << " applies:";
    for (int m = 0; m < 3; ++m) {
      auto cmd = channel[static_cast<std::size_t>(i)].receive();
      if (!cmd) {
        std::cerr << "\nno delivery: the group stalled\n";
        return 1;
      }
      log.push_back(to_string(*cmd));
      std::cout << "  [" << log.back() << "]";
    }
    std::cout << "\n";
    if (i == 0) first_log = log;
    if (log != first_log) {
      std::cerr << "replica " << i << " diverged from replica 0\n";
      return 1;
    }
  }

  // 6. Close the channel (t+1 = 2 honest closes terminate it, §2.5).
  channel[0].close();
  channel[1].close();
  if (!channel[2].close_wait()) {
    std::cerr << "close did not terminate the channel\n";
    return 1;
  }
  std::cout << "channel closed at " << sim.now_ms() << " ms virtual time\n";
  return 0;
}
