// Intrusion-tolerant replicated key-value store.
//
// State-machine replication (Schneider) over SINTRA's atomic broadcast:
// every replica applies the same totally-ordered stream of SET/DEL
// commands, so all honest replicas hold identical state even though one
// replica crashes mid-run.  This is the paper's motivating application
// ("Given an atomic broadcast primitive, a fault-tolerant replicated
// service can be implemented immediately", §2.5).
//
//   $ ./kv_store
//
#include <deque>
#include <iostream>
#include <map>
#include <sstream>

#include "facade/blocking.hpp"

namespace {

using sintra::Bytes;

/// The deterministic state machine each replica runs.
class KvStateMachine {
 public:
  /// Commands: "SET key value" | "DEL key".
  void apply(const std::string& command) {
    std::istringstream in(command);
    std::string op, key;
    in >> op >> key;
    if (op == "SET") {
      std::string value;
      std::getline(in, value);
      if (!value.empty() && value.front() == ' ') value.erase(0, 1);
      state_[key] = value;
    } else if (op == "DEL") {
      state_.erase(key);
    }
    ++applied_;
  }

  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream out;
    for (const auto& [k, v] : state_) out << k << "=" << v << ";";
    return out.str();
  }

  [[nodiscard]] int applied() const { return applied_; }

 private:
  std::map<std::string, std::string> state_;
  int applied_ = 0;
};

}  // namespace

int main() {
  using namespace sintra;

  crypto::DealerConfig config;
  config.n = 4;
  config.t = 1;
  config.rsa_bits = 512;
  config.dl_p_bits = 256;
  config.dl_q_bits = 96;
  const crypto::Deal deal = crypto::run_dealer(config);
  sim::Simulator sim(sim::lan_setup(), deal);

  std::deque<facade::BlockingAtomicChannel> channel;
  for (int i = 0; i < sim.n(); ++i) channel.emplace_back(sim, i, "kv");

  // Commands submitted concurrently at different replicas — including
  // conflicting writes to the same key, which total order resolves
  // identically everywhere.
  const std::vector<std::pair<int, std::string>> workload = {
      {0, "SET balance:alice 100"}, {1, "SET balance:bob 250"},
      {2, "SET balance:alice 90"},  {0, "DEL balance:bob"},
      {1, "SET audit last-writer-one"}, {2, "SET audit last-writer-two"},
  };
  for (const auto& [replica, cmd] : workload) {
    channel[static_cast<std::size_t>(replica)].send(to_bytes(cmd));
  }

  std::vector<KvStateMachine> machines(3);
  for (int i = 0; i < 3; ++i) {
    for (std::size_t m = 0; m < workload.size(); ++m) {
      auto cmd = channel[static_cast<std::size_t>(i)].receive();
      if (!cmd) {
        std::cerr << "stalled: replica " << i << " at command " << m << "\n";
        return 1;
      }
      machines[static_cast<std::size_t>(i)].apply(to_string(*cmd));
      // Replica 3 crashes once the first command is ordered: with n=4,
      // t=1 the service must not notice.
      if (i == 0 && m == 0) {
        sim.node(3).crash();
        std::cout << "replica 3 crashed; continuing with 3 of 4\n";
      }
    }
  }

  const std::string expected = machines[0].fingerprint();
  std::cout << "replica 0 state: " << expected << "\n";
  for (int i = 1; i < 3; ++i) {
    std::cout << "replica " << i << " state: "
              << machines[static_cast<std::size_t>(i)].fingerprint() << "\n";
    if (machines[static_cast<std::size_t>(i)].fingerprint() != expected) {
      std::cerr << "STATE DIVERGENCE — replication broken!\n";
      return 1;
    }
  }
  std::cout << "all live replicas converged on identical state ("
            << machines[0].applied() << " commands applied)\n";
  return 0;
}
