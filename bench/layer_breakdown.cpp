// Protocol-layer cost breakdown for one atomic-broadcast workload.
//
// The paper's §4.2 concludes that "protocol overhead and network delays,
// but not cryptographic operations, account for most of the time"; this
// harness makes the network half of that attribution precise by tracing
// every frame and attributing it to its protocol layer: the channel's
// signed-message exchange, the MVBA's consistent broadcasts, its votes,
// the embedded binary agreements, and the coin.
#include <cstdio>
#include <cstdlib>

#include "bench/common.hpp"
#include "obs/trace.hpp"

using namespace sintra;
using namespace sintra::bench;

namespace {

// Classifies an instance pid into its protocol layer.
std::string layer_of(const std::string& pid) {
  // pids look like: bench (channel), bench.rN (MVBA votes),
  // bench.rN.cb.J (proposals via consistent broadcast),
  // bench.rN.vba.K (binary agreement incl. coin shares).
  if (pid.find(".vba.") != std::string::npos) return "binary agreement";
  if (pid.find(".cb.") != std::string::npos) return "consistent bcast";
  if (pid.find(".r") != std::string::npos) return "MVBA votes";
  return "channel (signed msgs)";
}

}  // namespace

int main(int argc, char** argv) {
  const int messages = argc > 1 ? std::atoi(argv[1]) : 50;
  const crypto::Deal deal = crypto::run_dealer(paper_dealer_config(4, 1));

  std::printf("Layer breakdown: AtomicChannel on the Internet setup, one "
              "sender, %d messages\n\n", messages);

  sim::Simulator sim(sim::internet_setup(), deal, 1);
  sim.per_message_cpu_ms = default_overhead_ms();
  obs::EventTrace trace;
  sim.trace = &trace;

  std::vector<std::unique_ptr<core::AtomicChannel>> chans;
  for (int i = 0; i < 4; ++i) {
    chans.push_back(std::make_unique<core::AtomicChannel>(
        sim.node(i), sim.node(i).dispatcher(), "bench"));
  }
  for (int m = 0; m < messages; ++m) {
    sim.at(0.0, 0, [&, m] {
      chans[0]->send(to_bytes("m" + std::to_string(m)));
    });
  }
  if (!sim.run_until(
          [&] {
            return chans[0]->deliveries().size() >=
                   static_cast<std::size_t>(messages);
          },
          1e9)) {
    std::printf("workload did not complete\n");
    return 1;
  }

  const auto totals = trace.by_class(layer_of);
  std::uint64_t all_msgs = 0, all_bytes = 0;
  for (const auto& [layer, t] : totals) {
    all_msgs += t.messages;
    all_bytes += t.bytes;
  }
  std::printf("%-22s %10s %8s %12s %8s\n", "layer", "messages", "%msgs",
              "bytes", "%bytes");
  for (const auto& [layer, t] : totals) {
    std::printf("%-22s %10llu %7.1f%% %12llu %7.1f%%\n", layer.c_str(),
                static_cast<unsigned long long>(t.messages),
                100.0 * static_cast<double>(t.messages) / all_msgs,
                static_cast<unsigned long long>(t.bytes),
                100.0 * static_cast<double>(t.bytes) / all_bytes);
  }
  std::printf("%-22s %10llu %8s %12llu\n", "total",
              static_cast<unsigned long long>(all_msgs), "",
              static_cast<unsigned long long>(all_bytes));
  std::printf("\nper delivered message: %.1f network messages, %.0f bytes\n",
              static_cast<double>(all_msgs) / messages,
              static_cast<double>(all_bytes) / messages);
  std::printf("the binary-agreement layer dominates message count — the "
              "\"expensive protocols based on Byzantine agreement\" of "
              "§1, and the motivation for the optimistic fast path "
              "(ext_optimistic).\n");
  return 0;
}
