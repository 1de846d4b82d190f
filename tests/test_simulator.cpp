#include <gtest/gtest.h>

#include "crypto/rsa.hpp"
#include "sim/adversary.hpp"
#include "sim/simulator.hpp"

namespace sintra::sim {
namespace {

crypto::Deal test_deal(int n = 4, int t = 1) {
  crypto::DealerConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.rsa_bits = 512;
  cfg.dl_p_bits = 256;
  cfg.dl_q_bits = 96;
  return crypto::run_dealer(cfg);
}

TEST(Simulator, DeliversPointToPoint) {
  const auto deal = test_deal();
  Simulator sim(uniform_setup(4, 90.0, 5.0), deal);
  std::vector<std::string> got;
  sim.node(1).dispatcher().register_pid(
      "test", [&](core::PartyId from, BytesView p) {
        got.push_back(std::to_string(from) + ":" + to_string(p));
      });
  sim.at(0.0, 0, [&] {
    sim.node(0).send(1, core::frame_message("test", to_bytes("hi")));
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"0:hi"}));
  // Arrival after latency.
  EXPECT_GT(sim.now_ms(), 4.0);
}

TEST(Simulator, SendAllIncludesSelf) {
  const auto deal = test_deal();
  Simulator sim(uniform_setup(4), deal);
  int count = 0;
  for (int i = 0; i < 4; ++i) {
    sim.node(i).dispatcher().register_pid(
        "b", [&](core::PartyId, BytesView) { ++count; });
  }
  sim.at(0.0, 2, [&] {
    sim.node(2).send_all(core::frame_message("b", to_bytes("x")));
  });
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(Simulator, FifoPerLink) {
  const auto deal = test_deal();
  Topology topo = uniform_setup(4, 90.0, 10.0, /*jitter=*/0.5);
  Simulator sim(topo, deal, /*seed=*/7);
  std::vector<int> order;
  sim.node(1).dispatcher().register_pid(
      "seq", [&](core::PartyId, BytesView p) {
        order.push_back(static_cast<int>(p[0]));
      });
  sim.at(0.0, 0, [&] {
    for (int i = 0; i < 20; ++i) {
      sim.node(0).send(1, core::frame_message("seq", Bytes{static_cast<std::uint8_t>(i)}));
    }
  });
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, DeterministicForSeed) {
  const auto deal = test_deal();
  auto run_once = [&](std::uint64_t seed) {
    Simulator sim(uniform_setup(4, 90.0, 3.0, 0.3), deal, seed);
    std::vector<double> arrivals;
    sim.node(1).dispatcher().register_pid(
        "d", [&](core::PartyId, BytesView) { arrivals.push_back(sim.now_ms()); });
    for (int i = 0; i < 10; ++i) {
      sim.at(static_cast<double>(i), 0, [&] {
        sim.node(0).send(1, core::frame_message("d", {}));
      });
    }
    sim.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(Simulator, CrashedNodeSilent) {
  const auto deal = test_deal();
  Simulator sim(uniform_setup(4), deal);
  int received = 0;
  sim.node(1).dispatcher().register_pid(
      "x", [&](core::PartyId, BytesView) { ++received; });
  sim.node(1).crash();
  sim.at(0.0, 0, [&] {
    sim.node(0).send(1, core::frame_message("x", {}));
  });
  sim.run();
  EXPECT_EQ(received, 0);

  // Crashed node also cannot send.
  sim.node(0).crash();
  sim.at(10.0, 0, [&] {
    sim.node(0).send(2, core::frame_message("x", {}));
  });
  const auto sent_before = sim.messages_sent();
  sim.run();
  EXPECT_EQ(sim.messages_sent(), sent_before);
}

TEST(Simulator, CpuTimeAccountsForCrypto) {
  const auto deal = test_deal();
  // Host 0 is 10x slower than host 1.
  Topology topo = uniform_setup(2 + 2, 0.0, 1.0, 0.0);
  topo.hosts[0].exp_ms = 500.0;
  topo.hosts[1].exp_ms = 50.0;
  Simulator sim(topo, deal);
  sim.per_message_cpu_ms = 0.0;

  // Each node signs once upon stimulus; measure completion time via a
  // message it then sends to itself.
  std::vector<double> done(2, 0.0);
  for (int i = 0; i < 2; ++i) {
    sim.node(i).dispatcher().register_pid(
        "done", [&, i](core::PartyId, BytesView) { done[static_cast<std::size_t>(i)] = sim.now_ms(); });
  }
  for (int i = 0; i < 2; ++i) {
    sim.at(0.0, i, [&sim, &deal, i] {
      (void)crypto::rsa_sign(*deal.parties[static_cast<std::size_t>(i)].own_rsa,
                             to_bytes("payload"));
      sim.node(i).send(i, core::frame_message("done", {}));
    });
  }
  sim.run();
  EXPECT_GT(done[0], 0.0);
  EXPECT_GT(done[1], 0.0);
  // Same signing work, 10x CPU-speed difference; the self-send adds only
  // the 0.01 ms loopback to both.
  const double ratio = done[0] / done[1];
  EXPECT_GT(ratio, 7.0);
  EXPECT_LT(ratio, 13.0);
}

TEST(Simulator, CpuSerializesHandlers) {
  const auto deal = test_deal();
  Topology topo = uniform_setup(4, 100.0, 1.0, 0.0);
  Simulator sim(topo, deal);
  sim.per_message_cpu_ms = 10.0;  // each handler occupies the CPU 10 ms
  std::vector<double> times;
  sim.node(1).dispatcher().register_pid(
      "work", [&](core::PartyId, BytesView) { times.push_back(sim.now_ms()); });
  sim.at(0.0, 0, [&] {
    for (int i = 0; i < 5; ++i) {
      sim.node(0).send(1, core::frame_message("work", {}));
    }
  });
  sim.run();
  ASSERT_EQ(times.size(), 5u);
  // All five arrive at ~1ms but the last one's *processing end* is 50 ms
  // later; arrival timestamps are equal, so check via total sim time:
  EXPECT_GE(sim.now_ms(), 1.0);
}

TEST(Simulator, ForgedWireWithoutKeysDropped) {
  const auto deal = test_deal();
  Simulator sim(uniform_setup(4), deal);
  int received = 0;
  sim.node(1).dispatcher().register_pid(
      "x", [&](core::PartyId, BytesView) { ++received; });
  // Raw injection without valid HMAC must be dropped.
  sim.inject(0, 1, core::frame_message("x", to_bytes("forged")), 0.0);
  sim.run();
  EXPECT_EQ(received, 0);
}

TEST(Simulator, AdversaryWithKeysCanImpersonateCorrupted) {
  const auto deal = test_deal();
  Simulator sim(uniform_setup(4), deal);
  Adversary adv(sim, deal);
  std::vector<std::string> got;
  sim.node(1).dispatcher().register_pid(
      "x", [&](core::PartyId from, BytesView p) {
        got.push_back(std::to_string(from) + ":" + to_string(p));
      });
  adv.corrupt(3);
  adv.send_as(3, 1, "x", to_bytes("equivocation-A"), 0.0);
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"3:equivocation-A"}));
}

TEST(Simulator, DelayHookAddsAdversarialDelay) {
  const auto deal = test_deal();
  Simulator sim(uniform_setup(4, 90.0, 1.0, 0.0), deal);
  sim.delay_hook = [](int from, int, double) {
    return from == 0 ? 500.0 : 0.0;
  };
  double arrival = -1;
  sim.node(1).dispatcher().register_pid(
      "x", [&](core::PartyId, BytesView) { arrival = sim.now_ms(); });
  sim.at(0.0, 0, [&] {
    sim.node(0).send(1, core::frame_message("x", {}));
  });
  sim.run();
  EXPECT_GT(arrival, 500.0);
}

TEST(Simulator, RunUntilRespectsDeadline) {
  const auto deal = test_deal();
  Simulator sim(uniform_setup(4, 90.0, 100.0, 0.0), deal);
  bool got = false;
  sim.node(1).dispatcher().register_pid(
      "x", [&](core::PartyId, BytesView) { got = true; });
  sim.at(0.0, 0, [&] {
    sim.node(0).send(1, core::frame_message("x", {}));
  });
  EXPECT_FALSE(sim.run_until([&] { return got; }, 10.0));
  EXPECT_TRUE(sim.run_until([&] { return got; }, 1000.0));
}

TEST(Simulator, PaperTopologiesWellFormed) {
  for (const Topology& topo :
       {lan_setup(), internet_setup(), combined_setup()}) {
    const int n = topo.n();
    ASSERT_EQ(topo.latency_ms.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_GT(topo.latency_ms[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 0.0);
        EXPECT_EQ(topo.latency_ms[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                  topo.latency_ms[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)]);
      }
      EXPECT_GT(topo.hosts[static_cast<std::size_t>(i)].exp_ms, 0.0);
    }
  }
  // Spot-check Figure 3: Zurich–NewYork one-way 46.5 ms.
  EXPECT_DOUBLE_EQ(internet_setup().latency_ms[0][2], 46.5);
  EXPECT_EQ(combined_setup().n(), 7);
}

}  // namespace
}  // namespace sintra::sim

namespace sintra::sim {
namespace {

TEST(Simulator, EventTraceRecordsPidsAndBytes) {
  crypto::DealerConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.rsa_bits = 512;
  cfg.dl_p_bits = 256;
  cfg.dl_q_bits = 96;
  const auto deal = crypto::run_dealer(cfg);
  Simulator sim(uniform_setup(4), deal);
  obs::EventTrace trace;
  sim.trace = &trace;
  sim.at(0.0, 0, [&] {
    sim.node(0).send_all(core::frame_message("traced.pid", to_bytes("xyz")));
  });
  sim.run();
  ASSERT_EQ(trace.entries().size(), 4u);
  for (const auto& e : trace.entries()) {
    EXPECT_EQ(e.type, obs::EventType::kSend);
    EXPECT_EQ(e.pid, "traced.pid");
    EXPECT_EQ(e.from, 0);
    EXPECT_GT(e.bytes, 3u);
  }
  const auto totals = trace.by_class([](const std::string& pid) {
    return pid.substr(0, pid.find('.'));
  });
  ASSERT_TRUE(totals.contains("traced"));
  EXPECT_EQ(totals.at("traced").messages, 4u);
}

}  // namespace
}  // namespace sintra::sim
