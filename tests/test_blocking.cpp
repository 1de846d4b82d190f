// The blocking API (facade/blocking.hpp) on the simulator: channels,
// broadcasts and agreement through the paper's Java-shaped calls, a
// blocking call that cannot complete, and determinism per seed.
#include "facade/blocking.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "sim_fixture.hpp"

namespace sintra::facade {
namespace {

using testing::Cluster;

/// One wrapper per party, all with the same constructor arguments.
template <typename W, typename... Args>
std::deque<W> per_party(sim::Simulator& sim, const Args&... args) {
  std::deque<W> out;
  for (int i = 0; i < sim.n(); ++i) out.emplace_back(sim, i, args...);
  return out;
}

/// Receives `count` payloads at every party.
template <typename W>
std::vector<std::vector<std::string>> receive_all(std::deque<W>& parties,
                                                  int count) {
  std::vector<std::vector<std::string>> streams;
  for (auto& w : parties) {
    auto& stream = streams.emplace_back();
    for (int m = 0; m < count; ++m) {
      auto payload = w.receive();
      if (!payload) return streams;
      stream.push_back(to_string(*payload));
    }
  }
  return streams;
}

TEST(BlockingApi, AtomicChannelEndToEnd) {
  Cluster c;
  auto chans = per_party<BlockingAtomicChannel>(c.sim, "fac.ac");
  chans[0].send(to_bytes("a"));
  chans[1].send(to_bytes("b"));
  const auto streams = receive_all(chans, 2);
  ASSERT_EQ(streams.size(), 4u);
  ASSERT_EQ(streams[0].size(), 2u);
  for (const auto& s : streams) EXPECT_EQ(s, streams[0]);
}

TEST(BlockingApi, CanReceiveProbe) {
  Cluster c;
  auto chans = per_party<BlockingAtomicChannel>(c.sim, "fac.probe");
  EXPECT_FALSE(chans[2].can_receive());
  chans[0].send(to_bytes("x"));
  auto payload = chans[2].receive();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(to_string(*payload), "x");
  EXPECT_FALSE(chans[2].can_receive());
}

TEST(BlockingApi, CloseWaitTerminates) {
  Cluster c;
  auto chans = per_party<BlockingAtomicChannel>(c.sim, "fac.close");
  chans[0].close();
  chans[1].close();
  ASSERT_TRUE(chans[2].close_wait());
  EXPECT_TRUE(chans[2].is_closed());
}

TEST(BlockingApi, ReliableAndConsistentChannels) {
  Cluster c;
  auto rc = per_party<BlockingReliableChannel>(c.sim, "fac.rc");
  auto cc = per_party<BlockingConsistentChannel>(c.sim, "fac.cc");
  rc[0].send(to_bytes("r"));
  cc[1].send(to_bytes("c"));
  for (int i = 0; i < 4; ++i) {
    auto r = rc[static_cast<std::size_t>(i)].receive();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(to_string(*r), "r");
    auto m = cc[static_cast<std::size_t>(i)].receive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(to_string(*m), "c");
  }
}

TEST(BlockingApi, SecureChannelEndToEnd) {
  Cluster c;
  auto chans = per_party<BlockingSecureAtomicChannel>(c.sim, "fac.sac");
  chans[3].send(to_bytes("sealed"));
  const auto streams = receive_all(chans, 1);
  ASSERT_EQ(streams.size(), 4u);
  for (const auto& s : streams) {
    EXPECT_EQ(s, std::vector<std::string>{"sealed"});
  }
}

TEST(BlockingApi, ReceiveReturnsNulloptWhenQueueDrains) {
  // Only t+1 = 2 of 4 parties alive: no quorum can form, so the queue
  // drains and receive() reports it instead of hanging.
  Cluster c;
  auto chans = per_party<BlockingAtomicChannel>(c.sim, "fac.stuck");
  c.sim.node(2).crash();
  c.sim.node(3).crash();
  chans[0].send(to_bytes("never ordered"));
  EXPECT_FALSE(chans[0].receive().has_value());
  EXPECT_FALSE(chans[1].can_receive());
}

TEST(BlockingApi, InputQueuedPastItsWrapperIsDropped) {
  Cluster c;
  {
    BlockingAtomicChannel gone(c.sim, 0, "fac.gone");
    gone.send(to_bytes("orphan"));
  }
  c.sim.run();  // must not touch the destroyed channel
  EXPECT_EQ(c.sim.messages_sent(), 0u);
}

TEST(BlockingApi, SameSeedSameRun) {
  const auto run = [] {
    Cluster c(4, 1, 7);
    auto chans = per_party<BlockingAtomicChannel>(c.sim, "fac.det");
    for (int i = 0; i < 3; ++i) {
      chans[static_cast<std::size_t>(i)].send(
          to_bytes("m" + std::to_string(i)));
    }
    auto streams = receive_all(chans, 3);
    return std::pair{std::move(streams), c.sim.now_ms()};
  };
  const auto [streams_a, end_a] = run();
  const auto [streams_b, end_b] = run();
  ASSERT_EQ(streams_a.size(), 4u);
  ASSERT_EQ(streams_a[3].size(), 3u);
  EXPECT_EQ(streams_a, streams_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_GT(end_a, 0.0);
}

TEST(BlockingBroadcast, ReliableRoundTrip) {
  Cluster c;
  auto bs = per_party<BlockingReliableBroadcast>(c.sim, "fb.rbc",
                                                 /*sender=*/2);
  EXPECT_FALSE(bs[0].can_receive());
  bs[2].send(to_bytes("reliable payload"));
  for (auto& b : bs) {
    auto payload = b.receive();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(to_string(*payload), "reliable payload");
  }
  EXPECT_TRUE(bs[0].can_receive());
}

TEST(BlockingBroadcast, ConsistentRoundTrip) {
  Cluster c;
  auto bs = per_party<BlockingConsistentBroadcast>(c.sim, "fb.cb",
                                                   /*sender=*/0);
  bs[0].send(to_bytes("echo payload"));
  for (auto& b : bs) {
    auto payload = b.receive();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(to_string(*payload), "echo payload");
  }
}

TEST(BlockingAgreement, NegotiateUnanimous) {
  Cluster c;
  auto as = per_party<BlockingBinaryAgreement>(c.sim, "fb.ba");
  // negotiate() returns only once enough parties have proposed: alone,
  // party 0 sees the queue drain; n - t = 3 proposals suffice.
  EXPECT_FALSE(as[0].negotiate(true).has_value());
  as[1].propose(true);
  EXPECT_EQ(as[2].negotiate(true), std::optional<bool>(true));
  EXPECT_EQ(as[3].negotiate(true), std::optional<bool>(true));
  for (auto& a : as) EXPECT_EQ(a.decide(), std::optional<bool>(true));
  EXPECT_TRUE(as[0].can_decide());
}

TEST(BlockingAgreement, MixedProposalsAgree) {
  Cluster c;
  auto as = per_party<BlockingBinaryAgreement>(c.sim, "fb.bamix");
  for (int i = 0; i < 4; ++i) {
    as[static_cast<std::size_t>(i)].propose(i % 2 == 0);
  }
  const auto v0 = as[0].decide();
  ASSERT_TRUE(v0.has_value());
  for (auto& a : as) EXPECT_EQ(a.decide(), v0);
}

TEST(BlockingArrayAgreement, NegotiateValues) {
  Cluster c;
  auto as = per_party<BlockingArrayAgreement>(
      c.sim, "fb.mvba", core::ArrayValidator([](BytesView) { return true; }));
  for (int i = 0; i < 4; ++i) {
    as[static_cast<std::size_t>(i)].propose(
        to_bytes("value-" + std::to_string(i)));
  }
  const auto v0 = as[0].decide();
  ASSERT_TRUE(v0.has_value());
  EXPECT_EQ(to_string(*v0).rfind("value-", 0), 0u);
  for (auto& a : as) EXPECT_EQ(a.decide(), v0);
}

}  // namespace
}  // namespace sintra::facade
