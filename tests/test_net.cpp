// Deployment-transport tests: real UDP sockets on the loopback device,
// several NetEnvironment parties sharing one event loop, and the
// transport-level drop accounting for junk datagrams.  Everything binds
// port 0 (ephemeral) so parallel test runs cannot collide.
#include "net/net_environment.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/broadcast/reliable_broadcast.hpp"
#include "core/channel/atomic_channel.hpp"
#include "obs/metrics.hpp"
#include "sim_fixture.hpp"
#include "util/serde.hpp"

namespace sintra::net {
namespace {

/// Value of counter `name`{party=`party`} in a snapshot (0 if absent).
/// The process registry accumulates across tests, so assertions below
/// compare before/after deltas, never absolute values.
std::uint64_t snapshot_counter(const obs::Snapshot& snap,
                               const std::string& name, int party) {
  const obs::Labels labels = obs::party_labels(party);
  for (const auto& c : snap.counters) {
    if (c.name == name && c.labels == labels) return c.value;
  }
  return 0;
}

core::Endpoint endpoint_of(const UdpSocket& socket) {
  const std::string addr = socket.local_address().to_string();
  const auto colon = addr.rfind(':');
  return {addr.substr(0, colon), std::stoi(addr.substr(colon + 1))};
}

TEST(UdpSocket, LoopbackRoundtripWithEphemeralPorts) {
  EventLoop loop;
  UdpSocket a(SocketAddress::resolve("127.0.0.1", 0));
  UdpSocket b(SocketAddress::resolve("127.0.0.1", 0));
  EXPECT_NE(endpoint_of(a).port, 0);  // local_address resolves port 0
  EXPECT_NE(endpoint_of(a).port, endpoint_of(b).port);

  std::vector<std::string> got;
  loop.add_fd(b.fd(), [&] {
    while (auto received = b.receive()) {
      got.push_back(to_string(received->first));
    }
  });
  ASSERT_TRUE(a.send_to(b.local_address(), to_bytes("over the wire")));
  ASSERT_TRUE(loop.run_until([&] { return !got.empty(); }, 5000.0));
  EXPECT_EQ(got, (std::vector<std::string>{"over the wire"}));
  loop.remove_fd(b.fd());
}

TEST(UdpSocket, ResolveRendersNumericAddresses) {
  const SocketAddress addr = SocketAddress::resolve("127.0.0.1", 12345);
  EXPECT_EQ(addr.to_string(), "127.0.0.1:12345");
  EXPECT_THROW(SocketAddress::resolve("no.such.host.invalid", 1),
               std::runtime_error);
}

/// n NetEnvironment parties on one loop, each with its own ephemeral-port
/// socket — a whole cluster over real UDP inside one test process.
struct InProcessCluster {
  crypto::Deal deal;
  EventLoop loop;
  std::vector<std::unique_ptr<NetEnvironment>> envs;

  explicit InProcessCluster(int n, int t, NetOptions options = {})
      : deal(testing::cached_deal(n, t)) {
    std::vector<UdpSocket> sockets;
    std::vector<core::Endpoint> endpoints;
    for (int i = 0; i < n; ++i) {
      sockets.emplace_back(SocketAddress::resolve("127.0.0.1", 0));
      endpoints.push_back(endpoint_of(sockets.back()));
    }
    for (int i = 0; i < n; ++i) {
      envs.push_back(std::make_unique<NetEnvironment>(
          loop, std::move(sockets[static_cast<std::size_t>(i)]), endpoints,
          deal.parties[static_cast<std::size_t>(i)], options));
    }
  }
};

TEST(NetEnvironment, ReliableBroadcastAcrossRealSockets) {
  InProcessCluster c(4, 1);
  std::vector<std::unique_ptr<core::ReliableBroadcast>> rbcs;
  for (auto& env : c.envs) {
    rbcs.push_back(std::make_unique<core::ReliableBroadcast>(
        *env, env->dispatcher(), "net.rbc", 0));
  }
  const Bytes payload = to_bytes("across real sockets");
  rbcs[0]->send(payload);
  ASSERT_TRUE(c.loop.run_until(
      [&] {
        return std::all_of(rbcs.begin(), rbcs.end(), [](const auto& r) {
          return r->delivered().has_value();
        });
      },
      60000.0));
  for (const auto& r : rbcs) EXPECT_EQ(*r->delivered(), payload);
  // Real traffic flowed through the sockets.
  EXPECT_GT(c.envs[0]->stats().datagrams_received, 0u);
}

TEST(NetEnvironment, AtomicChannelTotalOrderAcrossRealSockets) {
  InProcessCluster c(4, 1);
  std::vector<std::unique_ptr<core::AtomicChannel>> channels;
  std::vector<std::vector<std::string>> delivered(4);
  int closed = 0;
  for (int i = 0; i < 4; ++i) {
    auto& env = *c.envs[static_cast<std::size_t>(i)];
    channels.push_back(std::make_unique<core::AtomicChannel>(
        env, env.dispatcher(), "net.atomic"));
    channels.back()->set_deliver_callback(
        [&delivered, i](const Bytes& payload, core::PartyId) {
          delivered[static_cast<std::size_t>(i)].push_back(
              to_string(payload));
        });
    channels.back()->set_closed_callback([&closed] { ++closed; });
  }
  for (int i = 0; i < 4; ++i) {
    channels[static_cast<std::size_t>(i)]->send(
        to_bytes("net" + std::to_string(i)));
    channels[static_cast<std::size_t>(i)]->close();
  }
  ASSERT_TRUE(c.loop.run_until([&] { return closed == 4; }, 120000.0));
  // Agreed close: all parties delivered the identical sequence.
  EXPECT_FALSE(delivered[0].empty());
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], delivered[0]);
  }
  // The four parties share one loop thread, yet each verified under its
  // own memo.
  for (const auto& env : c.envs) EXPECT_GT(env->verify_memo().size(), 0u);
}

TEST(NetEnvironment, JunkDatagramsAccountedAndSurvived) {
  NetOptions options;
  options.max_datagram = 1024;
  InProcessCluster c(4, 1, options);
  NetEnvironment& victim = *c.envs[0];
  UdpSocket attacker(SocketAddress::resolve("127.0.0.1", 0));
  const SocketAddress target = victim.local_address();
  const obs::Snapshot before = obs::registry().snapshot();

  ASSERT_TRUE(attacker.send_to(target, Bytes(2, 0xab)));  // no id prefix
  Writer out_of_range;
  out_of_range.u32(99);  // not a party
  ASSERT_TRUE(attacker.send_to(target, out_of_range.data()));
  Writer self_claim;
  self_claim.u32(0);  // claims to be the victim itself
  ASSERT_TRUE(attacker.send_to(target, self_claim.data()));
  Writer forged;
  forged.u32(2);  // valid prefix, garbage frame: reaches link 2 and dies
  forged.raw(Bytes(40, 0x5c));
  ASSERT_TRUE(attacker.send_to(target, forged.data()));
  ASSERT_TRUE(attacker.send_to(target, Bytes(2048, 0x01)));  // oversized

  ASSERT_TRUE(c.loop.run_until(
      [&] { return victim.stats().datagrams_received >= 5; }, 5000.0));
  EXPECT_EQ(victim.stats().drop_no_sender, 1u);
  EXPECT_EQ(victim.stats().drop_bad_sender, 2u);
  EXPECT_EQ(victim.stats().drop_oversized, 1u);

  // The same accounting must be observable through the public metrics
  // path (docs/OBSERVABILITY.md): the transport mirrors its drop buckets
  // into obs::registry() live.
  const obs::Snapshot after = obs::registry().snapshot();
  const int party = victim.self();
  EXPECT_EQ(snapshot_counter(after, "net.drop_no_sender", party) -
                snapshot_counter(before, "net.drop_no_sender", party),
            1u);
  EXPECT_EQ(snapshot_counter(after, "net.drop_bad_sender", party) -
                snapshot_counter(before, "net.drop_bad_sender", party),
            2u);
  EXPECT_EQ(snapshot_counter(after, "net.drop_oversized", party) -
                snapshot_counter(before, "net.drop_oversized", party),
            1u);
  EXPECT_GE(snapshot_counter(after, "net.datagrams_received", party) -
                snapshot_counter(before, "net.datagrams_received", party),
            5u);
  EXPECT_EQ(victim.link_stats(2).drop_malformed +
                victim.link_stats(2).drop_auth,
            1u);
  EXPECT_EQ(victim.link_stats(2).delivered, 0u);

  // The environment still works after the junk: broadcast goes through.
  std::vector<std::unique_ptr<core::ReliableBroadcast>> rbcs;
  for (auto& env : c.envs) {
    rbcs.push_back(std::make_unique<core::ReliableBroadcast>(
        *env, env->dispatcher(), "after.junk", 1));
  }
  rbcs[1]->send(to_bytes("still alive"));
  ASSERT_TRUE(c.loop.run_until(
      [&] { return rbcs[0]->delivered().has_value(); }, 60000.0));
  EXPECT_EQ(*rbcs[0]->delivered(), to_bytes("still alive"));
}

}  // namespace
}  // namespace sintra::net
