// Client service layer (DESIGN.md §12): wire authentication, the
// gateway's admission/dedup/backpressure pipeline, the client library's
// t+1 reply quorums with a Byzantine replica in the group, and
// deterministic sim-mode replay.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/gateway.hpp"
#include "client/keys.hpp"
#include "client/service_client.hpp"
#include "client/sim_net.hpp"
#include "client/wire.hpp"
#include "core/channel/atomic_channel.hpp"
#include "sim_fixture.hpp"

namespace sintra::client {
namespace {

using core::AtomicChannel;
using testing::Cluster;

// ---------------------------------------------------------------------------
// Wire format

TEST(ClientWire, RequestRoundTripAndAuthentication) {
  const Bytes key = to_bytes("k0"), wrong = to_bytes("k1");
  RequestFrame f;
  f.client_id = 7;
  f.seq = 42;
  f.payload = to_bytes("hello");
  const Bytes dgram = encode_request(f, key);

  EXPECT_EQ(peek_type(dgram), FrameType::kRequest);
  EXPECT_EQ(peek_client_id(dgram), 7u);

  const auto back = decode_request(dgram, key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->client_id, 7u);
  EXPECT_EQ(back->seq, 42u);
  EXPECT_EQ(back->payload, f.payload);

  EXPECT_FALSE(decode_request(dgram, wrong).has_value());
  Bytes flipped = dgram;
  flipped[10] ^= 0x01;
  EXPECT_FALSE(decode_request(flipped, key).has_value());
  Bytes truncated(dgram.begin(), dgram.begin() + 9);
  EXPECT_FALSE(decode_request(truncated, key).has_value());
  EXPECT_FALSE(peek_type(to_bytes("xy")).has_value());
}

TEST(ClientWire, ReplyRoundTripAndChannelWrap) {
  const Bytes key = to_bytes("kr");
  ReplyFrame r;
  r.client_id = 3;
  r.seq = 9;
  r.replica = 2;
  r.status = Status::kOk;
  r.global_seq = 1234;
  r.result = to_bytes("ok:1234");
  const Bytes dgram = encode_reply(r, key);
  EXPECT_EQ(peek_type(dgram), FrameType::kReply);
  const auto back = decode_reply(dgram, key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->replica, 2u);
  EXPECT_EQ(back->global_seq, 1234u);
  EXPECT_EQ(back->result, r.result);
  Bytes mangled = dgram;
  mangled.back() ^= 0xFF;
  EXPECT_FALSE(decode_reply(mangled, key).has_value());

  WrappedRequest w;
  w.client_id = 3;
  w.seq = 9;
  w.payload = to_bytes("pay");
  w.mac = request_mac(3, 9, w.payload, key);
  const auto un = unwrap_request(wrap_request(w));
  ASSERT_TRUE(un.has_value());
  EXPECT_EQ(un->seq, 9u);
  EXPECT_EQ(un->mac, w.mac);
  // A raw (pre-client-layer) payload is not a client envelope.
  EXPECT_FALSE(unwrap_request(to_bytes("raw payload")).has_value());
}

TEST(ClientKeys, DeriveAndFileRoundTrip) {
  KeyTable table = make_key_table(100, 7);
  EXPECT_NE(table.key(0), table.key(1));
  EXPECT_TRUE(table.known(99));
  EXPECT_FALSE(table.known(100));
  const std::string path = ::testing::TempDir() + "/clients.keys";
  write_key_file(path, table);
  const KeyTable back = read_key_file(path);
  EXPECT_EQ(back.count, table.count);
  EXPECT_EQ(back.key(17), table.key(17));
}

// ---------------------------------------------------------------------------
// Gateway pipeline, driven directly with stub hooks.

struct GatewayHarness {
  KeyTable table = make_key_table(64, 3);
  double now_ms = 0.0;
  std::vector<Bytes> submitted;              // wrapped channel payloads
  std::map<std::string, std::vector<Bytes>> replies;  // addr -> datagrams
  std::unique_ptr<ClientGateway> gw;

  explicit GatewayHarness(ClientGateway::Options opts = {}) {
    gw = std::make_unique<ClientGateway>(opts, [this] { return now_ms; });
    gw->set_key_table(table);
    gw->set_submit([this](Bytes w) {
      submitted.push_back(std::move(w));
      return true;
    });
    gw->set_reply([this](const ClientGateway::Address& a, Bytes d) {
      replies[a].push_back(std::move(d));
    });
  }

  Bytes request(std::uint32_t id, std::uint64_t seq,
                const std::string& payload) {
    RequestFrame f;
    f.client_id = id;
    f.seq = seq;
    f.payload = to_bytes(payload);
    return encode_request(f, table.key(id));
  }

  /// Delivers everything submitted so far (in order) back to the
  /// gateway, as the atomic channel would.
  void deliver_submitted() {
    std::vector<Bytes> batch;
    batch.swap(submitted);
    for (const Bytes& b : batch) gw->on_delivered(b);
  }

  std::optional<ReplyFrame> last_reply(std::uint32_t id,
                                       const std::string& addr) {
    auto it = replies.find(addr);
    if (it == replies.end() || it->second.empty()) return std::nullopt;
    return decode_reply(it->second.back(), table.key(id));
  }
};

TEST(ClientGateway, RejectsBadMacForgedIdAndMalformed) {
  GatewayHarness h;
  // MAC computed with the wrong client's key.
  RequestFrame f;
  f.client_id = 1;
  f.seq = 1;
  f.payload = to_bytes("x");
  h.gw->on_request_datagram(encode_request(f, h.table.key(2)), "a1");
  // Unknown (unregistered) client id.
  KeyTable big = make_key_table(1000, 3);
  RequestFrame g;
  g.client_id = 999;
  g.seq = 1;
  g.payload = to_bytes("y");
  h.gw->on_request_datagram(encode_request(g, big.key(999)), "a2");
  // Not even a frame.
  h.gw->on_request_datagram(to_bytes("garbage"), "a3");

  EXPECT_TRUE(h.submitted.empty());
  // No reply to unauthenticated traffic (no amplification surface).
  EXPECT_TRUE(h.replies.empty());
}

TEST(ClientGateway, AdmitExecuteReplyThenDedupReplay) {
  GatewayHarness h;
  const Bytes req = h.request(5, 1, "add 1");
  h.gw->on_request_datagram(req, "addr5");
  ASSERT_EQ(h.submitted.size(), 1u);
  EXPECT_EQ(h.gw->pending_depth(), 1u);

  h.deliver_submitted();
  EXPECT_EQ(h.gw->pending_depth(), 0u);
  auto reply = h.last_reply(5, "addr5");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOk);
  EXPECT_EQ(reply->global_seq, 0u);
  EXPECT_EQ(to_string(reply->result), "ok:0");

  // Byte-identical replay: answered from the reply cache, not re-run.
  h.gw->on_request_datagram(req, "addr5");
  EXPECT_TRUE(h.submitted.empty());
  ASSERT_EQ(h.replies["addr5"].size(), 2u);
  EXPECT_EQ(h.replies["addr5"][0], h.replies["addr5"][1]);
  EXPECT_EQ(h.gw->executed_count(), 1u);
}

TEST(ClientGateway, RetransmitAfterPeerProposedExecutionGetsCachedOk) {
  // The request reached replica A only; replica B executes it from A's
  // proposal before it ever hears from the client, so it has no address
  // to reply to.  The client's retransmit to B must still get kOk with
  // the same global_seq from B's reply cache, not kStale.
  GatewayHarness a;
  GatewayHarness b;
  const Bytes req = a.request(6, 1, "add 6");
  a.gw->on_request_datagram(req, "addr6");
  ASSERT_EQ(a.submitted.size(), 1u);
  const Bytes proposal = a.submitted.front();
  a.deliver_submitted();
  const auto a_reply = a.last_reply(6, "addr6");
  ASSERT_TRUE(a_reply.has_value());
  ASSERT_EQ(a_reply->status, Status::kOk);

  ASSERT_TRUE(b.gw->on_delivered(proposal).has_value());
  EXPECT_TRUE(b.replies.empty());  // address unknown: nothing sent yet

  b.gw->on_request_datagram(req, "addr6");
  EXPECT_TRUE(b.submitted.empty());  // answered, not re-proposed
  const auto b_reply = b.last_reply(6, "addr6");
  ASSERT_TRUE(b_reply.has_value());
  EXPECT_EQ(b_reply->status, Status::kOk);
  EXPECT_EQ(b_reply->global_seq, a_reply->global_seq);
  EXPECT_EQ(b.gw->executed_count(), 1u);
}

TEST(ClientGateway, StaleSeqAfterCacheEviction) {
  ClientGateway::Options opts;
  opts.reply_cache = 1;
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(4, 1, "a"), "x");
  h.deliver_submitted();
  h.gw->on_request_datagram(h.request(4, 2, "b"), "x");
  h.deliver_submitted();  // seq 2's reply evicts seq 1's from the cache
  h.gw->on_request_datagram(h.request(4, 1, "a"), "x");
  auto reply = h.last_reply(4, "x");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kStale);
  EXPECT_EQ(h.gw->executed_count(), 2u);  // never re-executed
}

TEST(ClientGateway, RateLimitShedsWithOverloadedReply) {
  ClientGateway::Options opts;
  opts.global_rate_per_sec = 1.0;
  opts.global_burst = 2.0;
  opts.rate_per_sec = 1000.0;  // per-client bucket out of the way
  opts.burst = 1000.0;
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(1, 1, "a"), "a1");
  h.gw->on_request_datagram(h.request(2, 1, "b"), "a2");
  h.gw->on_request_datagram(h.request(3, 1, "c"), "a3");  // bucket empty
  EXPECT_EQ(h.submitted.size(), 2u);
  auto reply = h.last_reply(3, "a3");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOverloaded);

  // Virtual time refills the bucket: same client admitted later.
  h.now_ms += 2000.0;
  h.gw->on_request_datagram(h.request(3, 1, "c"), "a3");
  EXPECT_EQ(h.submitted.size(), 3u);
}

TEST(ClientGateway, PerClientBucketIsIndependent) {
  ClientGateway::Options opts;
  opts.rate_per_sec = 1.0;
  opts.burst = 1.0;
  GatewayHarness h(opts);
  // Client 1 exhausts its own bucket (deliver in between so dedup/one-
  // outstanding doesn't mask the rate limit)...
  h.gw->on_request_datagram(h.request(1, 1, "a"), "a1");
  h.deliver_submitted();
  h.gw->on_request_datagram(h.request(1, 2, "b"), "a1");
  auto reply = h.last_reply(1, "a1");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kOverloaded);
  // ...client 2 is unaffected.
  h.gw->on_request_datagram(h.request(2, 1, "c"), "a2");
  EXPECT_EQ(h.submitted.size(), 1u);
}

TEST(ClientGateway, BackpressureUnderFullPipelineWindow) {
  ClientGateway::Options opts;
  opts.max_pending = 2;
  opts.retry_hint_ms = 75;
  GatewayHarness h(opts);
  h.gw->on_request_datagram(h.request(1, 1, "a"), "a1");
  h.gw->on_request_datagram(h.request(2, 1, "b"), "a2");
  h.gw->on_request_datagram(h.request(3, 1, "c"), "a3");  // window full
  EXPECT_EQ(h.submitted.size(), 2u);
  auto reply = h.last_reply(3, "a3");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kRetryLater);
  EXPECT_EQ(reply->retry_ms, 75u);

  // Deliveries drain the window; the retry is admitted.
  h.deliver_submitted();
  h.gw->on_request_datagram(h.request(3, 1, "c"), "a3");
  EXPECT_EQ(h.submitted.size(), 1u);
}

TEST(ClientGateway, ByzantineProposalRejectedAtDelivery) {
  GatewayHarness h;
  // A corrupted replica proposes a fabricated entry for a registered
  // client: the delivery-time MAC re-check must skip it on every
  // correct replica.
  WrappedRequest forged;
  forged.client_id = 6;
  forged.seq = 1;
  forged.payload = to_bytes("evil");
  forged.mac = to_bytes("not-a-mac");
  EXPECT_FALSE(h.gw->on_delivered(wrap_request(forged)).has_value());
  // Same for an unregistered id.
  forged.client_id = 5000;
  EXPECT_FALSE(h.gw->on_delivered(wrap_request(forged)).has_value());
  EXPECT_EQ(h.gw->executed_count(), 0u);
}

TEST(ClientGateway, OutOfOrderDeliveryExecutesOnceEach) {
  GatewayHarness h;
  // Different replicas proposed different seqs of client 2; the order
  // delivered 2 before 1, and 2 again (two proposers raced).
  auto wrapped = [&](std::uint64_t seq) {
    WrappedRequest w;
    w.client_id = 2;
    w.seq = seq;
    w.payload = to_bytes("p" + std::to_string(seq));
    w.mac = request_mac(2, seq, w.payload, h.table.key(2));
    return wrap_request(w);
  };
  EXPECT_TRUE(h.gw->on_delivered(wrapped(2)).has_value());
  EXPECT_FALSE(h.gw->on_delivered(wrapped(2)).has_value());  // duplicate
  EXPECT_TRUE(h.gw->on_delivered(wrapped(1)).has_value());
  EXPECT_FALSE(h.gw->on_delivered(wrapped(1)).has_value());
  EXPECT_EQ(h.gw->executed_count(), 2u);
}

TEST(ClientGateway, LocalSubmissionsShareTheDedupPolicy) {
  GatewayHarness h;
  h.gw->submit_local(to_bytes("local-0"));
  ASSERT_EQ(h.submitted.size(), 1u);
  const Bytes wrapped = h.submitted[0];
  const auto w = unwrap_request(wrapped);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(is_local_client(w->client_id));

  auto ex = h.gw->on_delivered(wrapped);
  ASSERT_TRUE(ex.has_value());
  EXPECT_TRUE(ex->local);
  EXPECT_EQ(to_string(ex->payload), "local-0");
  // The same wrapped entry delivered again (two replicas proposed
  // something identical-looking) is dropped by the same dedup map.
  EXPECT_FALSE(h.gw->on_delivered(wrapped).has_value());
  // No reply machinery fires for local pseudo-clients.
  EXPECT_TRUE(h.replies.empty());
}

TEST(ClientGateway, LocalQueueDrainsAsWindowFrees) {
  ClientGateway::Options opts;
  opts.max_pending = 2;
  GatewayHarness h(opts);
  for (int i = 0; i < 5; ++i) {
    h.gw->submit_local(to_bytes("m" + std::to_string(i)));
  }
  EXPECT_EQ(h.submitted.size(), 2u);
  EXPECT_FALSE(h.gw->local_queue_empty());
  h.deliver_submitted();
  EXPECT_EQ(h.submitted.size(), 2u);  // two more entered the window
  h.deliver_submitted();
  h.deliver_submitted();
  EXPECT_TRUE(h.gw->local_queue_empty());
  EXPECT_EQ(h.gw->executed_count(), 5u);
}

// ---------------------------------------------------------------------------
// End-to-end in the simulator: gateways on a real atomic channel, real
// quorum-collecting clients, one Byzantine replica mangling replies.

struct SimScenario {
  static constexpr int kClients = 6;
  static constexpr int kRequests = 2;

  Cluster cluster;
  KeyTable table = make_key_table(kClients, 11);
  SimClientNet net;
  std::vector<std::unique_ptr<AtomicChannel>> channels;
  std::vector<std::unique_ptr<ClientGateway>> gateways;
  std::vector<std::unique_ptr<ReplicatedServiceClient>> clients;
  std::vector<std::vector<std::string>> executed;  // per replica
  std::vector<std::vector<std::string>> outcomes;  // per client
  int done = 0;

  explicit SimScenario(std::uint64_t seed, std::uint64_t client_seed,
                       int byzantine = -1)
      : cluster(4, 1, seed),
        net(cluster.sim, [client_seed] {
          SimClientNet::Options o;
          o.latency_ms = 1.5;
          o.jitter_ms = 1.0;
          o.loss = 0.05;
          o.seed = client_seed;
          return o;
        }()) {
    executed.resize(4);
    channels = cluster.make_protocols<AtomicChannel>(
        [&](core::Environment& env, core::Dispatcher& disp, int) {
          AtomicChannel::Config cfg;
          cfg.max_batch_count = 4;
          cfg.pipeline_depth = 2;
          return std::make_unique<AtomicChannel>(env, disp, "cluster.client",
                                                 cfg);
        });
    for (int i = 0; i < 4; ++i) {
      ClientGateway::Options gopts;
      gopts.replica = static_cast<std::uint32_t>(i);
      gopts.n = 4;
      gopts.t = 1;
      gopts.rate_per_sec = 1000.0;
      gopts.burst = 1000.0;
      gateways.push_back(std::make_unique<ClientGateway>(
          gopts, [this] { return cluster.sim.now_ms(); }));
      auto& gw = *gateways.back();
      gw.set_key_table(table);
      gw.set_submit([this, i](Bytes wrapped) {
        if (!channels[static_cast<std::size_t>(i)]->can_send()) return false;
        channels[static_cast<std::size_t>(i)]->send(wrapped);
        return true;
      });
      gw.set_reply(net.attach_gateway(i, gw));
      if (i == byzantine) {
        // This replica's replies are corrupted in flight: clients must
        // still assemble t+1 matching quorums from the honest three.
        gw.set_reply_mangler([](Bytes d) {
          if (!d.empty()) d[d.size() / 2] ^= 0xA5;
          return d;
        });
      }
      channels[static_cast<std::size_t>(i)]->set_deliver_callback(
          [this, i](const Bytes& payload, core::PartyId) {
            if (auto ex =
                    gateways[static_cast<std::size_t>(i)]->on_delivered(
                        payload)) {
              executed[static_cast<std::size_t>(i)].push_back(
                  std::to_string(ex->client_id) + ":" +
                  to_string(ex->payload));
            }
            while (channels[static_cast<std::size_t>(i)]->receive()) {
            }
          });
    }
    outcomes.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      const auto id = static_cast<std::uint32_t>(c);
      ReplicatedServiceClient::Options copts;
      copts.client_id = id;
      copts.key = table.key(id);
      copts.n = 4;
      copts.t = 1;
      copts.rto_ms = 400.0;
      copts.max_attempts = 20;
      clients.push_back(std::make_unique<ReplicatedServiceClient>(
          copts, net.client_hooks(id)));
      net.register_client(id, [this, c](BytesView d) {
        clients[static_cast<std::size_t>(c)]->on_datagram(d);
      });
    }
  }

  void start() {
    for (int c = 0; c < kClients; ++c) {
      for (int k = 0; k < kRequests; ++k) {
        submit(c, k);
      }
    }
  }

  void submit(int c, int k) {
    clients[static_cast<std::size_t>(c)]->submit(
        to_bytes("c" + std::to_string(c) + ":req" + std::to_string(k)),
        [this, c](ReplicatedServiceClient::Outcome o) {
          outcomes[static_cast<std::size_t>(c)].push_back(
              (o.ok ? "ok@" + std::to_string(o.global_seq) + ":" +
                          to_string(o.result)
                    : std::string("fail")));
          ++done;
        });
  }

  bool run() {
    cluster.sim.post(0.0, [this] { start(); });
    return cluster.sim.run_until(
        [this] { return done >= kClients * kRequests; }, 4e6);
  }
};

TEST(ClientServiceE2E, QuorumAssemblyWithByzantineReplica) {
  SimScenario s(/*seed=*/1, /*client_seed=*/21, /*byzantine=*/3);
  ASSERT_TRUE(s.run());
  for (int c = 0; c < SimScenario::kClients; ++c) {
    ASSERT_EQ(s.outcomes[static_cast<std::size_t>(c)].size(),
              static_cast<std::size_t>(SimScenario::kRequests));
    for (const auto& o : s.outcomes[static_cast<std::size_t>(c)]) {
      EXPECT_TRUE(o.rfind("ok@", 0) == 0) << "client " << c << ": " << o;
    }
  }
  // Every replica executed the identical sequence (the quorum argument's
  // premise), and each request exactly once.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(s.executed[static_cast<std::size_t>(i)], s.executed[0]);
  }
  EXPECT_EQ(s.executed[0].size(),
            static_cast<std::size_t>(SimScenario::kClients *
                                     SimScenario::kRequests));
}

TEST(ClientServiceE2E, DeterministicReplayAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    SimScenario a(seed, 100 + seed);
    SimScenario b(seed, 100 + seed);
    ASSERT_TRUE(a.run());
    ASSERT_TRUE(b.run());
    // Same seeds -> bit-identical execution sequences and outcomes.
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.outcomes, b.outcomes);
  }
}

}  // namespace
}  // namespace sintra::client
