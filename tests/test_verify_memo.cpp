// Verify once per node (crypto/verify_memo.hpp): soundness of the memo
// of positive RSA verification results, its isolation between nodes, its
// bound, and the retirement of delivered rounds' agreements that keeps
// the faster channel from growing memory.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "bignum/montgomery.hpp"
#include "core/agreement/array_agreement.hpp"
#include "core/channel/atomic_channel.hpp"
#include "crypto/rsa.hpp"
#include "crypto/verify_memo.hpp"
#include "crypto/work_pool.hpp"
#include "obs/metrics.hpp"
#include "sim_fixture.hpp"

namespace sintra {
namespace {

using crypto::VerifyMemo;
using testing::Cluster;

std::uint64_t memo_hits(const char* op) {
  return obs::registry()
      .counter("crypto.verify_memo_hits", {{"op", op}})
      .value();
}

/// Work units spent by `fn` on the calling thread.
template <typename Fn>
std::uint64_t work_of(Fn&& fn) {
  const std::uint64_t before = bignum::work_counter();
  fn();
  return bignum::work_counter() - before;
}

Bytes flipped(Bytes b, std::size_t at) {
  b.at(at) ^= 0x01;
  return b;
}

TEST(VerifyMemo, FlippedSignatureByteRejectedAfterHit) {
  const crypto::Deal deal = testing::cached_deal(4, 1);
  const crypto::PartyKeys& keys = deal.parties[1];
  const Bytes msg = to_bytes("bundle statement");
  const Bytes sig = deal.parties[0].sign(msg);
  VerifyMemo memo;
  const VerifyMemo::Scope scope(&memo);
  ASSERT_TRUE(keys.verify_party_sig(0, msg, sig));
  const std::uint64_t hits = memo_hits("party_sig.verify");
  EXPECT_EQ(work_of([&] { EXPECT_TRUE(keys.verify_party_sig(0, msg, sig)); }),
            0u);
  EXPECT_EQ(memo_hits("party_sig.verify"), hits + 1);
  for (const std::size_t at : {std::size_t{0}, sig.size() / 2, sig.size() - 1}) {
    EXPECT_FALSE(keys.verify_party_sig(0, msg, flipped(sig, at))) << at;
  }
  EXPECT_FALSE(keys.verify_party_sig(0, flipped(msg, 3), sig));
}

TEST(VerifyMemo, HashKindAndSignerAreBoundAfterHit) {
  Rng rng(0x3e3);
  const crypto::RsaKeyPair key = crypto::rsa_generate(rng, 512);
  const crypto::RsaKeyPair other = crypto::rsa_generate(rng, 512);
  const crypto::RsaVerifier verifier(key.pub);
  const crypto::RsaVerifier other_verifier(other.pub);
  const Bytes msg = to_bytes("same bytes, other hash");
  const Bytes s1 = crypto::rsa_sign(key, msg, crypto::HashKind::kSha1);
  VerifyMemo memo;
  const VerifyMemo::Scope scope(&memo);
  ASSERT_TRUE(verifier.verify(msg, s1, crypto::HashKind::kSha1, "test.verify"));
  ASSERT_TRUE(verifier.verify(msg, s1, crypto::HashKind::kSha1, "test.verify"));
  EXPECT_FALSE(
      verifier.verify(msg, s1, crypto::HashKind::kSha256, "test.verify"));
  EXPECT_FALSE(
      other_verifier.verify(msg, s1, crypto::HashKind::kSha1, "test.verify"));

  // The same through the protocol entry point: party 0's signature,
  // verified (and memoized) as party 0's, is not party 1's.
  const crypto::Deal deal = testing::cached_deal(4, 1);
  const Bytes sig = deal.parties[0].sign(msg);
  ASSERT_TRUE(deal.parties[2].verify_party_sig(0, msg, sig));
  EXPECT_FALSE(deal.parties[2].verify_party_sig(1, msg, sig));
}

TEST(VerifyMemo, InvalidSignatureDoesFullWorkEveryTime) {
  const crypto::Deal deal = testing::cached_deal(4, 1);
  const crypto::PartyKeys& keys = deal.parties[1];
  const Bytes msg = to_bytes("forged statement");
  const Bytes bad = flipped(deal.parties[0].sign(msg), 5);
  VerifyMemo memo;
  const VerifyMemo::Scope scope(&memo);
  const std::uint64_t first =
      work_of([&] { EXPECT_FALSE(keys.verify_party_sig(0, msg, bad)); });
  const std::uint64_t second =
      work_of([&] { EXPECT_FALSE(keys.verify_party_sig(0, msg, bad)); });
  EXPECT_GT(first, 0u);
  EXPECT_EQ(second, first);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(VerifyMemo, MultiSigComponentsAreMemoizedOneByOne) {
  const crypto::Deal deal = testing::cached_deal(4, 1);
  const auto& scheme = *deal.parties[0].sig_agreement;
  const Bytes msg = to_bytes("justification");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < scheme.k(); ++i) {
    shares.emplace_back(i, deal.parties[static_cast<std::size_t>(i)]
                               .sig_agreement->sign_share(msg));
  }
  const Bytes sig = scheme.combine(msg, shares);
  VerifyMemo memo;
  const VerifyMemo::Scope scope(&memo);
  ASSERT_TRUE(scheme.verify(msg, sig));
  EXPECT_EQ(memo.size(), static_cast<std::size_t>(scheme.k()));
  EXPECT_EQ(work_of([&] { EXPECT_TRUE(scheme.verify(msg, sig)); }), 0u);
  // One corrupted component (the last byte of the encoding belongs to the
  // last signature) fails although every other component is a hit.
  EXPECT_FALSE(scheme.verify(msg, flipped(sig, sig.size() - 1)));
  // A share already seen inside a certificate is a hit on its own, too.
  EXPECT_EQ(work_of([&] {
              EXPECT_TRUE(scheme.verify_share(msg, 1, shares[1].second));
            }),
            0u);
}

TEST(VerifyMemo, BoundHoldsPastCapacity) {
  VerifyMemo memo;
  const std::size_t inserts = 3 * VerifyMemo::kGenerationCapacity + 5;
  auto digest = [](std::size_t i) {
    VerifyMemo::Digest d{};
    for (std::size_t b = 0; b < sizeof i; ++b) {
      d[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    return d;
  };
  for (std::size_t i = 0; i < inserts; ++i) {
    memo.insert(digest(i));
    ASSERT_LE(memo.size(), 2 * VerifyMemo::kGenerationCapacity);
  }
  EXPECT_TRUE(memo.contains(digest(inserts - 1)));
  EXPECT_FALSE(memo.contains(digest(0)));
}

TEST(VerifyMemo, EnvironmentsBuiltFromOneDealShareNoHits) {
  const crypto::Deal deal = testing::cached_deal(4, 1);
  const Bytes msg = to_bytes("seen by one cluster only");
  const Bytes sig = deal.parties[1].sign(msg);
  std::uint64_t work_a = 0, work_b = 0;

  // Two simulators (two clusters in one process), same party.
  sim::Simulator a(sim::uniform_setup(4, 30.0, 2.0, 0.0), deal, 1);
  sim::Simulator b(sim::uniform_setup(4, 30.0, 2.0, 0.0), deal, 1);
  a.at(0.0, 0, [&] {
    work_a = work_of(
        [&] { EXPECT_TRUE(a.node(0).keys().verify_party_sig(1, msg, sig)); });
  });
  a.run();
  b.at(0.0, 0, [&] {
    work_b = work_of(
        [&] { EXPECT_TRUE(b.node(0).keys().verify_party_sig(1, msg, sig)); });
  });
  b.run();
  EXPECT_GT(work_a, 0u);
  EXPECT_EQ(work_b, work_a);
  EXPECT_EQ(a.node(0).verify_memo().size(), 1u);
  EXPECT_EQ(b.node(0).verify_memo().size(), 1u);
  EXPECT_EQ(a.node(1).verify_memo().size(), 0u);
}

TEST(VerifyMemo, RestartedSimNodeStartsEmpty) {
  Cluster c(4, 1, 3);
  const Bytes msg = to_bytes("before the crash");
  const Bytes sig = c.deal.parties[2].sign(msg);
  c.sim.at(0.0, 0, [&] {
    EXPECT_TRUE(c.sim.node(0).keys().verify_party_sig(2, msg, sig));
  });
  c.sim.run();
  ASSERT_EQ(c.sim.node(0).verify_memo().size(), 1u);
  c.sim.restart_node(0);
  EXPECT_EQ(c.sim.node(0).verify_memo().size(), 0u);
  std::uint64_t work = 0;
  c.sim.at(c.sim.now_ms(), 0, [&] {
    work = work_of(
        [&] { EXPECT_TRUE(c.sim.node(0).keys().verify_party_sig(2, msg, sig)); });
  });
  c.sim.run();
  EXPECT_GT(work, 0u);
}

TEST(VerifyMemo, CryptoPoolJobsRunUnderTheSubmittersMemo) {
  const crypto::Deal deal = testing::cached_deal(4, 1);
  const Bytes msg = to_bytes("offloaded check");
  const Bytes sig = deal.parties[0].sign(msg);
  crypto::WorkPool pool(2);
  VerifyMemo memo;
  std::atomic<bool> work_ok{false};
  bool complete_ok = false;
  {
    const VerifyMemo::Scope scope(&memo);
    pool.submit(
        [&] {
          work_ok = VerifyMemo::current() == &memo &&
                    deal.parties[1].verify_party_sig(0, msg, sig);
        },
        [&] { complete_ok = VerifyMemo::current() == &memo; });
    std::vector<char> helpers_ok(4, 0);
    std::vector<std::function<void()>> jobs;
    for (std::size_t j = 0; j < helpers_ok.size(); ++j) {
      jobs.emplace_back(
          [&, j] { helpers_ok[j] = VerifyMemo::current() == &memo ? 1 : 0; });
    }
    pool.run_parallel(jobs);
    EXPECT_EQ(helpers_ok, std::vector<char>(4, 1));
  }
  // Completions are drained on this thread, outside the scope above.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.drain_completions() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(work_ok.load());
  EXPECT_TRUE(complete_ok);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(VerifyMemo::current(), nullptr);
}

// --- Byzantine replays against a warm memo -------------------------------

// The atomic channel's bundle statement and the consistent broadcast's
// echo statement, rebuilt here (kept in sync with atomic_channel.cpp and
// consistent_broadcast.cpp).  Each test first shows that the rebuilt
// honest statement is a memo *hit* at an honest node — so the node really
// verified that exact statement during the run and the corrupted replay
// below meets a warm memo.
Bytes bundle_statement(const std::string& pid, int round, int origin,
                       std::uint64_t seq, BytesView payload) {
  Writer w;
  w.str("ac-sign");
  w.str(pid);
  w.u32(static_cast<std::uint32_t>(round));
  w.u32(1);
  w.u32(static_cast<std::uint32_t>(origin));
  w.u64(seq);
  w.bytes(payload);
  return std::move(w).take();
}

Bytes echo_statement(const std::string& pid, BytesView payload) {
  Writer w;
  w.str("cb-echo");
  w.str(pid);
  w.bytes(crypto::Sha256::hash(payload));
  return std::move(w).take();
}

TEST(VerifyMemo, ByzantineBundleReplayWithCorruptedSignatureIsRejected) {
  Cluster c(4, 1, 11);
  const std::string pid = "memo.ac";
  auto chans = c.make_protocols<core::AtomicChannel>(
      [&](core::Environment& env, core::Dispatcher& disp, int) {
        return std::make_unique<core::AtomicChannel>(env, disp, pid);
      });
  sim::Adversary adv(c.sim, c.deal);
  adv.corrupt(3);
  c.sim.at(0.0, 0, [&] { chans[0]->send(to_bytes("m0")); });
  c.sim.at(0.0, 1, [&] { chans[1]->send(to_bytes("m1")); });

  // Party 0's round-1 bundle carries its one payload (marker byte 0).
  Bytes marked{0};
  const Bytes m0 = to_bytes("m0");
  marked.insert(marked.end(), m0.begin(), m0.end());
  const Bytes statement = bundle_statement(pid, 1, 0, 0, marked);
  const Bytes honest = c.deal.parties[0].sign(statement);

  // The corrupted party replays the honest bundle as its own, and again
  // with one signature byte flipped, while the round runs.
  auto signed_message = [&](int signer, const Bytes& sig) {
    Writer w;
    w.u8(1);  // kSignedTag
    w.u32(1);
    w.u32(static_cast<std::uint32_t>(signer));
    w.u32(1);
    w.u32(0);
    w.u64(0);
    w.bytes(marked);
    w.bytes(sig);
    return std::move(w).take();
  };
  for (const double at : {1.0, 5.0, 20.0}) {
    adv.send_as_all(3, pid, signed_message(3, honest), at);
    adv.send_as_all(3, pid, signed_message(3, flipped(honest, 7)), at);
  }

  ASSERT_TRUE(c.sim.run_until(
      [&] {
        for (int i = 0; i < 3; ++i) {
          if (chans[static_cast<std::size_t>(i)]->deliveries().size() < 2) {
            return false;
          }
        }
        return true;
      },
      600000));
  for (int i = 1; i < 3; ++i) {
    ASSERT_EQ(chans[static_cast<std::size_t>(i)]->deliveries().size(),
              chans[0]->deliveries().size());
    for (std::size_t d = 0; d < chans[0]->deliveries().size(); ++d) {
      EXPECT_EQ(chans[static_cast<std::size_t>(i)]->deliveries()[d].payload,
                chans[0]->deliveries()[d].payload);
    }
  }

  for (int p = 0; p < 3; ++p) {
    c.sim.at(c.sim.now_ms(), p, [&, p] {
      const crypto::PartyKeys& keys = c.sim.node(p).keys();
      const std::uint64_t hits = memo_hits("party_sig.verify");
      EXPECT_EQ(work_of([&] {
                  EXPECT_TRUE(keys.verify_party_sig(0, statement, honest));
                }),
                0u)
          << "party " << p << " never verified the honest bundle";
      EXPECT_EQ(memo_hits("party_sig.verify"), hits + 1);
      EXPECT_FALSE(keys.verify_party_sig(0, statement, flipped(honest, 7)));
      EXPECT_FALSE(keys.verify_party_sig(3, statement, honest));
    });
  }
  c.sim.run();
}

TEST(VerifyMemo, ByzantineClosingWithCorruptedComponentIsRejected) {
  Cluster c(4, 1, 12);
  const std::string pid = "memo.mvba";
  auto ps = c.make_protocols<core::ArrayAgreement>(
      [&](core::Environment& env, core::Dispatcher& disp, int) {
        return std::make_unique<core::ArrayAgreement>(
            env, disp, pid, [](BytesView v) { return !v.empty(); },
            core::ArrayAgreement::CandidateOrder::kFixed);
      });
  sim::Adversary adv(c.sim, c.deal);
  adv.corrupt(3);
  for (int i = 0; i < 3; ++i) {
    c.sim.at(0.0, i, [&, i] {
      ps[static_cast<std::size_t>(i)]->propose(
          to_bytes("v" + std::to_string(i)));
    });
  }

  // Party 0's honest closing (candidate of iteration 0 under the fixed
  // order), exactly as its consistent broadcast assembles it, and a copy
  // with one corrupted component.
  const std::string cb_pid = pid + ".cb.0";
  const Bytes v0 = to_bytes("v0");
  const Bytes statement = echo_statement(cb_pid, v0);
  const auto& scheme = *c.deal.parties[0].sig_broadcast;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < scheme.k(); ++i) {
    shares.emplace_back(i, c.deal.parties[static_cast<std::size_t>(i)]
                               .sig_broadcast->sign_share(statement));
  }
  const Bytes sig = scheme.combine(statement, shares);
  auto closing_of = [&](const Bytes& s) {
    Writer w;
    w.bytes(v0);
    w.bytes(s);
    return std::move(w).take();
  };
  const Bytes honest = closing_of(sig);
  const Bytes corrupted = closing_of(flipped(sig, sig.size() - 1));
  ASSERT_TRUE(core::VerifiableConsistentBroadcast::is_valid_closing(
      c.deal.parties[1], cb_pid, honest));

  // The corrupted party votes yes for party 0 with the corrupted closing,
  // repeatedly, before and after the honest closing circulates.
  Writer vote;
  vote.u8(1);  // kVoteTag
  vote.u32(0);
  vote.u8(1);
  vote.bytes(corrupted);
  for (const double at : {0.5, 5.0, 10.0, 20.0, 40.0}) {
    adv.send_as_all(3, pid, vote.data(), at);
  }

  ASSERT_TRUE(c.sim.run_until(
      [&] {
        for (int i = 0; i < 3; ++i) {
          if (!ps[static_cast<std::size_t>(i)]->decided()) return false;
        }
        return true;
      },
      600000));
  const std::string decided = to_string(*ps[0]->decided());
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(to_string(*ps[static_cast<std::size_t>(i)]->decided()), decided);
  }
  EXPECT_TRUE(decided == "v0" || decided == "v1" || decided == "v2")
      << decided;

  for (int p = 0; p < 3; ++p) {
    c.sim.at(c.sim.now_ms(), p, [&, p] {
      const crypto::PartyKeys& keys = c.sim.node(p).keys();
      EXPECT_EQ(work_of([&] {
                  EXPECT_TRUE(core::VerifiableConsistentBroadcast::
                                  is_valid_closing(keys, cb_pid, honest));
                }),
                0u)
          << "party " << p << " never verified the honest closing";
      EXPECT_FALSE(core::VerifiableConsistentBroadcast::is_valid_closing(
          keys, cb_pid, corrupted));
    });
  }
  c.sim.run();
}

// --- round retirement ----------------------------------------------------

TEST(RoundRetirement, RetainedAgreementsStayWithinPipelineDepth) {
  for (const int depth : {1, 3}) {
    Cluster c(4, 1, 20 + static_cast<std::uint64_t>(depth));
    core::AtomicChannel::Config cfg;
    cfg.max_batch_count = 2;
    cfg.pipeline_depth = depth;
    auto chans = c.make_protocols<core::AtomicChannel>(
        [&](core::Environment& env, core::Dispatcher& disp, int) {
          return std::make_unique<core::AtomicChannel>(env, disp, "memo.rr",
                                                       cfg);
        });
    std::size_t most = 0;
    for (auto& ch : chans) {
      ch->set_deliver_callback([&most, &ch](const Bytes&, core::PartyId) {
        most = std::max(most, ch->finished_agreements());
      });
    }
    constexpr int kPerParty = 30;
    for (int p = 0; p < 4; ++p) {
      for (int m = 0; m < kPerParty; ++m) {
        c.sim.at(0.2 * m, p, [&, p, m] {
          chans[static_cast<std::size_t>(p)]->send(
              to_bytes(std::to_string(p) + "." + std::to_string(m)));
        });
      }
    }
    ASSERT_TRUE(c.sim.run_until(
        [&] {
          for (const auto& ch : chans) {
            if (ch->deliveries().size() < 4 * kPerParty) return false;
          }
          return true;
        },
        4e6))
        << "depth " << depth;
    EXPECT_GE(chans[0]->rounds_completed(), 20) << "depth " << depth;
    EXPECT_LE(most, static_cast<std::size_t>(depth) + 1) << "depth " << depth;
    for (const auto& ch : chans) {
      EXPECT_LE(ch->finished_agreements(), static_cast<std::size_t>(depth));
    }
  }
}

// The dispatcher forgets the pids of freed rounds: its retired set holds
// only the rounds above the channel's floor however many rounds run, and
// a late frame for a long-finished round is dropped, not buffered.
TEST(RoundRetirement, RetiredPidsStayWithinPipelineDepth) {
  for (const int depth : {1, 3}) {
    Cluster c(4, 1, 30 + static_cast<std::uint64_t>(depth));
    core::AtomicChannel::Config cfg;
    cfg.pipeline_depth = depth;
    auto chans = c.make_protocols<core::AtomicChannel>(
        [&](core::Environment& env, core::Dispatcher& disp, int) {
          return std::make_unique<core::AtomicChannel>(env, disp, "memo.rp",
                                                       cfg);
        });
    std::size_t most = 0;
    for (int p = 0; p < 4; ++p) {
      core::Dispatcher& disp = c.sim.node(p).dispatcher();
      chans[static_cast<std::size_t>(p)]->set_deliver_callback(
          [&most, &disp](const Bytes&, core::PartyId) {
            most = std::max(most, disp.retired_count());
          });
    }
    constexpr int kPerParty = 40;
    for (int p = 0; p < 4; ++p) {
      for (int m = 0; m < kPerParty; ++m) {
        c.sim.at(0.2 * m, p, [&, p, m] {
          chans[static_cast<std::size_t>(p)]->send(
              to_bytes(std::to_string(p) + "." + std::to_string(m)));
        });
      }
    }
    ASSERT_TRUE(c.sim.run_until(
        [&] {
          for (const auto& ch : chans) {
            if (ch->deliveries().size() < 4 * kPerParty) return false;
          }
          return true;
        },
        4e6))
        << "depth " << depth;
    const int rounds = chans[0]->rounds_completed();
    EXPECT_GE(rounds, 40) << "depth " << depth;
    for (int p = 0; p < 4; ++p) {
      most = std::max(most, c.sim.node(p).dispatcher().retired_count());
    }

    // A round's agreement retires its own pid, one consistent broadcast
    // per party and the pids of its agreement iterations.
    constexpr std::size_t kPidsPerRound = 16;
    EXPECT_LE(most, (static_cast<std::size_t>(depth) + 2) * kPidsPerRound)
        << "depth " << depth << " after " << rounds << " rounds";

    core::Dispatcher& disp = c.sim.node(0).dispatcher();
    disp.on_message(1, core::frame_message("memo.rp.r2.vba.9.late",
                                           to_bytes("late")));
    disp.on_message(1, core::frame_message("memo.rp.r3", to_bytes("late")));
    EXPECT_EQ(disp.buffered_count(), 0u) << "depth " << depth;
  }
}

// A party that catches up on traffic it buffered while behind can decide
// a round inside the delivery of the round before it: the flush opens the
// next round, whose agreement replays its buffered messages on
// registration and decides at once.  Deliveries then nest, and retiring
// from a nested delivery would free an agreement whose decide callback is
// still running (run under ASan to see that).  The links are FIFO, so the
// test records what a party that never took part received, then replays
// it into a fresh party with the first round's agreement traffic last.
TEST(RoundRetirement, LaggingPartyCatchesUpThroughNestedDeliveries) {
  for (const int depth : {1, 3}) {
    core::AtomicChannel::Config cfg;
    cfg.max_batch_count = 2;
    cfg.pipeline_depth = depth;
    const std::string pid = "memo.lag";
    struct Frame {
      std::string pid;
      core::PartyId from;
      Bytes payload;
    };
    std::vector<Frame> frames;
    constexpr int kPerParty = 20;
    std::vector<Bytes> order;

    {  // Parties 0-2 run the channel; party 3 only records.
      Cluster c(4, 1, 40 + static_cast<std::uint64_t>(depth));
      std::vector<std::string> pids{pid};
      for (int r = 1; r <= 4 * kPerParty; ++r) {
        const std::string round = pid + ".r" + std::to_string(r);
        pids.push_back(round);
        for (int j = 0; j < 4; ++j) {
          pids.push_back(round + ".cb." + std::to_string(j));
        }
        for (int i = 0; i < 8; ++i) {
          pids.push_back(round + ".vba." + std::to_string(i));
        }
      }
      for (const std::string& p : pids) {
        c.sim.node(3).dispatcher().register_pid(
            p, [&frames, p](core::PartyId from, BytesView payload) {
              frames.push_back(
                  Frame{p, from, Bytes(payload.begin(), payload.end())});
            });
      }
      std::vector<std::unique_ptr<core::AtomicChannel>> chans;
      for (int p = 0; p < 3; ++p) {
        chans.push_back(std::make_unique<core::AtomicChannel>(
            c.sim.node(p), c.sim.node(p).dispatcher(), pid, cfg));
        for (int m = 0; m < kPerParty; ++m) {
          c.sim.at(2.0 * m, p, [&, p, m] {
            chans[static_cast<std::size_t>(p)]->send(
                to_bytes(std::to_string(p) + "." + std::to_string(m)));
          });
        }
      }
      ASSERT_TRUE(c.sim.run_until(
          [&] {
            for (const auto& ch : chans) {
              if (ch->deliveries().size() < 3 * kPerParty) return false;
            }
            return true;
          },
          4e6))
          << "depth " << depth;
      ASSERT_GE(chans[0]->rounds_completed(), depth + 3) << "depth " << depth;
      for (const auto& d : chans[0]->deliveries()) order.push_back(d.payload);
    }

    // A fresh party 3 alone (the others' traffic is replayed) receives
    // every frame at once, the first round's agreement traffic last.
    Cluster c(4, 1, 40 + static_cast<std::uint64_t>(depth));
    for (int p = 0; p < 3; ++p) c.sim.node(p).crash();
    core::AtomicChannel lagging(c.sim.node(3), c.sim.node(3).dispatcher(),
                                pid, cfg);
    sim::Adversary replay(c.sim, c.deal);
    const auto first_round = [&](const std::string& p) {
      return p == pid + ".r1" || p.starts_with(pid + ".r1.");
    };
    for (const bool last : {false, true}) {
      for (const Frame& f : frames) {
        if (first_round(f.pid) == last) {
          replay.send_as(f.from, 3, f.pid, f.payload, 1.0);
        }
      }
    }
    ASSERT_TRUE(c.sim.run_until(
        [&] { return lagging.deliveries().size() == order.size(); }, 4e6))
        << "depth " << depth;
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(lagging.deliveries()[i].payload, order[i])
          << "depth " << depth << " delivery " << i;
      // Every round was delivered inside the one handler that decided
      // round 1, i.e. through nested deliveries.
      EXPECT_EQ(lagging.deliveries()[i].time_ms,
                lagging.deliveries()[0].time_ms)
          << "depth " << depth << " delivery " << i;
    }
  }
}

}  // namespace
}  // namespace sintra
