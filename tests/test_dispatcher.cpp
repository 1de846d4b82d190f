#include <gtest/gtest.h>

#include "core/dispatcher.hpp"

namespace sintra::core {
namespace {

TEST(Dispatcher, RoutesToRegisteredHandler) {
  Dispatcher d;
  std::vector<std::pair<PartyId, std::string>> got;
  d.register_pid("p1", [&](PartyId from, BytesView payload) {
    got.emplace_back(from, to_string(payload));
  });
  d.on_message(2, frame_message("p1", to_bytes("hello")));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 2);
  EXPECT_EQ(got[0].second, "hello");
}

TEST(Dispatcher, BuffersEarlyMessagesAndReplaysInOrder) {
  Dispatcher d;
  d.on_message(0, frame_message("late", to_bytes("a")));
  d.on_message(1, frame_message("late", to_bytes("b")));
  EXPECT_EQ(d.buffered_count(), 2u);
  std::vector<std::string> got;
  d.register_pid("late", [&](PartyId, BytesView p) {
    got.push_back(to_string(p));
  });
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(d.buffered_count(), 0u);
}

TEST(Dispatcher, SeparatePidsDoNotInterfere) {
  Dispatcher d;
  int c1 = 0, c2 = 0;
  d.register_pid("a", [&](PartyId, BytesView) { ++c1; });
  d.register_pid("b", [&](PartyId, BytesView) { ++c2; });
  d.on_message(0, frame_message("a", {}));
  d.on_message(0, frame_message("b", {}));
  d.on_message(0, frame_message("b", {}));
  EXPECT_EQ(c1, 1);
  EXPECT_EQ(c2, 2);
}

TEST(Dispatcher, DuplicateRegistrationThrows) {
  Dispatcher d;
  d.register_pid("x", [](PartyId, BytesView) {});
  EXPECT_THROW(d.register_pid("x", [](PartyId, BytesView) {}),
               std::logic_error);
}

TEST(Dispatcher, UnregisteredRetiredPidDropsMessages) {
  Dispatcher d;
  d.register_pid("x", [](PartyId, BytesView) {});
  d.unregister_pid("x");
  d.on_message(0, frame_message("x", to_bytes("dropped")));
  EXPECT_EQ(d.buffered_count(), 0u);
  // Re-registration is allowed and starts clean.
  int count = 0;
  d.register_pid("x", [&](PartyId, BytesView) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(Dispatcher, RoundFloorForgetsAndDropsFinishedRounds) {
  Dispatcher d;
  for (const char* pid : {"ch.r1", "ch.r1.cb.0", "ch.r2", "ch.r10"}) {
    d.register_pid(pid, [](PartyId, BytesView) {});
    d.unregister_pid(pid);
  }
  d.register_pid("other", [](PartyId, BytesView) {});
  d.unregister_pid("other");
  d.on_message(0, frame_message("ch.r2.vba.1", to_bytes("early")));
  d.on_message(0, frame_message("ch.r5.vba.1", to_bytes("early")));
  EXPECT_EQ(d.retired_count(), 5u);
  EXPECT_EQ(d.buffered_count(), 2u);

  // Rounds 1 and 2 are freed: their retired pids and buffered frames go.
  d.retire_rounds_below("ch.r", 3);
  EXPECT_EQ(d.retired_count(), 2u);  // ch.r10, other
  EXPECT_EQ(d.buffered_count(), 1u);  // ch.r5.vba.1

  // Late frames for rounds below the floor are dropped, not buffered; the
  // floor never lowers, and pids that only share the prefix still buffer.
  d.on_message(0, frame_message("ch.r1.cb.3", to_bytes("late")));
  d.on_message(0, frame_message("ch.r2", to_bytes("late")));
  d.retire_rounds_below("ch.r", 1);
  d.on_message(0, frame_message("ch.r0", to_bytes("late")));
  EXPECT_EQ(d.buffered_count(), 1u);
  d.on_message(0, frame_message("ch.r3", to_bytes("early")));
  d.on_message(0, frame_message("ch.rx", to_bytes("early")));
  d.on_message(0, frame_message("ch.r1x", to_bytes("early")));
  EXPECT_EQ(d.buffered_count(), 4u);

  // Registered pids route as before, floor or not.
  int count = 0;
  d.register_pid("ch.r1.cb.3", [&](PartyId, BytesView) { ++count; });
  d.on_message(0, frame_message("ch.r1.cb.3", to_bytes("routed")));
  EXPECT_EQ(count, 1);
}

TEST(Dispatcher, MalformedFramesDropped) {
  Dispatcher d;
  int count = 0;
  d.register_pid("x", [&](PartyId, BytesView) { ++count; });
  d.on_message(0, Bytes{0x01});  // truncated frame
  d.on_message(0, Bytes{});
  EXPECT_EQ(count, 0);
}

TEST(Dispatcher, HandlerCanUnregisterDuringReplay) {
  Dispatcher d;
  d.on_message(0, frame_message("p", to_bytes("1")));
  d.on_message(0, frame_message("p", to_bytes("2")));
  int seen = 0;
  d.register_pid("p", [&](PartyId, BytesView) {
    ++seen;
    d.unregister_pid("p");  // one-shot protocol terminates
  });
  EXPECT_EQ(seen, 1);  // second buffered message must not be delivered
}

TEST(Dispatcher, ByzantinePidsDoNotGrowLayerMetrics) {
  // Per-layer registry entries derive from the attacker-controlled pid;
  // distinct non-numeric pids must all collapse into one "unrouted"
  // layer instead of registering unbounded metrics.
  Dispatcher d;
  d.attach_obs(93, [] { return 0.0; });
  const auto layer_entries = [] {
    std::size_t n = 0;
    for (const auto& c : obs::registry().snapshot().counters) {
      if (c.name != "dispatcher.messages") continue;
      for (const auto& [k, v] : c.labels) {
        if (k == "party" && v == "93") ++n;
      }
    }
    return n;
  };
  d.on_message(0, frame_message("junk.seed", to_bytes("x")));
  const std::size_t base = layer_entries();
  for (int i = 0; i < 300; ++i) {
    const std::string pid = std::string("junk.") +
                            static_cast<char>('a' + i % 26) +
                            static_cast<char>('a' + i / 26);
    d.on_message(0, frame_message(pid, to_bytes("x")));
  }
  EXPECT_EQ(layer_entries(), base);

  // A registered pid still gets its own layer entry.
  d.register_pid("real.7", [](PartyId, BytesView) {});
  d.on_message(0, frame_message("real.7", to_bytes("x")));
  EXPECT_EQ(layer_entries(), base + 1);
}

TEST(Dispatcher, FloodingGuardCapsBuffer) {
  Dispatcher d;
  const Bytes frame = frame_message("never-registered", to_bytes("x"));
  for (std::size_t i = 0; i < Dispatcher::kMaxBuffered + 10; ++i) {
    d.on_message(0, frame);
  }
  EXPECT_EQ(d.buffered_count(), Dispatcher::kMaxBuffered);
}

}  // namespace
}  // namespace sintra::core
