// Observability-layer tests: registry handle semantics, log-bucketed
// histogram edges, snapshot JSON round-trips, concurrent updates, and the
// typed event trace.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace sintra::obs {
namespace {

TEST(MetricsRegistry, SameNameAndLabelsYieldSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.messages", {{"party", "0"}});
  Counter& b = reg.counter("x.messages", {{"party", "0"}});
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, LabelOrderIsInsensitive) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x", {{"party", "1"}, {"layer", "ac"}});
  Counter& b = reg.counter("x", {{"layer", "ac"}, {"party", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, DistinctLabelsAreDistinctInstances) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x", {{"party", "0"}});
  Counter& b = reg.counter("x", {{"party", "1"}});
  Counter& c = reg.counter("y", {{"party", "0"}});
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc();
  EXPECT_EQ(b.value(), 0u);
}

TEST(MetricsRegistry, GaugeIsLastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("rtt", party_labels(2));
  g.set(12.5);
  g.set(3.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.25);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.inc(7);
  g.set(1.0);
  h.observe(5.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // the handle still works after reset
  EXPECT_EQ(c.value(), 1u);
}

TEST(Histogram, BucketEdges) {
  // Bucket i counts v with 1000*v (rounded) in [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0);      // clamped, not UB
  EXPECT_EQ(Histogram::bucket_of(0.0004), 0);    // rounds to 0
  EXPECT_EQ(Histogram::bucket_of(0.001), 1);     // scaled == 1
  EXPECT_EQ(Histogram::bucket_of(0.002), 2);     // scaled == 2
  EXPECT_EQ(Histogram::bucket_of(0.003), 2);     // scaled == 3
  EXPECT_EQ(Histogram::bucket_of(0.004), 3);     // scaled == 4
  EXPECT_EQ(Histogram::bucket_of(1.0), 10);      // 1000 in [512, 1024)
  EXPECT_EQ(Histogram::bucket_of(1e16), Histogram::kBuckets - 1);  // clamp
  // bucket_upper is the exclusive bound in the observed unit.
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(10), 1.024);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper(0), 0.001);
}

TEST(Histogram, ObserveAccumulatesCountSumAndBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  h.observe(0.5);
  h.observe(0.5);
  h.observe(300.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 301.0, 1e-9);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(0.5)), 2u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(300.0)), 1u);
}

TEST(Snapshot, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("dispatcher.messages", party_layer_labels(0, "a.b.r*")).inc(42);
  reg.counter("plain").inc();
  reg.gauge("link.srtt_ms", {{"party", "0"}, {"peer", "3"}}).set(1.75);
  reg.gauge("weird \"quoted\"\n").set(-0.5);
  Histogram& h = reg.histogram("channel.round_ms", party_labels(1));
  h.observe(0.25);
  h.observe(4096.0);

  const Snapshot snap = reg.snapshot();
  const std::string json = snap.to_json();
  const Snapshot back = Snapshot::from_json(json);

  ASSERT_EQ(back.counters.size(), snap.counters.size());
  ASSERT_EQ(back.gauges.size(), snap.gauges.size());
  ASSERT_EQ(back.histograms.size(), snap.histograms.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].name, snap.counters[i].name);
    EXPECT_EQ(back.counters[i].labels, snap.counters[i].labels);
    EXPECT_EQ(back.counters[i].value, snap.counters[i].value);
  }
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    EXPECT_EQ(back.gauges[i].name, snap.gauges[i].name);
    EXPECT_DOUBLE_EQ(back.gauges[i].value, snap.gauges[i].value);
  }
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    EXPECT_EQ(back.histograms[i].count, snap.histograms[i].count);
    EXPECT_DOUBLE_EQ(back.histograms[i].sum, snap.histograms[i].sum);
    EXPECT_EQ(back.histograms[i].buckets, snap.histograms[i].buckets);
  }
  // Round-trip is a fixed point once through the parser.
  EXPECT_EQ(back.to_json(), json);
}

TEST(Snapshot, JsonRoundTripIsExactAtExtremePrecision) {
  // Counters must survive above 2^53 (crypto.work on large runs) and
  // gauges must round-trip bit-exactly, not at %.6g.
  MetricsRegistry reg;
  const std::uint64_t big = (std::uint64_t{1} << 63) + 12345;
  reg.counter("crypto.work", {{"op", "tdh2.combine"}}).inc(big);
  reg.gauge("crypto.work_units").set(12345678.25);
  reg.gauge("tiny").set(0.1);

  const Snapshot back = Snapshot::from_json(reg.snapshot().to_json());
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].value, big);
  ASSERT_EQ(back.gauges.size(), 2u);
  EXPECT_EQ(back.gauges[0].value, 12345678.25);
  EXPECT_EQ(back.gauges[1].value, 0.1);
}

TEST(Snapshot, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(Snapshot::from_json("not json"), std::runtime_error);
  EXPECT_THROW(Snapshot::from_json("{\"schema\":\"other.v9\"}"),
               std::runtime_error);
  EXPECT_THROW(Snapshot::from_json("{\"schema\":\"sintra.metrics.v1\""),
               std::runtime_error);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hot", party_labels(0));
  Histogram& h = reg.histogram("hot_ms", party_labels(0));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(1.0)),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LayerOf, CollapsesDigitRunsToStar) {
  EXPECT_EQ(layer_of("cluster.atomic.r3.cb.2"), "cluster.atomic.r*.cb.*");
  EXPECT_EQ(layer_of("net.rbc"), "net.rbc");
  EXPECT_EQ(layer_of("a12b345"), "a*b*");
  EXPECT_EQ(layer_of(""), "");
}

TEST(EventTrace, DefaultEventIsASendAndByClassFiltersSends) {
  EventTrace trace;
  Event send;  // type left at its default
  send.time_ms = 1.0;
  send.from = 0;
  send.to = 1;
  send.pid = "x.atomic.r1";
  send.bytes = 100;
  trace.record(send);
  Event decide;
  decide.type = EventType::kDecide;
  decide.pid = "x.atomic.r1";
  decide.bytes = 999;  // must not pollute the send totals
  trace.record(decide);

  ASSERT_EQ(trace.entries().size(), 2u);
  EXPECT_EQ(trace.entries()[0].type, EventType::kSend);
  const auto totals = trace.by_class([](const std::string& pid) {
    return layer_of(pid);
  });
  ASSERT_EQ(totals.size(), 1u);
  const auto& t = totals.at("x.atomic.r*");
  EXPECT_EQ(t.messages, 1u);
  EXPECT_EQ(t.bytes, 100u);
}

TEST(EventTrace, StreamWithoutRetentionWritesJsonLines) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  EventTrace trace;
  trace.set_stream(tmp);
  trace.set_retain(false);
  set_trace_sink(&trace);
  emit(EventType::kDeliver, 7.5, 2, 0, "x.ch", 16, 3.0, "batch");
  set_trace_sink(nullptr);

  EXPECT_TRUE(trace.entries().empty());  // streamed, not retained
  std::fflush(tmp);
  std::rewind(tmp);
  char line[512] = {};
  ASSERT_NE(std::fgets(line, sizeof(line), tmp), nullptr);
  const std::string s(line);
  EXPECT_NE(s.find("\"type\":\"deliver\""), std::string::npos);
  EXPECT_NE(s.find("\"pid\":\"x.ch\""), std::string::npos);
  EXPECT_NE(s.find("\"bytes\":16"), std::string::npos);
  std::fclose(tmp);
}

TEST(EventTrace, EmitWithoutSinkIsANoOp) {
  set_trace_sink(nullptr);
  emit(EventType::kSend, 0.0, 0, 1, "nobody.listens", 1);  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace sintra::obs
