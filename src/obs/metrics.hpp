// Process-wide metrics registry: counters, gauges and log-bucketed
// histograms, labeled by party / protocol layer / peer.
//
// The paper's §4.2 attributes wall-clock time to cryptography, protocol
// overhead and network delay; the simulator can do that attribution
// offline (obs::EventTrace, obs/trace.hpp), but the real-network path needs
// live, cheap introspection.  This registry is the single sink both
// transports feed: instrumentation sites resolve a handle once (mutex +
// map, at instance-construction time) and then update it with relaxed
// atomics — an increment on the hot path is one atomic add, and a
// histogram observation is two adds plus a bit-scan.  Nothing here ever
// influences protocol behaviour; it is measurement only.
//
// Snapshots serialize to a stable JSON schema (documented in
// docs/OBSERVABILITY.md) that scripts/aggregate_metrics.py merges across
// nodes, and parse back for round-trip tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sintra::obs {

/// Label set for one metric instance, e.g. {{"party","0"},{"layer","ac"}}.
/// Order-insensitive: labels are sorted by key on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Convenience: the ubiquitous {"party", "<i>"} label set.
Labels party_labels(int party);
Labels party_layer_labels(int party, std::string_view layer);

/// Monotonic counter.  Updates are relaxed atomics; handles stay valid
/// for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (link RTT estimates, backlog
/// sizes, work-counter exports).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram.  Bucket i counts observations v with
/// 1000*v in [2^(i-1), 2^i) — i.e. roughly-powers-of-two resolution with
/// the lowest bucket at one thousandth of the unit (1 µs when observing
/// milliseconds).  64 buckets cover ~18 decimal orders of magnitude, so
/// there is no configuration and merging across nodes is bucket-wise
/// addition (scripts/aggregate_metrics.py).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_milli_.fetch_add(to_milli(v), std::memory_order_relaxed);
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of observed values (stored in thousandths for atomicity).
  [[nodiscard]] double sum() const {
    return static_cast<double>(sum_milli_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  /// Bucket index for a value (clamped to [0, kBuckets)).
  static int bucket_of(double v);
  /// Exclusive upper bound of bucket i, in the observed unit.
  static double bucket_upper(int i);

 private:
  friend class MetricsRegistry;
  static std::uint64_t to_milli(double v) {
    if (v <= 0.0) return 0;
    return static_cast<std::uint64_t>(v * 1000.0 + 0.5);
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_milli_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Point-in-time copy of a registry, serializable to/from JSON.
struct Snapshot {
  struct CounterValue {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    Labels labels;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    Labels labels;
    std::uint64_t count = 0;
    double sum = 0.0;
    /// (bucket index, count) for non-empty buckets only.
    std::vector<std::pair<int, std::uint64_t>> buckets;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] std::string to_json() const;
  /// Parses a snapshot produced by to_json().  Throws std::runtime_error
  /// on malformed input.
  static Snapshot from_json(std::string_view json);
};

class MetricsRegistry {
 public:
  /// Returns the metric instance for (name, labels), creating it on first
  /// use.  The reference stays valid for the registry's lifetime; callers
  /// cache it and update lock-free.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});

  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every value (registrations and handles survive).  Tests only.
  void reset();

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      return std::tie(name, labels) < std::tie(o.name, o.labels);
    }
  };
  static Key make_key(std::string_view name, Labels labels);

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

/// The process-default registry every built-in instrumentation site
/// feeds.  Tests may also construct private registries.
MetricsRegistry& registry();

}  // namespace sintra::obs
