#ifndef GPML_OBS_METRICS_H_
#define GPML_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gpml {
namespace obs {

/// A monotonically increasing counter. Increments are single relaxed atomic
/// adds — lock-free, wait-free, safe from any number of threads. Handles
/// returned by MetricsRegistry stay valid for the registry's lifetime, so
/// hot paths resolve the name once and increment through the pointer.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A gauge: a value that goes up and down (live sessions, queue depth).
/// Same relaxed-atomic discipline as Counter; signed so a racing
/// decrement-before-increment interleaving never wraps.
class Gauge {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency histogram with log-scaled (power-of-two) bucket
/// bounds: bucket i counts observations <= 2^i microseconds, the last
/// bucket is the +Inf overflow. 27 bounds cover 1us .. ~67s, which spans
/// everything from a plan-cache hit to a pathological enumeration. Observe
/// is three relaxed atomic adds and a bit scan — no locks, no allocation,
/// safe from any number of threads.
class Histogram {
 public:
  /// Finite bucket count; bucket i holds observations <= kBounds[i], and
  /// one extra overflow slot holds the rest.
  static constexpr size_t kNumBounds = 27;

  Histogram() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  /// The upper bound of finite bucket i, in microseconds (2^i).
  static uint64_t BoundMicros(size_t i) { return uint64_t{1} << i; }

  void Observe(uint64_t value_us) {
    buckets_[BucketIndex(value_us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(value_us, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// The finite bucket an observation lands in (kNumBounds = overflow):
  /// the smallest i with value <= 2^i, found by a position-of-highest-bit
  /// scan rather than a loop.
  static size_t BucketIndex(uint64_t value_us) {
    if (value_us <= 1) return 0;
    // ceil(log2(value)): bit width of (value - 1).
    uint64_t v = value_us - 1;
    size_t bits = 0;
    while (v != 0) {
      v >>= 1;
      ++bits;
    }
    return bits < kNumBounds ? bits : kNumBounds;
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBounds + 1];
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

/// Plain-data copies of one registry's state at a point in time — what
/// tests assert against and what the Prometheus renderer consumes. Sorted
/// by metric name for deterministic output.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_us = 0;
  std::vector<uint64_t> buckets;  // kNumBounds finite + 1 overflow.
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// The counter's value, or 0 when the name was never registered.
  uint64_t CounterValue(const std::string& name) const;
  /// The gauge's value, or 0 when the name was never registered.
  int64_t GaugeValue(const std::string& name) const;
  /// The histogram entry, or nullptr when the name was never registered.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

struct ExecutionSeries;  // obs/execution_record.h

/// A thread-safe registry of named counters and histograms. Registration
/// and snapshotting take a mutex; the returned handles increment lock-free.
/// Hot paths never look a name up per call: they resolve a handle once and
/// keep it — the engine through execution_series(), the server through
/// handles held per server and per session — so a completed query costs
/// plain atomic adds and no lock.
///
/// Metric names follow the Prometheus conventions rendered by
/// RenderPrometheus (obs/prometheus.h): `base{key="value",...}` — the
/// optional label block selects a labeled series of the base metric, e.g.
/// `gpml_stage_duration_us{stage="match"}`. Counter bases end in `_total`.
///
/// One registry lives on each PropertyGraph (created lazily, see
/// PropertyGraph::metrics_registry) and every registry is tracked in a
/// process-wide list so AggregateAllRegistries can merge them into the
/// engine-wide snapshot a server's /metrics endpoint would export.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The counter/gauge/histogram registered under `name`, created on first
  /// use. Handles stay valid for the registry's lifetime. A name registered
  /// as one kind cannot be re-registered as another; the mismatched lookup
  /// returns nullptr.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// The engine's publication handles for this registry, each resolved on
  /// first use and then read lock-free (obs/execution_record.h).
  ExecutionSeries& execution_series() { return *execution_series_; }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::unique_ptr<ExecutionSeries> execution_series_;
};

/// Merges the snapshots of every live MetricsRegistry in the process
/// (same-name counters sum, same-name histograms merge bucket-wise) — the
/// engine-wide aggregate over all graphs' per-graph registries.
MetricsSnapshot AggregateAllRegistries();

}  // namespace obs
}  // namespace gpml

#endif  // GPML_OBS_METRICS_H_
