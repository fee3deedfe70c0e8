#include "obs/metrics.h"

#include <algorithm>
#include <set>

#include "obs/execution_record.h"

namespace gpml {
namespace obs {

namespace {

/// Process-wide list of live registries for AggregateAllRegistries. The
/// mutex is touched only on registry construction/destruction and on
/// aggregation — never on the metric hot path.
struct RegistryDirectory {
  std::mutex mu;
  std::set<const MetricsRegistry*> live;
};

RegistryDirectory& Directory() {
  static RegistryDirectory* dir = new RegistryDirectory();
  return *dir;
}

}  // namespace

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const GaugeSnapshot& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry()
    : execution_series_(std::make_unique<ExecutionSeries>(this)) {
  RegistryDirectory& dir = Directory();
  std::lock_guard<std::mutex> lock(dir.mu);
  dir.live.insert(this);
}

MetricsRegistry::~MetricsRegistry() {
  RegistryDirectory& dir = Directory();
  std::lock_guard<std::mutex> lock(dir.mu);
  dir.live.erase(this);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (histograms_.count(name) != 0 || gauges_.count(name) != 0) {
    return nullptr;  // Type mismatch.
  }
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    return nullptr;  // Type mismatch.
  }
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    return nullptr;  // Type mismatch.
  }
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
      snap.counters.push_back({name, counter->value()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges.push_back({name, gauge->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
      HistogramSnapshot h;
      h.name = name;
      h.count = hist->count();
      h.sum_us = hist->sum_us();
      h.buckets.reserve(Histogram::kNumBounds + 1);
      for (size_t i = 0; i <= Histogram::kNumBounds; ++i) {
        h.buckets.push_back(hist->bucket(i));
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) {
              return a.name < b.name;
            });
  std::sort(snap.gauges.begin(), snap.gauges.end(),
            [](const GaugeSnapshot& a, const GaugeSnapshot& b) {
              return a.name < b.name;
            });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

MetricsSnapshot AggregateAllRegistries() {
  std::vector<MetricsSnapshot> parts;
  {
    RegistryDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    parts.reserve(dir.live.size());
    // Snapshotting under the directory lock keeps the registry set stable;
    // each per-registry snapshot takes that registry's own mutex briefly.
    for (const MetricsRegistry* r : dir.live) parts.push_back(r->Snapshot());
  }

  MetricsSnapshot out;
  for (MetricsSnapshot& part : parts) {
    for (CounterSnapshot& c : part.counters) {
      bool merged = false;
      for (CounterSnapshot& existing : out.counters) {
        if (existing.name == c.name) {
          existing.value += c.value;
          merged = true;
          break;
        }
      }
      if (!merged) out.counters.push_back(std::move(c));
    }
    for (GaugeSnapshot& g : part.gauges) {
      bool merged = false;
      for (GaugeSnapshot& existing : out.gauges) {
        if (existing.name == g.name) {
          existing.value += g.value;
          merged = true;
          break;
        }
      }
      if (!merged) out.gauges.push_back(std::move(g));
    }
    for (HistogramSnapshot& h : part.histograms) {
      bool merged = false;
      for (HistogramSnapshot& existing : out.histograms) {
        if (existing.name == h.name) {
          existing.count += h.count;
          existing.sum_us += h.sum_us;
          for (size_t i = 0;
               i < existing.buckets.size() && i < h.buckets.size(); ++i) {
            existing.buckets[i] += h.buckets[i];
          }
          merged = true;
          break;
        }
      }
      if (!merged) out.histograms.push_back(std::move(h));
    }
  }
  std::sort(out.counters.begin(), out.counters.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) {
              return a.name < b.name;
            });
  std::sort(out.gauges.begin(), out.gauges.end(),
            [](const GaugeSnapshot& a, const GaugeSnapshot& b) {
              return a.name < b.name;
            });
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace obs
}  // namespace gpml
