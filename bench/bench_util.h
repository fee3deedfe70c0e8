#ifndef GPML_BENCH_BENCH_UTIL_H_
#define GPML_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eval/engine.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"

// Sanitizer builds distort timings (see WallGatesEnforced).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GPML_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GPML_BENCH_SANITIZED 1
#endif
#endif

namespace gpml {
namespace bench {

/// Whether the wall-time gates are enforced: not in sanitized or
/// unoptimized (!NDEBUG) builds, whose timings say nothing about the
/// optimized code. There the gates report their numbers only.
inline bool WallGatesEnforced() {
#if defined(GPML_BENCH_SANITIZED) || !defined(NDEBUG)
  return false;
#else
  return true;
#endif
}

/// The p-th percentile (0 < p <= 100) of `samples` by linear interpolation
/// between closest ranks (the "exclusive" flavor numpy calls 'linear').
/// Sorts a copy; benchmarks call this once per distribution, not per
/// sample. Returns 0 for an empty sample set.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  if (lo >= samples.size() - 1) return samples.back();
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

/// The median of a sample set and the median absolute deviation from it:
/// the estimator of every wall-time gate. A shared host's load bursts move
/// a few samples far, which moves the mean and the minimum but not these.
struct Spread {
  double median = 0;
  double mad = 0;
};

inline Spread MedianSpread(const std::vector<double>& samples) {
  Spread s;
  s.median = Percentile(samples, 50);
  std::vector<double> deviations;
  deviations.reserve(samples.size());
  for (double x : samples) deviations.push_back(std::fabs(x - s.median));
  s.mad = Percentile(std::move(deviations), 50);
  return s;
}

/// The tail summary every latency benchmark reports: p50/p95/p99 plus the
/// extremes, as ready-to-Add JsonReport extra pairs.
inline std::vector<std::pair<std::string, double>> LatencySummary(
    const std::vector<double>& samples_ms) {
  std::vector<double> sorted = samples_ms;
  std::sort(sorted.begin(), sorted.end());
  double min = sorted.empty() ? 0 : sorted.front();
  double max = sorted.empty() ? 0 : sorted.back();
  return {{"p50_ms", Percentile(sorted, 50)},
          {"p95_ms", Percentile(sorted, 95)},
          {"p99_ms", Percentile(sorted, 99)},
          {"min_ms", min},
          {"max_ms", max}};
}

/// Machine-readable benchmark report: one BENCH_<name>.json file written
/// next to the human-readable stdout output, so the repo accumulates a perf
/// trajectory that scripts can diff across commits. One row per measured
/// workload configuration; `extra` carries benchmark-specific metrics
/// (speedup ratios, thread counts, ...).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  struct Row {
    std::string workload;
    double wall_ms = 0;
    size_t seeds = 0;
    size_t steps = 0;
    size_t rows = 0;
    std::vector<std::pair<std::string, double>> extra;
  };

  void Add(Row row) { rows_.push_back(std::move(row)); }

  void Add(std::string workload, double wall_ms, size_t seeds, size_t steps,
           size_t rows,
           std::vector<std::pair<std::string, double>> extra = {}) {
    Row r;
    r.workload = std::move(workload);
    r.wall_ms = wall_ms;
    r.seeds = seeds;
    r.steps = steps;
    r.rows = rows;
    r.extra = std::move(extra);
    Add(std::move(r));
  }

  /// The directory report files go to: $GPML_BENCH_OUT when set (CI points
  /// it at the artifact directory), else the current directory.
  static std::string OutDir() {
    const char* dir = std::getenv("GPML_BENCH_OUT");
    if (dir == nullptr || dir[0] == '\0') return "";
    std::string out = dir;
    if (out.back() != '/') out += '/';
    return out;
  }

  /// Writes BENCH_<name>.json into OutDir(), plus BENCH_<name>.prom — the
  /// Prometheus rendering of every live metrics registry at this point, so
  /// each bench gate leaves a metrics snapshot of the workload it just ran
  /// (docs/observability.md). IO failure warns but does not fail the
  /// benchmark contract (CI runs in scratch dirs).
  bool Write() const {
    WritePrometheusSnapshot();
    std::string path = OutDir() + "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"workloads\": [",
                 Escaped(name_).c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "%s\n    {\"workload\": \"%s\", \"wall_ms\": %.4f, "
                   "\"seeds\": %zu, \"steps\": %zu, \"rows\": %zu",
                   i == 0 ? "" : ",", Escaped(r.workload).c_str(), r.wall_ms,
                   r.seeds, r.steps, r.rows);
      for (const auto& [key, value] : r.extra) {
        std::fprintf(f, ", \"%s\": %.4f", Escaped(key).c_str(), value);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu workload rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  void WritePrometheusSnapshot() const {
    std::string path = OutDir() + "BENCH_" + name_ + ".prom";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::string text =
        obs::RenderPrometheus(obs::AggregateAllRegistries());
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), text.size());
  }

  /// JSON string escaping for the identifier-ish names benchmarks use.
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            // The cast matters: a plain (signed) char would sign-extend
            // and print 8 hex digits for bytes >= 0x80.
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<Row> rows_;
};

}  // namespace bench
}  // namespace gpml

#endif  // GPML_BENCH_BENCH_UTIL_H_
