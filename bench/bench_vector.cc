// Vectorized batch matcher contracts on the fraud-300 workloads, run under
// ctest as a regression gate (see docs/vectorized.md):
//
//  1. Matcher-step throughput (enforced only in optimized, unsanitized
//     builds): on the expansion-heavy fraud-300 graph (300 accounts, 100
//     transfers per account) the batch path must deliver >= 3x matcher
//     throughput, geometric mean over the expansion workloads, and >= 1.5x
//     on every individual workload. Throughput is scalar-equivalent matcher
//     steps per second: the step count the use_batch=false oracle charges
//     for the workload, divided by each configuration's wall time — both
//     sides produce the same rows, the batch side just replaces per-edge
//     interpreter dispatch with block-at-a-time kernels. Measurements
//     interleave batch-off and batch-on repetitions (min of 5 each) so
//     frequency scaling and cache warmth hit both sides alike.
//  2. Byte-identity (always enforced): identical rows in identical order
//     across {batch on/off} x {threads 1, 8} on every workload.
//  3. Batch engagement (always enforced): every expansion workload must
//     actually run vectorized (batch_blocks > 0) with use_batch on, and
//     must not (batch_blocks == 0) with it off.
//
// Results land in BENCH_vector.json / BENCH_vector.prom (GPML_BENCH_OUT).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GPML_BENCH_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GPML_BENCH_SANITIZED 1
#endif
#endif

namespace gpml {
namespace {

/// The expansion-heavy fraud-300 configuration (bench_csr's graph): every
/// Account node has ~200 Transfer adjacencies next to a handful of
/// isLocatedIn/hasPhone/signInWithIP records, so fixed-hop expansion is
/// dominated by the per-candidate filter work the batch kernels vectorize.
PropertyGraph MakeExpansionGraph() {
  FraudGraphOptions options;
  options.num_accounts = 300;
  options.num_cities = 3;
  options.transfers_per_account = 100;
  return MakeFraudGraph(options);
}

struct Workload {
  const char* name;
  std::string query;
};

/// Batch-eligible fixed-hop workloads: linear chains whose inline WHEREs
/// all compile to predicate kernels (comparisons against literals).
const Workload kExpansionWorkloads[] = {
    // The batch advantage is in the gather + filter cascade, not in row
    // materialization (survivor States cost the same on both paths), so
    // the gate workloads pair large candidate volumes with selective
    // kernels: many adjacencies gathered per block, few rows emitted.
    // Amounts are uniform over 1M..12M, so `> 11000000` keeps ~1/12.
    {"two_hop_amount_kernels",
     "MATCH (x:Account WHERE x.isBlocked='yes')-[t:Transfer WHERE "
     "t.amount > 9000000]->(y:Account)-[u:Transfer WHERE "
     "u.amount > 9000000]->(z:Account WHERE z.isBlocked='yes')"},
    {"blocked_two_hop",
     "MATCH (x:Account WHERE x.isBlocked='yes')-[:Transfer]->(y:Account)"
     "-[u:Transfer WHERE u.amount > 11000000]->"
     "(z:Account WHERE z.isBlocked='yes')"},
    {"transfer_cycle",
     "MATCH (x:Account)-[:Transfer]->(y:Account)-[:Transfer]->(x)"},
    {"cycle_amount_kernel",
     "MATCH (x:Account)-[t:Transfer WHERE t.amount > 11000000]->(y:Account)"
     "-[:Transfer]->(x)"},
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<std::string> CanonRows(const MatchOutput& out,
                                   const PropertyGraph& g) {
  std::vector<std::string> rows;
  rows.reserve(out.rows.size());
  for (const ResultRow& row : out.rows) {
    std::string s;
    for (const auto& pb : row.bindings) {
      s += pb->ToString(g, *out.vars);
      s += " | ";
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

struct Measurement {
  std::vector<std::string> rows;
  EngineMetrics metrics;
  double millis = 0;
};

/// One timed repetition; folds the wall time into the running minimum.
bool MeasureOnce(Engine& engine, const PropertyGraph& g,
                 const std::string& query, int rep, Measurement* m) {
  auto start = std::chrono::steady_clock::now();
  Result<MatchOutput> out = engine.Match(query);
  double ms = MillisSince(start);
  if (!out.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", query.c_str(),
                 out.status().ToString().c_str());
    return false;
  }
  if (rep == 0 || ms < m->millis) m->millis = ms;
  if (rep == 0) m->rows = CanonRows(*out, g);
  return true;
}

bool ThroughputGateActive() {
#ifdef GPML_BENCH_SANITIZED
  std::printf("throughput gate: SKIPPED (sanitizer build distorts timings)\n");
  return false;
#elif !defined(NDEBUG)
  std::printf("throughput gate: SKIPPED (unoptimized build)\n");
  return false;
#else
  return true;
#endif
}

int RunBench() {
  bool ok = true;
  bench::JsonReport report("vector");
  PropertyGraph g = MakeExpansionGraph();
  std::printf("expansion graph: %s\n", g.Summary().c_str());

  // --- 1. matcher-step throughput + batch engagement ----------------------
  {
    const bool enforce = ThroughputGateActive();
    double log_ratio_sum = 0;
    size_t measured = 0;

    std::printf("%-28s | %10s %10s | %12s %12s | %7s\n", "workload", "ms:off",
                "ms:on", "steps/s:off", "steps/s:on", "ratio");
    for (const Workload& w : kExpansionWorkloads) {
      EngineOptions base;
      base.use_planner = false;  // Pure matcher comparison.
      base.num_threads = 1;
      Measurement off, on;
      base.matcher.use_batch = false;
      base.metrics = &off.metrics;
      Engine scalar_engine(g, base);
      base.matcher.use_batch = true;
      base.metrics = &on.metrics;
      Engine batch_engine(g, base);
      // Warm both plan caches, then interleave the timed repetitions so
      // frequency scaling and cache warmth hit both sides alike. A gate
      // failure on an earlier workload must not stop the measurements, so
      // execution errors get their own flag.
      bool ran = MeasureOnce(scalar_engine, g, w.query, 0, &off) &&
                 MeasureOnce(batch_engine, g, w.query, 0, &on);
      for (int rep = 0; ran && rep < 5; ++rep) {
        ran = MeasureOnce(scalar_engine, g, w.query, rep, &off) &&
              MeasureOnce(batch_engine, g, w.query, rep, &on);
      }
      if (!ran) {
        ok = false;
        break;
      }

      // Scalar-equivalent steps per second: same logical work (the scalar
      // oracle's step count), each side's own wall time.
      double work = static_cast<double>(off.metrics.matcher_steps);
      double thr_off = work / (off.millis / 1e3);
      double thr_on = work / (on.millis / 1e3);
      double ratio = on.millis > 0 ? off.millis / on.millis : 0;
      std::printf("%-28s | %10.3f %10.3f | %12.3g %12.3g | %6.2fx\n", w.name,
                  off.millis, on.millis, thr_off, thr_on, ratio);
      report.Add(std::string(w.name) + ":batch=off", off.millis,
                 off.metrics.seeded_nodes, off.metrics.matcher_steps,
                 off.rows.size());
      report.Add(std::string(w.name) + ":batch=on", on.millis,
                 on.metrics.seeded_nodes, on.metrics.matcher_steps,
                 on.rows.size(),
                 {{"throughput_ratio", ratio},
                  {"batch_blocks", static_cast<double>(on.metrics.batch_blocks)},
                  {"survivor_rate",
                   on.metrics.batch_candidates > 0
                       ? static_cast<double>(on.metrics.batch_survivors) /
                             static_cast<double>(on.metrics.batch_candidates)
                       : 0}});

      if (off.rows != on.rows) {
        std::fprintf(stderr, "FAIL %s: batch changed rows (%zu vs %zu)\n",
                     w.name, on.rows.size(), off.rows.size());
        ok = false;
      }
      if (on.metrics.batch_blocks == 0) {
        std::fprintf(stderr, "FAIL %s: batch path did not engage\n", w.name);
        ok = false;
      }
      if (off.metrics.batch_blocks != 0) {
        std::fprintf(stderr, "FAIL %s: scalar oracle ran batched\n", w.name);
        ok = false;
      }
      if (enforce && ratio < 1.5) {
        std::fprintf(stderr, "FAIL %s: batch throughput ratio %.2fx < 1.5x\n",
                     w.name, ratio);
        ok = false;
      }
      log_ratio_sum += std::log(std::max(ratio, 1e-9));
      ++measured;
    }
    if (ok && measured > 0) {
      double geomean = std::exp(log_ratio_sum / static_cast<double>(measured));
      std::printf("batch throughput: %.2fx geometric mean (gate: 3x)\n",
                  geomean);
      report.Add("geomean", 0, 0, 0, 0, {{"throughput_ratio", geomean}});
      if (enforce && geomean < 3.0) {
        std::fprintf(stderr,
                     "FAIL batch throughput %.2fx < 3x geometric mean\n",
                     geomean);
        ok = false;
      }
    }
  }

  // --- 2. byte-identity matrix --------------------------------------------
  // Identical rows in identical order across {batch on/off} x {threads}:
  // the drain order replays the scalar DFS accept order exactly, so the
  // batch matcher is held to the byte-identity bar, not just multiset
  // equality (docs/vectorized.md).
  {
    for (const Workload& w : kExpansionWorkloads) {
      std::vector<std::string> baseline;
      bool have_baseline = false;
      for (bool batch : {false, true}) {
        for (size_t threads : {size_t{1}, size_t{8}}) {
          EngineOptions base;
          base.matcher.use_batch = batch;
          base.num_threads = threads;
          // Force real sharding even on short seed lists.
          base.matcher.min_seeds_per_shard = 1;
          Measurement m;
          base.metrics = &m.metrics;
          Engine engine(g, base);
          if (!MeasureOnce(engine, g, w.query, 0, &m)) {
            ok = false;
            break;
          }
          if (!have_baseline) {
            baseline = m.rows;
            have_baseline = true;
          } else if (m.rows != baseline) {
            std::fprintf(stderr,
                         "FAIL %s: rows differ at batch=%d threads=%zu "
                         "(%zu vs %zu rows)\n",
                         w.name, batch ? 1 : 0, threads, m.rows.size(),
                         baseline.size());
            ok = false;
          }
        }
      }
      if (have_baseline) {
        std::printf(
            "byte-identity %-28s: %5zu rows identical over "
            "{batch on/off} x {threads 1,8}\n",
            w.name, baseline.size());
      }
    }
  }

  report.Write();
  std::printf(ok ? "vector contract holds: faster expansion, identical rows, "
                   "batch engagement verified\n"
                 : "vector contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
