// Vectorized batch matcher contracts on the fraud-300 workloads, run under
// ctest as a regression gate (see docs/vectorized.md). Each workload is one
// declaration compiled and bound as written (the test harness in
// tests/test_util.h) and run through RunPattern; its scalar oracle is the
// same bound program with the batch plan cleared (Program::batch).
//
//  1. Matcher-step throughput (enforced only in optimized, unsanitized
//     builds): on the expansion-heavy fraud-300 graph (300 accounts, 100
//     transfers per account) the batch path must deliver >= 3x matcher
//     throughput, geometric mean over the expansion workloads, and >= 1.5x
//     on every individual workload. Throughput is scalar-equivalent matcher
//     steps per second: the step count the scalar oracle charges for the
//     workload, divided by each route's wall time — both sides produce the
//     same rows, the batch side just replaces per-edge interpreter
//     dispatch with block-at-a-time kernels. Measurements interleave
//     scalar and batch repetitions (min of 5 each) so frequency scaling and
//     cache warmth hit both sides alike.
//  2. Byte-identity (always enforced): identical rows in identical order
//     from the batch route and its scalar oracle at threads 1 and 8 on
//     every workload.
//  3. Batch engagement (always enforced): every expansion workload must
//     actually run vectorized (batch_blocks > 0), and its oracle must not
//     (batch_blocks == 0).
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
#include "tests/test_util.h"

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

using testing_util::RouteRun;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Measurement {
  RouteRun run;
  double millis = 0;
};

/// One timed repetition; folds the wall time into the running minimum.
bool MeasureOnce(const PropertyGraph& g, const Program& program,
                 const VarTable& vars, const MatcherOptions& options, int rep,
                 Measurement* m) {
  auto start = std::chrono::steady_clock::now();
  RouteRun run = testing_util::RunOnce(g, program, vars, options, false);
  double ms = MillisSince(start);
  if (!run.status.ok()) {
    std::fprintf(stderr, "match failed: %s\n",
                 run.status.ToString().c_str());
    return false;
  }
  if (rep == 0 || ms < m->millis) m->millis = ms;
  if (rep == 0) m->run = std::move(run);
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

  // Each workload compiled once; the oracle is its batch-plan-free copy.
  std::vector<testing_util::CompiledDecl> compiled;
  std::vector<Program> scalar;
  for (const Workload& w : kExpansionWorkloads) {
    compiled.push_back(testing_util::Compile(g, w.query));
    if (!compiled.back().status.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   compiled.back().status.ToString().c_str());
      return 1;
    }
    scalar.push_back(compiled.back().program);
    scalar.back().batch = nullptr;
  }

  // --- 1. matcher-step throughput + batch engagement ----------------------
  {
    const bool enforce = ThroughputGateActive();
    double log_ratio_sum = 0;
    size_t measured = 0;

    std::printf("%-28s | %10s %10s | %12s %12s | %7s\n", "workload",
                "ms:scalar", "ms:batch", "steps/s:sc", "steps/s:bat",
                "ratio");
    for (size_t i = 0; i < std::size(kExpansionWorkloads); ++i) {
      const Workload& w = kExpansionWorkloads[i];
      const testing_util::CompiledDecl& c = compiled[i];
      MatcherOptions options;
      options.num_threads = 1;
      Measurement off, on;
      // Interleave the timed repetitions so frequency scaling and cache
      // warmth hit both sides alike. A gate failure on an earlier workload
      // must not stop the measurements, so execution errors get their own
      // flag.
      bool ran = true;
      for (int rep = 0; ran && rep < 5; ++rep) {
        ran = MeasureOnce(g, scalar[i], *c.vars, options, rep, &off) &&
              MeasureOnce(g, c.program, *c.vars, options, rep, &on);
      }
      if (!ran) {
        ok = false;
        break;
      }

      // Scalar-equivalent steps per second: same logical work (the scalar
      // oracle's step count), each side's own wall time.
      double work = static_cast<double>(off.run.steps);
      double thr_off = work / (off.millis / 1e3);
      double thr_on = work / (on.millis / 1e3);
      double ratio = on.millis > 0 ? off.millis / on.millis : 0;
      std::printf("%-28s | %10.3f %10.3f | %12.3g %12.3g | %6.2fx\n", w.name,
                  off.millis, on.millis, thr_off, thr_on, ratio);
      report.Add(std::string(w.name) + ":scalar", off.millis, off.run.seeds,
                 off.run.steps, off.run.rows.size());
      report.Add(std::string(w.name) + ":batch", on.millis, on.run.seeds,
                 on.run.steps, on.run.rows.size(),
                 {{"throughput_ratio", ratio},
                  {"batch_blocks", static_cast<double>(on.run.batch_blocks)}});

      if (off.run.rows != on.run.rows) {
        std::fprintf(stderr, "FAIL %s: batch changed rows (%zu vs %zu)\n",
                     w.name, on.run.rows.size(), off.run.rows.size());
        ok = false;
      }
      if (on.run.route != MatchRoute::kBatch || on.run.batch_blocks == 0) {
        std::fprintf(stderr, "FAIL %s: batch path did not engage\n", w.name);
        ok = false;
      }
      if (off.run.batch_blocks != 0) {
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

  // --- 2. byte-identity ---------------------------------------------------
  // Identical rows in identical order from the batch route and its scalar
  // oracle, sequential and sharded: the drain order replays the scalar DFS
  // accept order exactly, so the batch matcher is held to the byte-identity
  // bar, not just multiset equality (docs/vectorized.md).
  for (size_t i = 0; i < std::size(kExpansionWorkloads); ++i) {
    const Workload& w = kExpansionWorkloads[i];
    const testing_util::CompiledDecl& c = compiled[i];
    std::vector<std::string> baseline;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      MatcherOptions options;
      options.num_threads = threads;
      options.min_seeds_per_shard = 1;  // Force real sharding.
      const Program* const programs[] = {&scalar[i], &c.program};
      for (const Program* program : programs) {
        RouteRun run =
            testing_util::RunOnce(g, *program, *c.vars, options, false);
        if (!run.status.ok()) {
          std::fprintf(stderr, "match failed: %s\n",
                       run.status.ToString().c_str());
          ok = false;
          break;
        }
        if (baseline.empty()) {
          baseline = std::move(run.rows);
        } else if (run.rows != baseline) {
          std::fprintf(stderr,
                       "FAIL %s: rows differ on the %s route at threads=%zu "
                       "(%zu vs %zu rows)\n",
                       w.name, program == &c.program ? "batch" : "scalar",
                       threads, run.rows.size(), baseline.size());
          ok = false;
        }
      }
    }
    std::printf("byte-identity %-28s: %5zu rows identical over "
                "{batch, scalar oracle} x {threads 1,8}\n",
                w.name, baseline.size());
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
