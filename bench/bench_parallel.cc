// Parallel-execution contracts on the Figure 4 fraud workload (300
// accounts). Like bench_planner this is a plain executable with a checked
// contract, run under ctest as a regression gate. Every gate is an exact
// counter, so each holds in every build type and under any load:
//
//  1. Identity: num_threads ∈ {1, 4} produce identical rows in identical
//     order, and the matcher executes the identical instruction count.
//  2. Fan-out: a GPML result depends only on the search from each start
//     node (§4–§6, docs/parallel.md), so how a 4-thread run splits its
//     work is fixed too. fig4_fraud_any's ANY declaration, run on the
//     seeds and end nodes its first declaration binds, must split into
//     kFanOutShards shards and the pinned seed slices, each slice with its
//     pinned seeds and steps. The slices must sum to the sequential run's
//     steps and to the engine's own EXPLAIN ANALYZE actuals for that
//     declaration, with the sequential run's rows.
//
// The 4-thread speedup is reported in BENCH_parallel.json, not gated: it
// depends on how many idle CPUs the host has at that moment.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "planner/explain.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

struct Workload {
  const char* name;
  std::string query;
};

constexpr char kColocation[] =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes')";

const Workload kWorkloads[] = {
    {"fig4_fraud_any",
     std::string(kColocation) + ", ANY (x)-[:Transfer]->+(y)"},
    {"fig4_colocation_join",
     std::string(kColocation) +
         ", (x)-[t:Transfer]->(y2:Account), (y2)-[t2:Transfer]->(y)"},
};

/// fig4_fraud_any's ANY declaration at 4 threads: its 84 bound seeds in
/// 4 shards x 4 contiguous slices, and the steps each slice's searches take.
constexpr size_t kFanOutShards = 4;
constexpr size_t kSliceSeeds[] = {6, 6, 6, 6, 5, 5, 5, 5,
                                  5, 5, 5, 5, 5, 5, 5, 5};
constexpr size_t kSliceSteps[] = {30348, 30468, 25423, 30423, 25408, 25376,
                                  25445, 25369, 25368, 25365, 25421, 25351,
                                  25442, 25355, 25342, 25361};

PropertyGraph MakeWorkloadGraph() {
  FraudGraphOptions options;
  options.num_accounts = 300;
  options.num_cities = 3;
  return MakeFraudGraph(options);
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Measurement {
  std::vector<std::string> rows;
  EngineMetrics metrics;
  double millis = 0;
};

Measurement Measure(const PropertyGraph& g, const std::string& query,
                    size_t num_threads, bool* ok) {
  Measurement m;
  EngineOptions options;
  options.num_threads = num_threads;
  options.metrics = &m.metrics;
  Engine engine(g, options);
  auto start = std::chrono::steady_clock::now();
  Result<MatchOutput> out = engine.Match(query);
  m.millis = MillisSince(start);
  if (!out.ok()) {
    std::fprintf(stderr, "query failed (threads=%zu): %s\n  %s\n",
                 num_threads, query.c_str(), out.status().ToString().c_str());
    *ok = false;
    return m;
  }
  m.rows = testing_util::OrderedRows(*out, g);
  return m;
}

/// The sorted distinct nodes `var` binds over `out`'s rows: the seed or
/// end-node list the engine hands a later declaration.
std::vector<NodeId> BoundNodes(const MatchOutput& out, const char* var) {
  const int v = out.vars->Find(var);
  std::vector<NodeId> nodes;
  for (const ResultRow& row : out.rows) {
    if (const ElementRef* el = row.bindings[0]->LastOf(v)) {
      nodes.push_back(el->id);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

void CheckFanOut(const PropertyGraph& g, bench::JsonReport* report,
                 bool* ok) {
  auto fail = [ok](const std::string& what) {
    std::fprintf(stderr, "FAIL fan-out: %s\n", what.c_str());
    *ok = false;
  };
  EngineOptions sequential;
  sequential.num_threads = 1;
  Result<MatchOutput> coloc = Engine(g, sequential).Match(kColocation);
  if (!coloc.ok()) return fail(coloc.status().ToString());
  const std::vector<NodeId> seed_ids = BoundNodes(*coloc, "x");
  const IdSpan seeds(seed_ids);
  const std::vector<NodeId> targets = BoundNodes(*coloc, "y");
  testing_util::CompiledDecl any =
      testing_util::Compile(g, "MATCH ANY (x)-[:Transfer]->+(y)");
  if (!any.status.ok()) return fail(any.status.ToString());

  MatchStats stats[2];
  std::vector<std::string> rows[2];
  for (size_t i = 0; i < 2; ++i) {
    MatcherOptions options;
    options.num_threads = i == 0 ? 1 : kFanOutShards;
    Result<MatchSet> set = RunPattern(g, any.program, *any.vars, options,
                                      &seeds, &targets, &stats[i]);
    if (!set.ok()) return fail(set.status().ToString());
    rows[i] = testing_util::RenderMatchSet(*set, g, *any.vars);
  }
  const MatchStats& fan = stats[1];

  EngineOptions parallel;
  parallel.num_threads = kFanOutShards;
  Result<std::string> explain =
      Engine(g, parallel).ExplainAnalyze(kWorkloads[0].query);
  Result<planner::ExplainedPlan> plan =
      explain.ok() ? planner::ParseExplain(*explain)
                   : Result<planner::ExplainedPlan>(explain.status());
  if (!plan.ok() || plan->decls.size() != 2) {
    return fail("no two-declaration EXPLAIN ANALYZE");
  }
  const planner::ExplainedDecl& engine_any = plan->decls[1];

  std::printf("fan-out: %zu shards, %zu slices of %zu seeds; steps per "
              "slice:",
              fan.shards, fan.slice_seeds.size(), fan.seeds);
  for (size_t steps : fan.slice_steps) std::printf(" %zu", steps);
  std::printf("\n");
  report->Add("fig4_fraud_any:fanout", 0, fan.seeds, fan.steps,
              rows[1].size(),
              {{"shards", static_cast<double>(fan.shards)},
               {"slices", static_cast<double>(fan.slice_seeds.size())}});

  const std::vector<size_t> want_seeds(std::begin(kSliceSeeds),
                                       std::end(kSliceSeeds));
  const std::vector<size_t> want_steps(std::begin(kSliceSteps),
                                       std::end(kSliceSteps));
  if (fan.shards != kFanOutShards) fail("shard count moved off its pin");
  if (fan.slice_seeds != want_seeds) fail("slice seeds moved off their pins");
  if (fan.slice_steps != want_steps) fail("slice steps moved off their pins");
  if (fan.steps != stats[0].steps || rows[1] != rows[0]) {
    fail("slices differ from the sequential run (steps " +
         std::to_string(fan.steps) + " vs " + std::to_string(stats[0].steps) +
         ", or rows)");
  }
  if (engine_any.actual_seeds != static_cast<long>(seeds.size()) ||
      engine_any.actual_targets != static_cast<long>(targets.size()) ||
      engine_any.actual_steps != static_cast<long>(fan.steps)) {
    fail("the engine's ANY declaration ran other seeds, targets or steps "
         "(EXPLAIN ANALYZE: " +
         std::to_string(engine_any.actual_seeds) + " seeds, " +
         std::to_string(engine_any.actual_targets) + " targets, " +
         std::to_string(engine_any.actual_steps) + " steps)");
  }
}

int RunBench() {
  bool ok = true;
  bench::JsonReport report("parallel");
  PropertyGraph g = MakeWorkloadGraph();
  constexpr int kRepetitions = 3;

  std::printf("%-24s %8s | %10s %10s | %9s | %6s\n", "workload", "accounts",
              "ms:1thr", "ms:4thr", "speedup", "rows");
  for (const Workload& w : kWorkloads) {
    // Warm the plan cache and label indexes once so both sides measure the
    // same (pure matching) work.
    bool warm_ok = true;
    Measure(g, w.query, 1, &warm_ok);
    if (!warm_ok) {
      ok = false;
      continue;
    }

    double best1 = 0, best4 = 0;
    Measurement m1, m4;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      m1 = Measure(g, w.query, 1, &ok);
      m4 = Measure(g, w.query, 4, &ok);
      if (!ok) break;
      best1 = rep == 0 ? m1.millis : std::min(best1, m1.millis);
      best4 = rep == 0 ? m4.millis : std::min(best4, m4.millis);
    }
    if (!ok) break;
    double speedup = best4 > 0 ? best1 / best4 : 0;
    std::printf("%-24s %8d | %10.2f %10.2f | %8.2fx | %6zu\n", w.name, 300,
                best1, best4, speedup, m4.rows.size());
    report.Add(std::string(w.name) + ":threads=1", best1,
               m1.metrics.seeded_nodes, m1.metrics.matcher_steps,
               m1.rows.size());
    report.Add(std::string(w.name) + ":threads=4", best4,
               m4.metrics.seeded_nodes, m4.metrics.matcher_steps,
               m4.rows.size(), {{"speedup", speedup}});

    if (m1.rows != m4.rows) {
      std::fprintf(stderr,
                   "FAIL %s: 4-thread rows differ from sequential rows "
                   "(%zu vs %zu, or order changed)\n",
                   w.name, m4.rows.size(), m1.rows.size());
      ok = false;
    }
    if (m1.metrics.matcher_steps != m4.metrics.matcher_steps) {
      std::fprintf(stderr,
                   "FAIL %s: sharding changed the executed instruction "
                   "count (%zu vs %zu)\n",
                   w.name, m1.metrics.matcher_steps,
                   m4.metrics.matcher_steps);
      ok = false;
    }
  }

  CheckFanOut(g, &report, &ok);

  report.Write();
  std::printf(ok ? "parallel contract holds: identical ordered rows and "
                   "steps, pinned fan-out\n"
                 : "parallel contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
