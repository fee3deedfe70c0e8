// Planner effectiveness on the Figure 4 fraud-query workload: seeded start
// nodes, matcher steps and rows at increasing graph scale, each pinned
// exactly, run under ctest as a regression gate: it exits non-zero if any
// counter leaves its pin.
// Every pin also records what the unplanned engine (declarations as
// written, forward, label-scan seeding, no seed or target restriction)
// counted on the same cell, and the contract checks that the planned seeds
// and steps stay strictly below those recorded values, so a pin can only be
// moved in the planner's favour. The rows' content is checked against the
// §6.5 reference join in tests/differential_test.cc.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"

namespace gpml {
namespace {

/// A cell's exact counters.
struct Counters {
  size_t seeds;
  size_t steps;
  size_t rows;
};

struct Workload {
  const char* name;
  std::string query;
  // Per scale (100 and 300 accounts): the planned counters, and the
  // unplanned engine's seeds and steps on the same cell (rows were equal).
  Counters pinned[2];
  Counters unplanned[2];
};

struct Measurement {
  size_t rows = 0;
  EngineMetrics metrics;
  double millis = 0;
};

Measurement Measure(const PropertyGraph& g, const std::string& query,
                    bool* ok) {
  Measurement m;
  EngineOptions options;
  options.metrics = &m.metrics;
  Engine engine(g, options);
  auto start = std::chrono::steady_clock::now();
  Result<MatchOutput> out = engine.Match(query);
  auto end = std::chrono::steady_clock::now();
  m.millis = std::chrono::duration<double, std::milli>(end - start).count();
  if (!out.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", query.c_str(),
                 out.status().ToString().c_str());
    *ok = false;
    return m;
  }
  m.rows = out->rows.size();
  return m;
}

/// `what` of `workload@accounts` equals its pin, and the pin stays strictly
/// below the unplanned engine's count when one is given.
void CheckCounter(const char* workload, int accounts, const char* what,
                  size_t actual, size_t pinned, const size_t* unplanned,
                  bool* ok) {
  if (actual != pinned) {
    std::fprintf(stderr, "FAIL %s@%d: %zu %s, pinned %zu\n", workload,
                 accounts, actual, what, pinned);
    *ok = false;
  }
  if (unplanned != nullptr && pinned >= *unplanned) {
    std::fprintf(stderr,
                 "FAIL %s@%d: pinned %s %zu not below the unplanned %zu\n",
                 workload, accounts, what, pinned, *unplanned);
    *ok = false;
  }
}

int RunBench() {
  const Workload workloads[] = {
      {"fig4_fraud_any",
       "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
       "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
       "(y:Account WHERE y.isBlocked='yes'), "
       "ANY (x)-[:Transfer]->+(y)",
       {{54, 71176, 246}, {112, 421958, 581}},
       {{287, 170527, 246}, {858, 1506550, 581}}},
      {"fig4_fraud_shortest_witness",
       "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
       "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
       "(y:Account WHERE y.isBlocked='yes'), "
       "ANY SHORTEST p = (x)-[:Transfer]->+(y)",
       {{54, 71176, 246}, {112, 421958, 581}},
       {{287, 170527, 246}, {858, 1506550, 581}}},
      {"fig4_colocation_join",
       "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
       "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
       "(y:Account WHERE y.isBlocked='yes'), "
       "(x)-[t:Transfer]->(y2:Account), (y2)-[t2:Transfer]->(y)",
       {{136, 1480, 34}, {311, 3359, 34}},
       {{474, 4364, 34}, {1416, 14132, 34}}},
  };

  bool ok = true;
  bench::JsonReport report("planner");
  std::printf("%-28s %8s | %10s %10s | %12s %12s | %9s | %6s\n", "workload",
              "accounts", "seeds", "unplanned", "steps", "unplanned", "ms",
              "rows");
  const int scales[] = {100, 300};
  // The graphs outlive the loop so that BENCH_planner.prom snapshots their
  // metrics registries.
  std::vector<PropertyGraph> graphs;
  graphs.reserve(2);
  for (int s = 0; s < 2; ++s) {
    const int accounts = scales[s];
    FraudGraphOptions options;
    options.num_accounts = accounts;
    options.num_cities = std::max(2, accounts / 100);
    const PropertyGraph& g = graphs.emplace_back(MakeFraudGraph(options));
    for (const Workload& w : workloads) {
      const Counters& pin = w.pinned[s];
      const Counters& off = w.unplanned[s];
      Measurement m = Measure(g, w.query, &ok);
      std::printf("%-28s %8d | %10zu %10zu | %12zu %12zu | %9.2f | %6zu\n",
                  w.name, accounts, m.metrics.seeded_nodes, off.seeds,
                  m.metrics.matcher_steps, off.steps, m.millis, m.rows);
      report.Add(std::string(w.name) + "@" + std::to_string(accounts),
                 m.millis, m.metrics.seeded_nodes, m.metrics.matcher_steps,
                 m.rows,
                 {{"pinned_steps", static_cast<double>(pin.steps)},
                  {"unplanned_seeds", static_cast<double>(off.seeds)},
                  {"unplanned_steps", static_cast<double>(off.steps)}});
      CheckCounter(w.name, accounts, "seeds", m.metrics.seeded_nodes,
                   pin.seeds, &off.seeds, &ok);
      CheckCounter(w.name, accounts, "steps", m.metrics.matcher_steps,
                   pin.steps, &off.steps, &ok);
      CheckCounter(w.name, accounts, "rows", m.rows, pin.rows, nullptr, &ok);
    }
  }
  report.Write();
  std::printf(ok ? "planner contract holds: pinned seeds, steps and rows; "
                   "seeds and steps below the unplanned engine's\n"
                 : "planner contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
