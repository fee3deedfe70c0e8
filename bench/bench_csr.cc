// Interned-CSR storage contracts on the fraud-300 workloads, run under
// ctest as a regression gate (see docs/storage.md):
//
//  1. Partitioned expansion (always enforced): on the expansion-heavy
//     fraud-300 graph (300 accounts, 100 transfers per account — high-
//     degree nodes with mixed edge labels) each expansion workload must
//     execute exactly its pinned number of matcher steps at one thread,
//     run as written through RunPattern (the test harness's compiled
//     declaration; no planner in between). An edge step that scans its
//     label's CSR bucket visits only the records that carry the label; a
//     step that fell back to scanning the full adjacency list would charge
//     ~100x more steps, so the gate fails on such a regression with no
//     timing noise. Wall time is reported, not gated. The selector route
//     is pinned the same way on Figure 4's transfer chain (fraud-300
//     matrix graph, one thread, through the engine and its planner), under
//     ANY and ALL SHORTEST, each also run with max_matches set to exactly
//     the bindings its declarations keep: exact (pc, node, start) visit
//     keys fix the ANY step count, and a search that stopped gating
//     accepts per endpoint partition or restricting them to the bound end
//     nodes exceeds that budget. Three more pins sum perfbench `paths`'
//     statements over a fixed suspect list: the ANY statement (inline
//     target WHERE, the witness route), the TRAIL statement (the DFS
//     under a restrictor scope) and the city join (the selector BFS, then
//     the witness route). Each route must charge exactly the steps the
//     search it replaced charged for the same programs.
//  2. Byte-identity (always enforced): identical rows in identical order
//     across {threads 1, 8}. (The rows themselves are checked against the
//     §6.5 reference join on small graphs in tests/differential_test.cc.)
//  3. Index-backed seeding (always enforced): on the equality-predicate
//     workload, (label, prop) = value index seeding strictly reduces
//     seeded starts vs label-scan seeding, rows stay identical, and
//     EXPLAIN surfaces the choice as source=index:<label>.<prop>. The
//     label-scan oracle is the same workload with its equalities moved to
//     the postfilter WHERE, which the planner never index-seeds (EXPLAIN
//     must show source=label:<label> for it).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

/// The expansion-heavy fraud-300 configuration: every Account node has
/// ~200 Transfer adjacencies next to a handful of isLocatedIn/hasPhone/
/// signInWithIP records, so a full-list scan along a selective edge label
/// would be dominated by label rejects.
PropertyGraph MakeExpansionGraph() {
  FraudGraphOptions options;
  options.num_accounts = 300;
  options.num_cities = 3;
  options.transfers_per_account = 100;
  return MakeFraudGraph(options);
}

/// The regular fraud-300 graph (bench_parallel's configuration) for the
/// byte-identity matrix and the seeding gate.
PropertyGraph MakeMatrixGraph() {
  FraudGraphOptions options;
  options.num_accounts = 300;
  options.num_cities = 3;
  return MakeFraudGraph(options);
}

struct Workload {
  const char* name;
  std::string query;
};

/// A workload and the exact matcher steps it executes at one thread.
/// `max_matches`, when non-zero, runs it under that match budget.
struct PinnedWorkload {
  const char* name;
  std::string query;
  size_t steps;
  size_t max_matches = 0;
};

/// Figure 4: co-located unblocked and blocked accounts, then a transfer
/// chain between them under a selector.
const std::string kFig4Colocated =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), ";
const std::string kFig4FraudAny = kFig4Colocated + "ANY (x)-[:Transfer]->+(y)";
const std::string kFig4FraudAllShortest =
    kFig4Colocated + "ALL SHORTEST (x)-[:Transfer]->+(y)";

/// The expansion workloads over the CSR buckets (as written, batch matcher
/// on). A full-list scan ran 6,172,780 / 61,062 / 61,065 steps on
/// the same workloads.
const PinnedWorkload kExpansionWorkloads[] = {
    {"paper_sec2_shared_phone",
     "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->"
     "(d:Account)~[:hasPhone]~(p)",
     90480},
    {"located_in_ankh_morpork",
     "MATCH (a:Account)-[:isLocatedIn]->(c:City WHERE "
     "c.name='Ankh-Morpork')",
     600},
    {"city_account_blocked_phone",
     "MATCH (c:City)<-[:isLocatedIn]-(a:Account)~[:hasPhone]~"
     "(p:Phone WHERE p.isBlocked='yes')",
     603},
};

/// The selector route on the matrix graph (planned): the chain is
/// seeded from the co-location step's x values and kept to its y values.
/// The co-location step keeps 588 bindings; the ANY chain 581 and the ALL
/// SHORTEST chain 1,297. Before the selector route gated accepts per
/// endpoint partition, keyed ANY visits on exact (pc, node, start) and
/// restricted accepts to bound end nodes, the ANY chain ran 1,080,089
/// steps and needed max_matches 97,947 (ALL SHORTEST: 2,323,810 steps, as
/// now, and 210,770).
const PinnedWorkload kSelectorWorkloads[] = {
    {"fig4_fraud_any", kFig4FraudAny, 421958, /*max_matches=*/588},
    {"fig4_fraud_all_shortest", kFig4FraudAllShortest, 2323810,
     /*max_matches=*/1297},
};

/// perfbench `paths`' statements with each suspect inlined as a literal
/// (the planner index-seeds them from the one matching account), each
/// pinned as the sum of its steps over a fixed suspect list. `query` holds
/// the statement with "$owner" where the suspect goes.
///  - paths_any_blocked: the selector route with an inline target WHERE on
///    the endpoint it accepts at (the witness route).
///  - paths_trail: TRAIL {1,3}, the per-seed DFS under a restrictor scope.
///  - paths_city: Figure 4's city join, whose fixed-length declaration
///    carries an ANY selector (the general selector BFS) before the ANY
///    chain (the witness route).
constexpr const char* kPathsSuspects[] = {"u0",   "u20",  "u40",  "u60",
                                          "u80",  "u100", "u120", "u140",
                                          "u160", "u180", "u200", "u220",
                                          "u240", "u260", "u280"};

const PinnedWorkload kPathsWorkloads[] = {
    {"paths_any_blocked",
     "MATCH ANY (x:Account WHERE x.owner='$owner')-[:Transfer]->+"
     "(y:Account WHERE y.isBlocked='yes')",
     72037},
    {"paths_trail",
     "MATCH TRAIL (x:Account WHERE x.owner='$owner')-[:Transfer]->{1,3}"
     "(y:Account)",
     10235},
    {"paths_city",
     "MATCH ANY (x:Account WHERE x.owner='$owner')-[:isLocatedIn]->"
     "(g:City)<-[:isLocatedIn]-(y:Account WHERE y.isBlocked='yes'), "
     "ANY (x)-[:Transfer]->+(y)",
     79224},
};

std::string WithOwner(const std::string& query, const char* owner) {
  std::string out = query;
  out.replace(out.find("$owner"), 6, owner);
  return out;
}

const Workload kMatrixWorkloads[] = {
    {"paper_sec2_shared_phone",
     "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->"
     "(d:Account)~[:hasPhone]~(p)"},
    {"fig4_fraud_any", kFig4FraudAny},
    {"trail_transfers",
     "MATCH TRAIL (a:Account WHERE a.owner='u0')-[:Transfer]->{1,3}"
     "(b:Account WHERE b.isBlocked='yes')"},
};

const Workload kSeedingWorkload = {
    "blocked_to_unblocked_transfer",
    "MATCH (x:Account WHERE x.isBlocked='yes')-[:Transfer]->"
    "(y:Account WHERE y.isBlocked='no')"};

/// kSeedingWorkload's label-scan twin: the same equalities as postfilter
/// conjuncts instead of inline endpoint predicates.
constexpr char kLabelScanQuery[] =
    "MATCH (x:Account)-[:Transfer]->(y:Account) "
    "WHERE x.isBlocked='yes' AND y.isBlocked='no'";

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
                    const EngineOptions& base, bool* ok, int reps = 5) {
  Measurement m;
  EngineOptions options = base;
  options.metrics = &m.metrics;
  Engine engine(g, options);
  Result<MatchOutput> warm = engine.Match(query);  // Plan cache + stats.
  if (!warm.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n", query.c_str(),
                 warm.status().ToString().c_str());
    *ok = false;
    return m;
  }
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    Result<MatchOutput> out = engine.Match(query);
    double ms = MillisSince(start);
    if (!out.ok()) {
      *ok = false;
      return m;
    }
    if (rep == 0 || ms < m.millis) m.millis = ms;
    if (rep == 0) m.rows = testing_util::OrderedRows(*out, g);
  }
  return m;
}

/// Checks `w`'s exact matcher steps against the pin; `hint` names the
/// likely regression in the failure message.
void CheckSteps(const PinnedWorkload& w, size_t seeds, size_t steps,
                size_t rows, double millis, const char* hint,
                bench::JsonReport* report, bool* ok) {
  std::printf("%-28s | %10.3f | %10zu %10zu\n", w.name, millis, steps,
              w.steps);
  report->Add(w.name, millis, seeds, steps, rows,
              {{"pinned_steps", static_cast<double>(w.steps)}});
  if (steps != w.steps) {
    std::fprintf(stderr, "FAIL %s: %zu matcher steps, pinned %zu (%s)\n",
                 w.name, steps, w.steps, hint);
    *ok = false;
  }
}

/// Runs `w`'s declaration as written through RunPattern at one thread:
/// a pure matcher measurement (best of 5).
void CheckMatcherPinned(const PropertyGraph& g, const PinnedWorkload& w,
                        bench::JsonReport* report, bool* ok) {
  testing_util::CompiledDecl c = testing_util::Compile(g, w.query);
  if (!c.status.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 c.status.ToString().c_str());
    *ok = false;
    return;
  }
  MatcherOptions options;
  options.num_threads = 1;
  testing_util::RouteRun run;
  double millis = 0;
  for (int rep = 0; rep < 5; ++rep) {
    auto start = std::chrono::steady_clock::now();
    run = testing_util::RunOnce(g, c.program, *c.vars, options, false);
    double ms = MillisSince(start);
    if (!run.status.ok()) {
      std::fprintf(stderr, "query failed: %s\n  %s\n", w.query.c_str(),
                   run.status.ToString().c_str());
      *ok = false;
      return;
    }
    if (rep == 0 || ms < millis) millis = ms;
  }
  CheckSteps(w, run.seeds, run.steps, run.rows.size(), millis,
             "did an edge step stop scanning its CSR bucket?", report, ok);
}

/// Runs `w` through the engine at one thread (under its max_matches, when
/// set) and checks its exact matcher steps against the pin.
void CheckPinned(const PropertyGraph& g, const PinnedWorkload& w,
                 bench::JsonReport* report, bool* ok) {
  EngineOptions base;
  base.num_threads = 1;
  if (w.max_matches > 0) base.matcher.max_matches = w.max_matches;
  Measurement m = Measure(g, w.query, base, ok);
  if (!*ok) {
    if (w.max_matches > 0) {
      std::fprintf(stderr,
                   "FAIL %s: refused under max_matches %zu (did the "
                   "selector route stop gating accepts per endpoint "
                   "partition, or stop restricting them to bound end "
                   "nodes?)\n",
                   w.name, w.max_matches);
    }
    return;
  }
  CheckSteps(w, m.metrics.seeded_nodes, m.metrics.matcher_steps,
             m.rows.size(), m.millis,
             "did ANY visits stop keying on exact (pc, node, start)?", report,
             ok);
}

/// Runs `w` once per suspect at one thread and checks the summed matcher
/// steps against its pin.
void CheckPathsPin(const PropertyGraph& g, const PinnedWorkload& w,
                   bench::JsonReport* report, bool* ok) {
  EngineOptions base;
  base.num_threads = 1;
  size_t seeds = 0;
  size_t steps = 0;
  size_t rows = 0;
  double millis = 0;
  for (const char* owner : kPathsSuspects) {
    Measurement m = Measure(g, WithOwner(w.query, owner), base, ok);
    if (!*ok) return;
    seeds += m.metrics.seeded_nodes;
    steps += m.metrics.matcher_steps;
    rows += m.rows.size();
    millis += m.millis;
  }
  CheckSteps(w, seeds, steps, rows, millis,
             "did a route stop charging one step per adjacency candidate "
             "and per epsilon instruction?",
             report, ok);
}

int RunBench() {
  bool ok = true;
  bench::JsonReport report("csr");

  // --- 1. pinned matcher steps --------------------------------------------
  {
    PropertyGraph g = MakeExpansionGraph();
    std::printf("expansion graph: %s\n", g.Summary().c_str());
    std::printf("%-28s | %10s | %10s %10s\n", "workload", "ms", "steps",
                "pinned");
    for (const PinnedWorkload& w : kExpansionWorkloads) {
      CheckMatcherPinned(g, w, &report, &ok);
      if (!ok) break;
    }
  }
  if (ok) {
    PropertyGraph g = MakeMatrixGraph();
    for (const PinnedWorkload& w : kSelectorWorkloads) {
      CheckPinned(g, w, &report, &ok);
      if (!ok) break;
    }
    for (const PinnedWorkload& w : kPathsWorkloads) {
      if (ok) CheckPathsPin(g, w, &report, &ok);
    }
  }

  // --- 2. byte-identity matrix --------------------------------------------
  // Both thread counts must be byte-identical (same rows, same order).
  {
    PropertyGraph g = MakeMatrixGraph();
    for (const Workload& w : kMatrixWorkloads) {
      std::vector<std::string> baseline;
      for (size_t threads : {size_t{1}, size_t{8}}) {
        EngineOptions base;
        base.num_threads = threads;
        // Force real sharding even on short seed lists.
        base.matcher.min_seeds_per_shard = 1;
        Measurement m = Measure(g, w.query, base, &ok, /*reps=*/1);
        if (!ok) break;
        if (threads == 1) {
          baseline = std::move(m.rows);
        } else if (m.rows != baseline) {
          std::fprintf(stderr,
                       "FAIL %s: rows differ at threads=%zu (%zu vs %zu "
                       "rows)\n",
                       w.name, threads, m.rows.size(), baseline.size());
          ok = false;
        }
      }
      std::printf("byte-identity %-28s: %4zu rows identical over "
                  "{threads 1,8}\n",
                  w.name, baseline.size());
    }
  }

  // --- 3. index-backed seeding --------------------------------------------
  {
    PropertyGraph g = MakeMatrixGraph();
    EngineOptions base;
    base.num_threads = 1;
    Measurement scan = Measure(g, kLabelScanQuery, base, &ok);
    Measurement indexed = Measure(g, kSeedingWorkload.query, base, &ok);
    if (ok) {
      std::printf(
          "seeding %-28s: label-scan %zu seeds %.3fms, index %zu seeds "
          "%.3fms\n",
          kSeedingWorkload.name, scan.metrics.seeded_nodes, scan.millis,
          indexed.metrics.seeded_nodes, indexed.millis);
      report.Add(std::string(kSeedingWorkload.name) + ":seed=label",
                 scan.millis, scan.metrics.seeded_nodes,
                 scan.metrics.matcher_steps, scan.rows.size());
      report.Add(std::string(kSeedingWorkload.name) + ":seed=index",
                 indexed.millis, indexed.metrics.seeded_nodes,
                 indexed.metrics.matcher_steps, indexed.rows.size());
      if (indexed.rows != scan.rows) {
        std::fprintf(stderr, "FAIL seeding: index seeding changed rows\n");
        ok = false;
      }
      if (indexed.metrics.seeded_nodes >= scan.metrics.seeded_nodes) {
        std::fprintf(stderr,
                     "FAIL seeding: index did not reduce seeds (%zu vs "
                     "%zu)\n",
                     indexed.metrics.seeded_nodes, scan.metrics.seeded_nodes);
        ok = false;
      }
      if (indexed.metrics.matcher_steps >= scan.metrics.matcher_steps) {
        std::fprintf(stderr,
                     "FAIL seeding: index did not reduce matcher steps "
                     "(%zu vs %zu)\n",
                     indexed.metrics.matcher_steps,
                     scan.metrics.matcher_steps);
        ok = false;
      }
      if (indexed.metrics.index_seeded_decls == 0) {
        std::fprintf(stderr, "FAIL seeding: no declaration used the index\n");
        ok = false;
      }

      Engine engine(g);
      auto explains = [&](const std::string& query, const char* source) {
        Result<std::string> explain = engine.Explain(query);
        if (explain.ok() && explain->find(source) != std::string::npos) {
          return true;
        }
        std::fprintf(stderr, "FAIL seeding: EXPLAIN does not show %s:\n%s\n",
                     source,
                     explain.ok() ? explain->c_str()
                                  : explain.status().ToString().c_str());
        return false;
      };
      if (explains(kSeedingWorkload.query, "source=index:Account.isBlocked") &&
          explains(kLabelScanQuery, "source=label:Account")) {
        std::printf("seed: index=Account.isBlocked vs label=Account "
                    "(EXPLAIN verified)\n");
      } else {
        ok = false;
      }
    }
  }

  report.Write();
  std::printf(ok ? "csr contract holds: pinned matcher steps, identical "
                   "rows, index-backed seeding\n"
                 : "csr contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
