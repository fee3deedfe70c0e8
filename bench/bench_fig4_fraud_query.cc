// E4 (Figure 4): the flagship fraud query — unblocked and blocked accounts
// co-located in one city, connected by a chain of transfers — at increasing
// graph scale, for the GPML engine and the classic CRPQ baseline (§3's
// SPARQL-style endpoint semantics).
//
// Expected shape (no absolute numbers exist in the paper): both scale
// polynomially; the CRPQ baseline is cheaper since it never materializes
// paths — exactly the §5/§8 finiteness discussion.

#include <benchmark/benchmark.h>

#include "baseline/crpq.h"
#include "bench_util.h"

namespace gpml {
namespace {

using bench::RunOrDie;

PropertyGraph& Graph(int accounts) {
  static auto* cache = new std::map<int, PropertyGraph>();
  auto it = cache->find(accounts);
  if (it == cache->end()) {
    FraudGraphOptions options;
    options.num_accounts = accounts;
    options.num_cities = std::max(2, accounts / 100);
    it = cache->emplace(accounts, MakeFraudGraph(options)).first;
  }
  return it->second;
}

void BM_Fig4_Gpml(benchmark::State& state) {
  PropertyGraph& g = Graph(static_cast<int>(state.range(0)));
  const std::string query =
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
      "(y:Account WHERE y.isBlocked='yes'), "
      "ANY (x)-[:Transfer]->+(y)";
  size_t rows = 0;
  for (auto _ : state) {
    rows = RunOrDie(g, query);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_Fig4_Gpml)->Arg(100)->Arg(300)->Arg(1000)->Unit(
    benchmark::kMillisecond);

void BM_Fig4_CrpqBaseline(benchmark::State& state) {
  PropertyGraph& g = Graph(static_cast<int>(state.range(0)));
  baseline::CrpqQuery q;
  q.atoms = {{"x", "isLocatedIn", "g"},
             {"y", "isLocatedIn", "g"},
             {"x", "Transfer+", "y"}};
  q.filters = {{"x", "Account", "isBlocked", Value::String("no")},
               {"y", "Account", "isBlocked", Value::String("yes")},
               {"g", "", "name", Value::String("Ankh-Morpork")}};
  q.output_vars = {"x", "y"};
  size_t rows = 0;
  for (auto _ : state) {
    Result<Table> t = baseline::EvalCrpq(g, q);
    if (!t.ok()) std::abort();
    rows = t->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_Fig4_CrpqBaseline)->Arg(100)->Arg(300)->Arg(1000)->Unit(
    benchmark::kMillisecond);

void BM_Fig4_GpmlWithShortestWitness(benchmark::State& state) {
  // Variant returning one witness path per pair (ANY SHORTEST), the
  // Cypher-style rendition of §3.
  PropertyGraph& g = Graph(static_cast<int>(state.range(0)));
  const std::string query =
      "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
      "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
      "(y:Account WHERE y.isBlocked='yes'), "
      "ANY SHORTEST p = (x)-[:Transfer]->+(y)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunOrDie(g, query));
  }
}
BENCHMARK(BM_Fig4_GpmlWithShortestWitness)->Arg(100)->Arg(300)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gpml
