// The paper's figures and sections as one exact-counter contract, run under
// ctest as a regression gate (docs/benchmarks.md). No wall time is taken:
// the counters are the cost, and they hold in every build type.
//
//  1. Every GPML query that illustrates a figure or section runs once
//     through the engine at one thread, on the smallest graph that shows
//     it, and must return exactly its pinned rows after exactly its pinned
//     matcher steps. Figure 7's cliques and Figure 8's diamond chains also
//     run one size up, where the enumeration cost the paper describes (the
//     TRAIL wall of §8, 2^k shortest paths) shows in the counters. Figure
//     4's own pins live in bench_planner and bench_csr.
//  2. Where the §6 reference evaluator can afford it, a row's content must
//     equal the reference join's (RunReferencePattern) as sorted rows; ANY
//     and SHORTEST k compare as endpoint pairs (plus lengths), since which
//     witnesses they keep is the evaluator's choice.
//  3. §7.2: ANY SHORTEST over a quantified path pattern is the shortest
//     path under a regular expression; across the 1000-node cycle its one
//     path from u0 to u999 must have the closed-form length 999. (§3's
//     Figure 4 CRPQ pairs are pinned by paper_examples_test.)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "graph/sample_graph.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

/// A query, its exact row count and matcher steps at one thread, and
/// whether its rows are checked against the reference join. The check is
/// off where the reference is too costly: without a restrictor it expands
/// every walk up to 2|N|+2 edges (ANY, ANY SHORTEST on graphs with cycles),
/// and under TRAIL every walk up to |E|+1 edges per quantifier (seconds on
/// K4 and on §5.1's two-quantifier query; fig7_trail_on_k3 checks the same
/// TRAIL query, and selector_test holds §5.1's paths).
struct PaperRow {
  const char* name;
  std::string query;
  size_t rows;
  size_t steps;
  bool reference = true;
};

/// The rows that run on one graph.
struct GraphRows {
  const char* graph;
  PropertyGraph (*make)();
  std::vector<PaperRow> rows;
};

PropertyGraph Fraud(int accounts, int cities = 10, int transfers = 4) {
  FraudGraphOptions options;
  options.num_accounts = accounts;
  options.num_cities = cities;
  options.transfers_per_account = transfers;
  return MakeFraudGraph(options);
}

std::string Fig7(const char* restrictor) {
  return std::string("MATCH ") + restrictor +
         " (a WHERE a.owner='u0')-[:Transfer]->*(b WHERE b.owner='u1')";
}

/// SIMPLE paths from u0 back to itself: the cycles through u0.
constexpr char kFig7Cycles[] =
    "MATCH SIMPLE (a WHERE a.owner='u0')-[:Transfer]->*(a)";

std::string Fig8(const char* selector, int diamonds) {
  return std::string("MATCH ") + selector +
         " p = (a WHERE a.owner='s0')-[:Transfer]->*(b WHERE b.owner='s" +
         std::to_string(diamonds) + "')";
}

std::string DaveToAretha(const char* restrictor) {
  return std::string("MATCH ") + restrictor +
         " (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')";
}

/// §7.2's question in GPML, across the 1000-node cycle.
constexpr char kSec72Query[] =
    "MATCH ANY SHORTEST p = (a WHERE a.owner='u0')-[:Transfer]->*"
    "(b WHERE b.owner='u999')";

/// The table, one group per graph. Figure 7's cliques and Figure 8's
/// diamond chains run at two sizes; every other query at the smallest
/// graph that illustrates it.
const std::vector<GraphRows>& PaperTable() {
  static const std::vector<GraphRows>* table = new std::vector<GraphRows>{
      {"fraud-100", [] { return Fraud(100); },
       {  // Figure 3: the three basic pattern shapes.
        {"fig3a_node", "MATCH (x:Account WHERE x.isBlocked='yes')", 10, 10},
        {"fig3b_edge",
         "MATCH (x:Account WHERE x.isBlocked='yes')-[e:Transfer WHERE "
         "e.amount>5M]->(y:Account WHERE y.isBlocked='no')", 23, 90},
        {"fig3c_path_any",
         "MATCH ANY (x:Account WHERE x.isBlocked='no')-[:Transfer]->+"
         "(y:Account WHERE y.isBlocked='yes')",
         870, 142478, false}}},
      {"random-2000", [] { return MakeRandomGraph(2000, 8000, 4, 0.3, 99); },
       {  // Figure 5: the seven edge orientations, and a label disjunction.
        {"fig5_right", "MATCH (x)-[e]->(y)", 5601, 17999},
        {"fig5_left", "MATCH (x)<-[e]-(y)", 5601, 17999},
        {"fig5_undirected", "MATCH (x)~[e]~(y)", 4797, 17999},
        {"fig5_left_or_undirected", "MATCH (x)<~[e]~(y)", 10398, 17999},
        {"fig5_undirected_or_right", "MATCH (x)~[e]~>(y)", 10398, 17999},
        {"fig5_left_or_right", "MATCH (x)<-[e]->(y)", 11200, 17999},
        {"fig5_any_direction", "MATCH (x)-[e]-(y)", 15997, 17999},
        {"fig5_label_disjunction", "MATCH (x)-[e:L0|L1]->(y)", 2801, 17999}}},
      {"chain-3000", [] { return MakeChainGraph(3000); },
       {  // Figure 6: fixed and ranged quantifiers.
        {"fig6_fixed_on_chain", "MATCH (a)-[:Transfer]->{1}(b)", 2999, 29994},
        {"fig6_range_on_chain", "MATCH (a)-[:Transfer]->{1,2}(b)", 5997,
         59979}}},
      {"cycle-64", [] { return MakeCycleGraph(64); },
       {{"fig6_range_on_cycle",
         "MATCH (a WHERE a.owner='u0')-[:Transfer]->{1,8}(b)", 8, 143},
        // Also Figure 7's TRAIL on a sparse cycle.
        {"fig6_trail_star_on_cycle",
         "MATCH TRAIL (a WHERE a.owner='u0')-[:Transfer]->*(b)", 65, 905}}},
      {"fraud-500", [] { return Fraud(500); },
       {  // Figure 6: group aggregates; Figure 9: the match both hosts
          // consume.
        {"fig6_group_sum_postfilter",
         "MATCH (a:Account) [()-[t:Transfer WHERE t.amount>1M]->()]{2,3} "
         "(b:Account) WHERE SUM(t.amount)>10M", 29129, 243683},
        {"fig6_iteration_prefilter",
         "MATCH (a:Account) [()-[t:Transfer WHERE t.amount>9M]->()]{2,3} "
         "(b:Account)", 1026, 23637},
        {"fig9_host_match",
         "MATCH (x:Account WHERE x.isBlocked='no')-[t:Transfer WHERE "
         "t.amount>5M]->(y:Account WHERE y.isBlocked='yes')", 93, 369}}},
      {"complete-3", [] { return MakeCompleteGraph(3); },
       {  // Figure 7: restrictors on cliques.
        {"fig7_trail_on_k3", Fig7("TRAIL"), 9, 417}}},
      {"complete-4", [] { return MakeCompleteGraph(4); },
       {{"fig7_trail_on_k4", Fig7("TRAIL"), 1085, 75689, false},
        {"fig7_acyclic_on_k4", Fig7("ACYCLIC"), 5, 239},
        {"fig7_simple_cycle_on_k4", kFig7Cycles, 16, 471}}},
      {"complete-5", [] { return MakeCompleteGraph(5); },
       {{"fig7_acyclic_on_k5", Fig7("ACYCLIC"), 16, 1079},
        {"fig7_simple_cycle_on_k5", kFig7Cycles, 65, 2201}}},
      {"paper", [] { return BuildPaperGraph(); },
       {  // Figure 7 on §5.1's query, Figure 8's selector over a
          // restrictor, and §6's running example.
        {"fig7_paper_trail", DaveToAretha("TRAIL"), 3, 302},
        {"fig7_paper_acyclic", DaveToAretha("ACYCLIC"), 2, 146},
        {"fig7_paper_simple", DaveToAretha("SIMPLE"), 2, 168},
        {"fig8_all_shortest_trail",
         "MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')"
         "-[t:Transfer]->*(b WHERE b.owner='Aretha')"
         "-[r:Transfer]->*(c WHERE c.owner='Mike')",
         2, 462, false},
        {"sec6_running_example", "MATCH TRAIL (a WHERE a.owner='Jay')"
         "[-[b:Transfer WHERE b.amount>5M]->]+"
         "(a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]",
         2, 156}}},
      {"diamond-4", [] { return MakeDiamondChain(4); },
       {  // Figure 8: selectors on diamond chains.
        {"fig8_any_shortest_d4", Fig8("ANY SHORTEST", 4), 1, 147},
        {"fig8_all_shortest_d4", Fig8("ALL SHORTEST", 4), 16, 664},
        {"fig8_any_d4", Fig8("ANY", 4), 1, 147},
        {"fig8_any_5_d4", Fig8("ANY 5", 4), 5, 516},
        {"fig8_shortest_5_d4", Fig8("SHORTEST 5", 4), 5, 516},
        {"fig8_shortest_2_group_d4", Fig8("SHORTEST 2 GROUP", 4), 16, 664}}},
      {"diamond-8", [] { return MakeDiamondChain(8); },
       {{"fig8_any_shortest_d8", Fig8("ANY SHORTEST", 8), 1, 287},
        {"fig8_all_shortest_d8", Fig8("ALL SHORTEST", 8), 256, 10996},
        {"fig8_any_d8", Fig8("ANY", 8), 1, 287},
        {"fig8_any_5_d8", Fig8("ANY 5", 8), 5, 1328},
        {"fig8_shortest_5_d8", Fig8("SHORTEST 5", 8), 5, 1328},
        {"fig8_shortest_2_group_d8", Fig8("SHORTEST 2 GROUP", 8), 256, 10996}}},
      {"grid-3", [] { return MakeGridGraph(3, 3); },
       {{"fig8_all_shortest_on_grid",
         "MATCH ALL SHORTEST p = (a WHERE a.owner='u0')-[:Transfer]->*"
         "(b WHERE b.owner='u8')", 6, 214}}},
      {"fraud-300/3-transfers", [] { return Fraud(300, 10, 3); },
       {  // §4.2: concatenation.
        {"sec42_one_hop", "MATCH (n0:Account)-[:Transfer]->(n1)", 900, 2100},
        {"sec42_mixed_orientation", "MATCH (p:Phone)~[e:hasPhone]~(a1:Account)"
         "-[t:Transfer WHERE t.amount>1M]->(a2)", 829, 2280},
        {"sec42_shared_phone",
         "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->"
         "(d:Account)~[:hasPhone]~(p)", 10, 3180}}},
      {"fraud-400", [] { return Fraud(400); },
       {  // §4.3: one path vs joined declarations; §7.1: match modes, and
          // a path variable for JSON export.
        {"sec43_single_path",
         "MATCH (p:Phone WHERE p.isBlocked='yes')~[:hasPhone]~(s:Account)"
         "-[t:Transfer WHERE t.amount>1M]->()", 40, 111},
        {"sec43_two_decl_join",
         "MATCH (p:Phone WHERE p.isBlocked='yes')~[:hasPhone]~(s:Account), "
         "(s)-[t:Transfer WHERE t.amount>1M]->()", 40, 122},
        {"sec43_three_decl_join", "MATCH (s:Account)-[:signInWithIP]-(), "
         "(s)-[t:Transfer WHERE t.amount>1M]->(), "
         "(s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='yes')", 35, 127},
        {"sec43_cross_product", "MATCH (c:City WHERE c.name='Ankh-Morpork'), "
         "(p:Phone WHERE p.isBlocked='yes')", 4, 5},
        {"sec71_repeatable_elements",
         "MATCH (x)-[a:Transfer]->(y), (y)-[b:Transfer]->(z)", 6415, 7510},
        {"sec71_different_edges",
         "MATCH DIFFERENT EDGES (x)-[a:Transfer]->(y), (y)-[b:Transfer]->(z)",
         6411, 7510},
        {"sec71_different_nodes",
         "MATCH DIFFERENT NODES (x)-[a:Transfer]->(y), (y)-[b:Transfer]->(z)",
         6370, 7510},
        {"sec71_json_export_paths",
         "MATCH p = (x:Account WHERE x.isBlocked='yes')-[t:Transfer]->{2}(y)",
         629, 5069}}},
      {"cycle-48", [] { return MakeCycleGraph(48); },
       {  // §4.5: union vs multiset alternation.
        {"sec45_overlapping_union",
         "MATCH (a WHERE a.owner='u0')[->{1,5} | ->{3,7}](b)", 7, 166},
        {"sec45_overlapping_alternation",
         "MATCH (a WHERE a.owner='u0')[->{1,5} |+| ->{3,7}](b)", 10, 168},
        {"sec45_single_range", "MATCH (a WHERE a.owner='u0')->{1,7}(b)", 7,
         117}}},
      {"random-1000", [] { return MakeRandomGraph(1000, 4000, 4, 0.0, 5); },
       {{"sec45_label_disjunction", "MATCH (x)-[:L0|L1|L2|L3]->(y)", 4000,
         9000},
        {"sec45_label_union",
         "MATCH (x)[-[:L0]->(y) | -[:L1]->(y) | -[:L2]->(y) | -[:L3]->(y)]",
         4000, 30997}}},
      {"random-1500", [] { return MakeRandomGraph(1500, 6000, 3, 0.4, 21); },
       {  // §4.7: graphical predicates.
        {"sec47_no_predicate", "MATCH (x)-[e]-(y)", 11999, 13500},
        {"sec47_is_directed", "MATCH (x)-[e]-(y) WHERE e IS DIRECTED", 7297,
         13500},
        {"sec47_is_source_of", "MATCH (x)-[e]-(y) WHERE x IS SOURCE OF e",
         3649, 13500},
        {"sec47_all_different",
         "MATCH (x)-[e]->(y)-[f]->(z) WHERE ALL_DIFFERENT(x, y, z)", 8808,
         46407},
        {"sec47_same_postfilter",
         "MATCH (x)-[:L0]->(y)-[:L0]->(z)-[:L0]->(w) WHERE SAME(x, w)", 1,
         13788},
        {"sec47_variable_reuse",
         "MATCH (x)-[:L0]->(y)-[:L0]->(z)-[:L0]->(x)", 1, 13788}}},
      {"cycle-1000", [] { return MakeCycleGraph(1000); },
       {  // §7.2: shortest path under a regular expression (see CheckSec72).
        {"sec72_any_shortest_on_cycle", kSec72Query, 1, 11006, false}}},
  };
  return *table;
}

/// Checks `row`'s exact rows and steps on `g`, and its rows against the
/// reference join when it has that check.
void CheckRow(const PropertyGraph& g, const char* graph, const PaperRow& row,
              bench::JsonReport* report, bool* ok) {
  EngineMetrics metrics;
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;
  Result<MatchOutput> out = Engine(g, options).Match(row.query);
  if (!out.ok()) {
    std::fprintf(stderr, "FAIL %s: %s\n  %s\n", row.name, row.query.c_str(),
                 out.status().ToString().c_str());
    *ok = false;
    return;
  }
  const size_t rows = out->rows.size();
  const size_t steps = metrics.matcher_steps;
  bool differs = false;
  if (row.reference) {
    std::vector<std::string> want =
        testing_util::ReferenceJoinRows(g, row.query);
    differs = testing_util::SortedRows(*out, g) != want;
    if (differs) {
      std::fprintf(stderr,
                   "FAIL %s: rows differ from the reference join (%zu vs "
                   "%zu%s%s)\n",
                   row.name, rows, want.size(), want.size() == 1 ? ": " : "",
                   want.size() == 1 ? want[0].c_str() : "");
      *ok = false;
    }
  }
  std::printf("%-30s %-22s | %8zu %8zu | %10zu %10zu | %s\n", row.name,
              graph, rows, row.rows, steps, row.steps,
              !row.reference ? "-" : (differs ? "DIFFERS" : "equal"));
  report->Add(row.name, 0, metrics.seeded_nodes, steps, rows,
              {{"pinned_rows", static_cast<double>(row.rows)},
               {"pinned_steps", static_cast<double>(row.steps)}});
  if (rows != row.rows || steps != row.steps) {
    std::fprintf(stderr, "FAIL %s: %zu rows and %zu matcher steps, pinned "
                 "%zu and %zu\n", row.name, rows, steps, row.rows, row.steps);
    *ok = false;
  }
}

/// §7.2: ANY SHORTEST's path across the 1000-node cycle is its one path
/// from u0 to u999, of length 999.
void CheckSec72(bool* ok) {
  PropertyGraph g = MakeCycleGraph(1000);
  Result<MatchOutput> out = Engine(g).Match(kSec72Query);
  const size_t length = out.ok() && out->rows.size() == 1
                            ? out->rows[0].bindings[0]->path.Length()
                            : 0;
  std::printf("sec72 on cycle-1000: ANY SHORTEST length %zu, closed form "
              "999\n", length);
  if (length != 999) {
    std::fprintf(stderr, "FAIL sec72: ANY SHORTEST length %zu, not 999 "
                 "(%s)\n", length, out.status().ToString().c_str());
    *ok = false;
  }
}

int RunBench() {
  bool ok = true;
  bench::JsonReport report("paper");
  std::printf("%-30s %-22s | %8s %8s | %10s %10s | %s\n", "row", "graph",
              "rows", "pinned", "steps", "pinned", "reference");
  // The graphs outlive the table so that BENCH_paper.prom snapshots their
  // metrics registries.
  std::vector<PropertyGraph> graphs;
  graphs.reserve(PaperTable().size());
  for (const GraphRows& group : PaperTable()) {
    graphs.push_back(group.make());
    for (const PaperRow& row : group.rows) {
      CheckRow(graphs.back(), group.graph, row, &report, &ok);
    }
  }
  CheckSec72(&ok);
  report.Write();
  std::printf(ok ? "paper contract holds: pinned rows and steps, reference "
                   "rows, §7.2 closed-form length\n"
                 : "paper contract VIOLATED (see stderr)\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gpml

int main() { return gpml::RunBench(); }
