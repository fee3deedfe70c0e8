#include <algorithm>

#include <gtest/gtest.h>

#include "eval/matcher.h"
#include "eval/nfa.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "parser/parser.h"
#include "planner/planner.h"
#include "test_util.h"

namespace gpml {
namespace {

using testing_util::Paths;
using testing_util::Rows;

// E14: selectors (Figure 8, §5.1).

TEST(SelectorTest, AnyShortestPaperExample) {
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(Paths(g,
                  "MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')"
                  "-[t:Transfer]->*(b WHERE b.owner='Aretha')"),
            (std::vector<std::string>{"path(a6,t5,a3,t2,a2)"}));
}

TEST(SelectorTest, AllShortestOnDiamond) {
  // Each diamond doubles the number of shortest paths: 2^k.
  PropertyGraph g = MakeDiamondChain(3);
  std::vector<std::string> rows =
      Paths(g,
            "MATCH ALL SHORTEST p = (a WHERE a.owner='s0')"
            "-[:Transfer]->*(b WHERE b.owner='s3')");
  EXPECT_EQ(rows.size(), 8u);
}

TEST(SelectorTest, AnyPicksExactlyOnePerPartition) {
  PropertyGraph g = MakeDiamondChain(3);
  EXPECT_EQ(Paths(g,
                  "MATCH ANY p = (a WHERE a.owner='s0')-[:Transfer]->*"
                  "(b WHERE b.owner='s3')")
                .size(),
            1u);
}

TEST(SelectorTest, AnyKRespectsK) {
  PropertyGraph g = MakeDiamondChain(3);  // 8 source-sink paths.
  EXPECT_EQ(Paths(g,
                  "MATCH ANY 3 p = (a WHERE a.owner='s0')-[:Transfer]->*"
                  "(b WHERE b.owner='s3')")
                .size(),
            3u);
  // More than available: all are retained (Figure 8).
  EXPECT_EQ(Paths(g,
                  "MATCH ANY 20 p = (a WHERE a.owner='s0')-[:Transfer]->*"
                  "(b WHERE b.owner='s3')")
                .size(),
            8u);
}

TEST(SelectorTest, ShortestKOrdersByLength) {
  // Grid: corner-to-corner shortest paths have length w+h-2; SHORTEST k
  // must prefer them over longer walks.
  PropertyGraph g = MakeGridGraph(3, 3);
  std::vector<std::string> rows =
      Paths(g,
            "MATCH SHORTEST 6 p = (a WHERE a.owner='u0')-[:Transfer]->*"
            "(b WHERE b.owner='u8')");
  ASSERT_EQ(rows.size(), 6u);
  for (const std::string& r : rows) {
    // All six C(4,2)=6 shortest corner paths have 4 edges = 5 nodes:
    // count commas: 4 edges + 5 nodes = 9 items, 8 commas.
    EXPECT_EQ(std::count(r.begin(), r.end(), ','), 8) << r;
  }
}

TEST(SelectorTest, ShortestKGroupKeepsWholeLengthGroups) {
  PropertyGraph g = BuildPaperGraph();
  // Dave->Aretha: lengths 2 (one path), then longer groups.
  std::vector<std::string> one_group =
      Paths(g,
            "MATCH SHORTEST 1 GROUP p = (a WHERE a.owner='Dave')"
            "-[t:Transfer]->*(b WHERE b.owner='Aretha')");
  EXPECT_EQ(one_group,
            (std::vector<std::string>{"path(a6,t5,a3,t2,a2)"}));

  std::vector<std::string> two_groups =
      Paths(g,
            "MATCH SHORTEST 2 GROUP p = (a WHERE a.owner='Dave')"
            "-[t:Transfer]->*(b WHERE b.owner='Aretha')");
  EXPECT_EQ(two_groups.size(), 2u);
  EXPECT_NE(std::find(two_groups.begin(), two_groups.end(),
                      "path(a6,t6,a5,t8,a1,t1,a3,t2,a2)"),
            two_groups.end())
      << "second length group is the 4-edge path";
}

TEST(SelectorTest, PartitionsAreIndependent) {
  // ALL SHORTEST partitions by endpoints: every (start,end) pair reachable
  // keeps its own shortest paths, with per-partition lengths (Figure 8).
  PropertyGraph g = MakeChainGraph(4);
  std::vector<std::string> rows =
      Rows(g, "MATCH ALL SHORTEST (a)-[:Transfer]->*(b)", "a, b");
  // On a chain, every ordered reachable pair has exactly one path.
  EXPECT_EQ(rows.size(), 10u);  // 4 zero-length + 3 + 2 + 1.
}

TEST(SelectorTest, SelectorAppliesAfterRestrictor) {
  // §5.1: ALL SHORTEST TRAIL — shortest among trails. Dave->Aretha->Mike.
  PropertyGraph g = BuildPaperGraph();
  EXPECT_EQ(
      Paths(g,
            "MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')"
            "-[t:Transfer]->*(b WHERE b.owner='Aretha')"
            "-[r:Transfer]->*(c WHERE c.owner='Mike')"),
      (std::vector<std::string>{
          "path(a6,t5,a3,t2,a2,t3,a4,t4,a6,t6,a5,t8,a1,t1,a3)",
          "path(a6,t6,a5,t8,a1,t1,a3,t2,a2,t3,a4,t4,a6,t5,a3)"}))
      << "the two 7-edge trails of §5.1; the shorter non-trail is excluded";
}

TEST(SelectorTest, ShortestWithCyclesTerminates) {
  PropertyGraph g = MakeCycleGraph(5);
  std::vector<std::string> rows =
      Paths(g,
            "MATCH ANY SHORTEST p = (a WHERE a.owner='u0')-[:Transfer]->*"
            "(b WHERE b.owner='u3')");
  EXPECT_EQ(rows, (std::vector<std::string>{
                      "path(v0,t0,v1,t1,v2,t2,v3)"}));
}

TEST(SelectorTest, AllShortestDeterministicOnTies) {
  // Two parallel edges of equal length: ALL SHORTEST keeps both.
  PropertyGraph g = [] {
    GraphBuilder b;
    b.AddNode("u", {"N"});
    b.AddNode("v", {"N"});
    b.AddDirectedEdge("e1", "u", "v", {"T"});
    b.AddDirectedEdge("e2", "u", "v", {"T"});
    return std::move(std::move(b).Build()).value();
  }();
  std::vector<std::string> rows =
      Paths(g, "MATCH ALL SHORTEST p = (a)-[:T]->+(b)");
  EXPECT_EQ(rows, (std::vector<std::string>{"path(u,e1,v)", "path(u,e2,v)"}));
}

// --- the selector route's witnesses --------------------------------------
//
// The selector route records an accept only when the selector's keep rule
// for its endpoint partition admits it, and ANY / ANY SHORTEST programs
// prune on exact (pc, node, start) visit keys (docs/planner.md, "Selector
// route"). Neither may change a row, witness paths included.

/// Parallel edges (t1/t2 a->b, t8/t9 d->e), self-loops (t3 on b, t10 on e),
/// equal-length alternatives (a->b->d and a->c->d) and one edge of another
/// label (u1). Searches start at the two S nodes, a and d.
PropertyGraph MultigraphFixture() {
  GraphBuilder b;
  b.AddNode("a", {"N", "S"}, {{"w", Value::Int(1)}});
  b.AddNode("b", {"N"}, {{"w", Value::Int(5)}});
  b.AddNode("c", {"N"}, {{"w", Value::Int(3)}});
  b.AddNode("d", {"N", "S"}, {{"w", Value::Int(2)}});
  b.AddNode("e", {"N"}, {{"w", Value::Int(4)}});
  b.AddDirectedEdge("t1", "a", "b", {"T"});
  b.AddDirectedEdge("t2", "a", "b", {"T"});
  b.AddDirectedEdge("t3", "b", "b", {"T"});
  b.AddDirectedEdge("t4", "a", "c", {"T"});
  b.AddDirectedEdge("t5", "b", "d", {"T"});
  b.AddDirectedEdge("t6", "c", "d", {"T"});
  b.AddDirectedEdge("t7", "d", "a", {"T"});
  b.AddDirectedEdge("t8", "d", "e", {"T"});
  b.AddDirectedEdge("t9", "d", "e", {"T"});
  b.AddDirectedEdge("t10", "e", "e", {"T"});
  b.AddDirectedEdge("t11", "c", "e", {"T"});
  b.AddDirectedEdge("u1", "b", "e", {"U"});
  return std::move(std::move(b).Build()).value();
}

struct Golden {
  const char* query;
  std::vector<std::string> rows;  // In engine order.
};

/// Rows captured from the engine as it was before accept gating and exact
/// visit keys, in delivery order. The last three queries are exact-key
/// programs beyond the plain shape: an endpoint predicate reading the
/// other endpoint, a two-edge iteration body, and an undirected step.
const Golden kGoldens[] = {
    {"MATCH ANY (x:S)-[:T]->+(y)",
     {"x=a -=t1 y=b",
      "x=a -=t4 y=c",
      "x=d -=t7 y=a",
      "x=d -=t8 y=e",
      "x=a -=t1 _=b -=t5 y=d",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t7 _=a -=t1 y=b",
      "x=d -=t7 _=a -=t4 y=c",
      "x=a -=t1 _=b -=t5 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t1 _=b -=t5 y=d"}},
    {"MATCH ANY SHORTEST p = (x:S)-[:T]->+(y)",
     {"x=a -=t1 y=b",
      "x=a -=t4 y=c",
      "x=d -=t7 y=a",
      "x=d -=t8 y=e",
      "x=a -=t1 _=b -=t5 y=d",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t7 _=a -=t1 y=b",
      "x=d -=t7 _=a -=t4 y=c",
      "x=a -=t1 _=b -=t5 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t1 _=b -=t5 y=d"}},
    {"MATCH ANY 2 p = (x:S)-[:T]->+(y)",
     {"x=a -=t1 y=b",
      "x=a -=t2 y=b",
      "x=a -=t4 y=c",
      "x=d -=t7 y=a",
      "x=d -=t8 y=e",
      "x=d -=t9 y=e",
      "x=a -=t1 _=b -=t5 y=d",
      "x=a -=t2 _=b -=t5 y=d",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t7 _=a -=t1 y=b",
      "x=d -=t7 _=a -=t2 y=b",
      "x=d -=t7 _=a -=t4 y=c",
      "x=a -=t1 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t1 _=b -=t5 _=d -=t8 y=e",
      "x=a -=t2 _=b -=t5 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t1 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t2 _=b -=t5 y=d",
      "x=a -=t1 _=b -=t5 _=d -=t7 _=a -=t4 y=c",
      "x=d -=t7 _=a -=t1 _=b -=t5 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t1 _=b -=t5 _=d -=t7 _=a -=t4 y=c"}},
    {"MATCH SHORTEST 2 GROUP p = (x:S)-[:T]->+(y)",
     {"x=a -=t1 y=b",
      "x=a -=t2 y=b",
      "x=a -=t4 y=c",
      "x=d -=t7 y=a",
      "x=d -=t8 y=e",
      "x=d -=t9 y=e",
      "x=a -=t1 _=b -=t3 y=b",
      "x=a -=t1 _=b -=t5 y=d",
      "x=a -=t2 _=b -=t3 y=b",
      "x=a -=t2 _=b -=t5 y=d",
      "x=a -=t4 _=c -=t6 y=d",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t7 _=a -=t1 y=b",
      "x=d -=t7 _=a -=t2 y=b",
      "x=d -=t7 _=a -=t4 y=c",
      "x=d -=t8 _=e -=t10 y=e",
      "x=d -=t9 _=e -=t10 y=e",
      "x=a -=t1 _=b -=t3 _=b -=t5 y=d",
      "x=a -=t1 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t1 _=b -=t5 _=d -=t8 y=e",
      "x=a -=t1 _=b -=t5 _=d -=t9 y=e",
      "x=a -=t2 _=b -=t3 _=b -=t5 y=d",
      "x=a -=t2 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t2 _=b -=t5 _=d -=t8 y=e",
      "x=a -=t2 _=b -=t5 _=d -=t9 y=e",
      "x=a -=t4 _=c -=t6 _=d -=t7 y=a",
      "x=a -=t4 _=c -=t6 _=d -=t8 y=e",
      "x=a -=t4 _=c -=t6 _=d -=t9 y=e",
      "x=a -=t4 _=c -=t11 _=e -=t10 y=e",
      "x=d -=t7 _=a -=t1 _=b -=t3 y=b",
      "x=d -=t7 _=a -=t1 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t2 _=b -=t3 y=b",
      "x=d -=t7 _=a -=t2 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t4 _=c -=t6 y=d",
      "x=a -=t1 _=b -=t3 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t1 _=b -=t5 _=d -=t7 _=a -=t4 y=c",
      "x=a -=t2 _=b -=t3 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t2 _=b -=t5 _=d -=t7 _=a -=t4 y=c",
      "x=a -=t4 _=c -=t6 _=d -=t7 _=a -=t4 y=c",
      "x=d -=t7 _=a -=t1 _=b -=t3 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t1 _=b -=t5 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t2 _=b -=t3 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t2 _=b -=t5 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t4 _=c -=t6 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t1 _=b -=t5 _=d -=t7 _=a -=t4 y=c",
      "x=d -=t7 _=a -=t2 _=b -=t5 _=d -=t7 _=a -=t4 y=c",
      "x=d -=t7 _=a -=t4 _=c -=t6 _=d -=t7 _=a -=t4 y=c"}},
    {"MATCH ALL SHORTEST p = (x:S)-[:T]->+(y)",
     {"x=a -=t1 y=b",
      "x=a -=t2 y=b",
      "x=a -=t4 y=c",
      "x=d -=t7 y=a",
      "x=d -=t8 y=e",
      "x=d -=t9 y=e",
      "x=a -=t1 _=b -=t5 y=d",
      "x=a -=t2 _=b -=t5 y=d",
      "x=a -=t4 _=c -=t6 y=d",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t7 _=a -=t1 y=b",
      "x=d -=t7 _=a -=t2 y=b",
      "x=d -=t7 _=a -=t4 y=c",
      "x=a -=t1 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t2 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t4 _=c -=t6 _=d -=t7 y=a",
      "x=d -=t7 _=a -=t1 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t2 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t4 _=c -=t6 y=d"}},
    {"MATCH ANY SHORTEST p = (x:S)-[:T]->+(y WHERE y.w > x.w)",
     {"x=a -=t1 y=b",
      "x=a -=t4 y=c",
      "x=d -=t8 y=e",
      "x=a -=t1 _=b -=t5 y=d",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t7 _=a -=t1 y=b",
      "x=d -=t7 _=a -=t4 y=c"}},
    {"MATCH ANY p = (x:S)[()-[:T]->()-[:T]->()]+(y)",
     {"x=a -=t1 _=b -=t3 y=b",
      "x=a -=t1 _=b -=t5 y=d",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t7 _=a -=t1 y=b",
      "x=d -=t7 _=a -=t4 y=c",
      "x=d -=t8 _=e -=t10 y=e",
      "x=a -=t1 _=b -=t3 _=b -=t5 _=d -=t7 y=a",
      "x=a -=t1 _=b -=t5 _=d -=t7 _=a -=t4 y=c",
      "x=d -=t7 _=a -=t1 _=b -=t3 _=b -=t5 y=d",
      "x=d -=t7 _=a -=t1 _=b -=t5 _=d -=t7 y=a"}},
    {"MATCH ANY SHORTEST p = (x:S)-[:T]-+(y)",
     {"x=a -=t1 y=b",
      "x=a -=t4 y=c",
      "x=a -=t7 y=d",
      "x=d -=t5 y=b",
      "x=d -=t6 y=c",
      "x=d -=t7 y=a",
      "x=d -=t8 y=e",
      "x=a -=t1 _=b -=t1 y=a",
      "x=a -=t4 _=c -=t11 y=e",
      "x=d -=t5 _=b -=t5 y=d"}},
};

std::string RenderRow(const ResultRow& row, const MatchOutput& context,
                      const PropertyGraph& g) {
  std::string s;
  for (size_t i = 0; i < row.bindings.size(); ++i) {
    if (i > 0) s += " | ";
    s += row.bindings[i]->ToString(g, *context.vars);
  }
  return s;
}

std::vector<std::string> RenderRows(const MatchOutput& out,
                                    const PropertyGraph& g) {
  std::vector<std::string> rows;
  for (const ResultRow& row : out.rows) rows.push_back(RenderRow(row, out, g));
  return rows;
}

TEST(SelectorTest, WitnessGoldensHoldAcrossThreadsStreamsAndTruncation) {
  PropertyGraph g = MultigraphFixture();
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.query);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      EngineOptions options;
      options.num_threads = threads;
      options.matcher.min_seeds_per_shard = 1;
      Result<MatchOutput> out = Engine(g, options).Match(golden.query);
      ASSERT_TRUE(out.ok()) << out.status();
      EXPECT_EQ(RenderRows(*out, g), golden.rows) << threads << " threads";

      Result<PreparedQuery> prepared = Engine(g, options).Prepare(golden.query);
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      Result<Cursor> cursor = prepared->Open();
      ASSERT_TRUE(cursor.ok()) << cursor.status();
      std::vector<std::string> streamed;
      RowView view;
      while (true) {
        Result<bool> more = cursor->Next(&view);
        ASSERT_TRUE(more.ok()) << more.status();
        if (!*more) break;
        streamed.push_back(RenderRow(*view.row, *view.context, g));
      }
      EXPECT_EQ(streamed, golden.rows) << "cursor, " << threads << " threads";
    }

    // max_matches counts kept bindings, so a truncated run delivers
    // exactly the first max_matches rows.
    const size_t keep = golden.rows.size() / 2;
    EngineOptions truncating;
    truncating.on_budget = EngineOptions::BudgetPolicy::kTruncate;
    truncating.matcher.max_matches = keep;
    Result<MatchOutput> cut = Engine(g, truncating).Match(golden.query);
    ASSERT_TRUE(cut.ok()) << cut.status();
    EXPECT_TRUE(cut->truncated);
    EXPECT_EQ(RenderRows(*cut, g),
              std::vector<std::string>(golden.rows.begin(),
                                       golden.rows.begin() + keep));
  }
}

TEST(SelectorTest, WitnessRouteKeepsTheStepCountOfTheSearchItReplaced) {
  // perfbench `paths`' ANY statement for one suspect on fraud-300 runs on
  // the witness route. The copied-state search it replaced charged 4,791
  // steps here (bench_csr pins the same statement over 15 suspects), so the
  // budget trips at the same instruction: one step fewer is refused, and
  // kTruncate delivers the sequential engine's prefix whatever
  // num_threads asks for.
  FraudGraphOptions graph_options;
  graph_options.num_accounts = 300;
  graph_options.num_cities = 3;
  PropertyGraph g = MakeFraudGraph(graph_options);
  const char* query =
      "MATCH ANY (x:Account WHERE x.owner='u0')-[:Transfer]->+"
      "(y:Account WHERE y.isBlocked='yes')";
  constexpr size_t kPinnedSteps = 4791;

  EngineMetrics metrics;
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;
  Result<MatchOutput> full = Engine(g, options).Match(query);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(metrics.matcher_steps, kPinnedSteps);
  EXPECT_EQ(metrics.witness_decls, 1u);
  const std::vector<std::string> rows = RenderRows(*full, g);
  EXPECT_EQ(rows.size(), 28u);

  options.matcher.max_steps = kPinnedSteps - 1;
  EXPECT_EQ(Engine(g, options).Match(query).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.matcher_steps, kPinnedSteps);

  options.on_budget = EngineOptions::BudgetPolicy::kTruncate;
  for (size_t max_steps : {kPinnedSteps - 1, kPinnedSteps / 2}) {
    options.matcher.max_steps = max_steps;
    options.num_threads = 1;
    Result<MatchOutput> sequential = Engine(g, options).Match(query);
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    EXPECT_TRUE(sequential->truncated);
    const std::vector<std::string> prefix = RenderRows(*sequential, g);
    ASSERT_LE(prefix.size(), rows.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), rows.begin()));
    if (max_steps < kPinnedSteps - 1) EXPECT_LT(prefix.size(), rows.size());

    options.num_threads = 4;
    options.matcher.min_seeds_per_shard = 1;
    Result<MatchOutput> sharded = Engine(g, options).Match(query);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    EXPECT_TRUE(sharded->truncated);
    EXPECT_EQ(RenderRows(*sharded, g), prefix) << max_steps;
  }
}

TEST(SelectorTest, AnyBudgetCountsOnlyKeptBindings) {
  // The search records 28 accepts for these 10 endpoint pairs. When every
  // accept counted against max_matches, a budget of 10 was refused; now
  // only the one binding ANY keeps per pair counts.
  PropertyGraph g = MultigraphFixture();
  const char* query = "MATCH ANY (x:S)-[:T]->+(y)";
  EngineOptions options;
  options.matcher.max_matches = 10;
  Result<MatchOutput> out = Engine(g, options).Match(query);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->rows.size(), 10u);

  options.matcher.max_matches = 9;
  EXPECT_EQ(Engine(g, options).Match(query).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SelectorTest, TargetPushdownKeepsJoinedRowsExactly) {
  // y is bound by the first declaration, so the second keeps only accepts
  // ending at those nodes; the join would discard the rest anyway. The
  // oracle is the §6.5 reference join, which restricts nothing.
  PropertyGraph g = MultigraphFixture();
  const std::string query =
      "MATCH (x:S)-[:T]->{2}(y), ANY SHORTEST p = (x)-[:T]->+(y)";
  EngineMetrics metrics;
  EngineOptions options;
  options.metrics = &metrics;
  std::vector<std::string> planned =
      testing_util::EngineJoinRows(g, query, options);
  EXPECT_EQ(planned, testing_util::ReferenceJoinRows(g, query));
  EXPECT_FALSE(planned.empty());
  EXPECT_EQ(metrics.target_filtered_decls, 1u);
}

TEST(SelectorTest, TargetPushdownOnAMirroredDeclaration) {
  // A mirrored program runs right to left: its accepts end at the
  // declaration's *left* endpoint, which is what the target filter tests.
  PropertyGraph g = MultigraphFixture();
  testing_util::CompiledDecl c =
      testing_util::Compile(g, "MATCH ALL SHORTEST p = (x)-[:T]->+(y:S)");
  ASSERT_TRUE(c.status.ok()) << c.status;
  const VarTable& vars = *c.vars;
  PathPatternDecl mirrored = c.normalized.paths[0];
  ASSERT_TRUE(planner::ReversalSafe(mirrored));
  mirrored.pattern = planner::ReversePathPattern(mirrored.pattern);
  Result<Program> program = CompilePattern(mirrored, vars);
  ASSERT_TRUE(program.ok());
  BindProgramToGraph(&*program, g, &vars);

  const std::vector<NodeId> targets = {g.FindNode("b"), g.FindNode("c")};
  Result<MatchSet> all = RunPattern(g, *program, vars, {});
  Result<MatchSet> kept = RunPattern(g, *program, vars, {},
                                     /*seed_filter=*/nullptr, &targets);
  ASSERT_TRUE(all.ok() && kept.ok());
  std::vector<std::string> expected;
  for (const PathBinding& pb : all->bindings) {
    NodeId end = pb.path.End();
    if (end == targets[0] || end == targets[1]) {
      expected.push_back(pb.ToString(g, vars));
    }
  }
  std::vector<std::string> actual;
  for (const PathBinding& pb : kept->bindings) {
    actual.push_back(pb.ToString(g, vars));
  }
  EXPECT_FALSE(expected.empty());
  EXPECT_LT(expected.size(), all->bindings.size());
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace gpml
